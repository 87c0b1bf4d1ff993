#include "ref/tensor.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "util/metrics.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define DNNPERF_TENSOR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DNNPERF_TENSOR_ASAN 1
#endif
#endif

#ifdef DNNPERF_TENSOR_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace dnnperf::ref {

namespace tensor_cache {

namespace {

/// Freed cache-sized buffers. A fixed table, so giving a buffer back never
/// allocates; a buffer that finds the table full is unmapped instead.
struct Cache {
  struct Entry {
    void* p;
    std::size_t bytes;
  };
  std::mutex mutex;
  std::array<Entry, 256> free{};
  std::size_t free_count = 0;
  Stats stats;
};

Cache& cache() {
  static Cache c;
  return c;
}

void poison(void* p, std::size_t bytes) {
#ifdef DNNPERF_TENSOR_ASAN
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  (void)p, (void)bytes;
#endif
}

void unpoison(void* p, std::size_t bytes) {
#ifdef DNNPERF_TENSOR_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  (void)p, (void)bytes;
#endif
}

/// Fresh pages; under AddressSanitizer a heap block, which has redzones.
void* map_fresh(std::size_t bytes) {
#ifdef DNNPERF_TENSOR_ASAN
  return ::operator new(bytes);
#else
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
#endif
}

void unmap(void* p, std::size_t bytes) noexcept {
#ifdef DNNPERF_TENSOR_ASAN
  unpoison(p, bytes);
  ::operator delete(p);
#else
  munmap(p, bytes);
#endif
}

/// Unmaps cached buffers until at most `allowed` bytes stay cached: the
/// smallest buffer that alone covers the excess if there is one, else the
/// largest, repeatedly. Few bytes go, so a buffer the next tensor wants
/// most likely stays.
void evict_locked(Cache& c, std::size_t allowed) {
  while (c.stats.cached_bytes > allowed) {
    const std::size_t excess = c.stats.cached_bytes - allowed;
    std::size_t victim = 0;
    for (std::size_t i = 1; i < c.free_count; ++i) {
      const std::size_t b = c.free[i].bytes, v = c.free[victim].bytes;
      const bool better = b >= excess ? (v < excess || b < v) : (v < excess && b > v);
      if (better) victim = i;
    }
    unmap(c.free[victim].p, c.free[victim].bytes);
    c.stats.cached_bytes -= c.free[victim].bytes;
    c.free[victim] = c.free[--c.free_count];
  }
}

}  // namespace

void* take(std::size_t bytes) {
  if (bytes < kMinBytes) return ::operator new(bytes);
  Cache& c = cache();
  {
    std::lock_guard lock(c.mutex);
    for (std::size_t i = 0; i < c.free_count; ++i) {
      if (c.free[i].bytes != bytes) continue;
      void* p = c.free[i].p;
      c.free[i] = c.free[--c.free_count];
      c.stats.cached_bytes -= bytes;
      c.stats.live_bytes += bytes;
      unpoison(p, bytes);
      return p;
    }
    // No cached buffer has this size: map a fresh one, first unmapping as
    // many cached buffers (all of other sizes) as it takes to keep live plus
    // cached bytes within the peak of live bytes.
    c.stats.live_bytes += bytes;
    c.stats.peak_live_bytes = std::max(c.stats.peak_live_bytes, c.stats.live_bytes);
    evict_locked(c, c.stats.peak_live_bytes - c.stats.live_bytes);
  }
  try {
    return map_fresh(bytes);
  } catch (...) {
    std::lock_guard lock(c.mutex);
    c.stats.live_bytes -= bytes;
    throw;
  }
}

void give(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes < kMinBytes) {
    ::operator delete(p);
    return;
  }
  Cache& c = cache();
  poison(p, bytes);
  std::lock_guard lock(c.mutex);
  c.stats.live_bytes -= bytes;
  if (c.free_count == c.free.size()) {
    unmap(p, bytes);
    return;
  }
  c.free[c.free_count++] = {p, bytes};
  c.stats.cached_bytes += bytes;
}

Stats stats() {
  Cache& c = cache();
  std::lock_guard lock(c.mutex);
  return c.stats;
}

}  // namespace tensor_cache

namespace detail {

void* allocate_tensor_storage(std::size_t bytes) {
  static const util::metrics::Counter allocations = util::metrics::counter(
      "ref_tensor_allocations_total", "Tensor storage allocations (cache hits included)");
  allocations.inc();
  return tensor_cache::take(bytes);
}

}  // namespace detail

namespace {

/// Resizes `buf` to n elements, dropping the old contents first when it must
/// grow, so the new storage holds exactly n elements and nothing is copied.
template <typename Vec>
void resize_discarding(Vec& buf, std::size_t n) {
  if (n > buf.capacity()) buf.clear();
  buf.resize(n);
}

std::size_t element_count(const int* dims, std::size_t rank) {
  if (rank == 0 || rank > 4) throw std::invalid_argument("Tensor: rank 1..4 only");
  std::size_t n = 1;
  for (std::size_t i = 0; i < rank; ++i) {
    if (dims[i] <= 0) throw std::invalid_argument("Tensor: non-positive dimension");
    n *= static_cast<std::size_t>(dims[i]);
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape)) {
  data_.assign(element_count(shape_.data(), shape_.size()), 0.0f);
}

Tensor Tensor::zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }

Tensor Tensor::randn(std::vector<int> shape, util::Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Tensor::resize(const std::vector<int>& shape) {
  const std::size_t n = element_count(shape.data(), shape.size());
  shape_ = shape;
  resize_discarding(data_, n);
}

Tensor Tensor::reshaped(std::vector<int> shape) const {
  Tensor t(std::move(shape));
  if (t.size() != size()) throw std::invalid_argument("reshaped: element count mismatch");
  std::copy(data_.begin(), data_.end(), t.data_.begin());
  return t;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) os << (i ? "," : "") << shape_[i];
  os << ']';
  return os.str();
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("max_abs_diff: shape mismatch");
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

}  // namespace dnnperf::ref
