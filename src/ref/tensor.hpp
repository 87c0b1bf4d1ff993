// refdnn: a small, real tensor type (fp32, row-major, up to 4-D) backing the
// executable mini-framework used for correctness tests and runnable
// examples. This is the numeric ground truth for the training semantics the
// performance model assumes (e.g. MP data-parallel == SP gradients).
//
// Storage comes from one process-wide buffer cache (tensor_cache below):
// buffers of at least 64 KiB are mmap'd and, when freed, kept for the next
// tensor of exactly that size, so a training loop whose tensors keep their
// shapes stops faulting pages in after its first step (DESIGN.md §6).
#pragma once

#include <cstddef>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace dnnperf::ref {

/// The process-wide cache of tensor storage. Requests of at least kMinBytes
/// are served by an earlier buffer of exactly that size when one is cached,
/// else by fresh mmap'd pages; freed ones go back to the cache, whichever
/// thread frees them. A fresh mapping first unmaps cached buffers (of other
/// sizes, as none has the requested one) until live plus cached bytes fit
/// within the peak of live bytes, so that sum never exceeds the peak: the
/// cache has no capacity knob and holds no more than the program once
/// needed live. Smaller requests go to operator new. Under AddressSanitizer
/// a cached buffer is poisoned until it is handed out again, and fresh
/// buffers come from operator new so that overflows still hit redzones.
namespace tensor_cache {

inline constexpr std::size_t kMinBytes = std::size_t{64} * 1024;

struct Stats {
  std::size_t live_bytes = 0;       ///< cache-sized buffers handed out
  std::size_t cached_bytes = 0;     ///< freed cache-sized buffers kept mapped
  std::size_t peak_live_bytes = 0;  ///< high-water mark of live_bytes
};

/// A buffer of `bytes` bytes (uninitialized). Throws std::bad_alloc.
void* take(std::size_t bytes);
/// Returns a buffer from take(bytes); `bytes` must be the same.
void give(void* p, std::size_t bytes) noexcept;
Stats stats();

}  // namespace tensor_cache

namespace detail {
/// tensor_cache::take plus one count of ref_tensor_allocations_total.
void* allocate_tensor_storage(std::size_t bytes);
}  // namespace detail

/// Allocator over the cache that default-initializes, so growing a vector
/// leaves the new elements unwritten. kCounted adds one count of
/// ref_tensor_allocations_total per allocation: Tensor storage is counted;
/// per-thread kernel scratch (ScratchBuffer), whose count would depend on
/// which pool worker ran which chunk, is not.
template <typename T, bool kCounted>
struct CacheAllocator {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = CacheAllocator<U, kCounted>;
  };
  CacheAllocator() = default;
  template <typename U>
  CacheAllocator(const CacheAllocator<U, kCounted>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    return static_cast<T*>(kCounted ? detail::allocate_tensor_storage(bytes)
                                    : tensor_cache::take(bytes));
  }
  void deallocate(T* p, std::size_t n) noexcept { tensor_cache::give(p, n * sizeof(T)); }
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  template <typename U>
  bool operator==(const CacheAllocator<U, kCounted>&) const noexcept {
    return true;
  }
};

/// Kernel scratch (GEMM packing panels, per-image im2col buffers): cached
/// like tensor storage, uninitialized, and not counted.
using ScratchBuffer = std::vector<float, CacheAllocator<float, false>>;

class Tensor {
 public:
  Tensor() = default;
  /// A zero-filled tensor of `shape`.
  explicit Tensor(std::vector<int> shape);

  static Tensor zeros(std::vector<int> shape);
  /// He-style normal init scaled by fan-in (deterministic given rng).
  static Tensor randn(std::vector<int> shape, util::Rng& rng, float stddev = 1.0f);

  const std::vector<int>& shape() const { return shape_; }
  int dim(int i) const { return shape_.at(static_cast<std::size_t>(i)); }
  int rank() const { return static_cast<int>(shape_.size()); }
  std::size_t size() const { return data_.size(); }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 4-D accessor (N,C,H,W); bounds checked only in debug builds.
  float& at4(int n, int c, int h, int w) {
    return data_[index4(n, c, h, w)];
  }
  float at4(int n, int c, int h, int w) const { return data_[index4(n, c, h, w)]; }

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Gives the tensor `shape`, keeping the storage when it is big enough and
  /// otherwise replacing it with one buffer of exactly the new size. The
  /// contents are unspecified afterwards (nothing is zeroed): callers
  /// overwrite every element. Throws std::invalid_argument like the
  /// constructor.
  void resize(const std::vector<int>& shape);

  /// Reshape preserving element count; throws std::invalid_argument otherwise.
  Tensor reshaped(std::vector<int> shape) const;

  std::string shape_str() const;

 private:
  std::size_t index4(int n, int c, int h, int w) const {
    return ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
  }

  std::vector<int> shape_;
  std::vector<float, CacheAllocator<float, true>> data_;
};

/// Max |a - b| over all elements; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace dnnperf::ref
