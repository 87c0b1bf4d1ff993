#include "ref/gemm.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "ref/gemm_packed.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace dnnperf::ref {

namespace {

int out_dim(int in, int k, int stride, int pad) {
  const int out = (in + 2 * pad - k) / stride + 1;
  if (out <= 0) throw std::invalid_argument("gemm helpers: output dim <= 0");
  return out;
}

/// Shape args and FLOP count for a GEMM-shaped trace span.
template <typename SpanT>
void annotate_gemm_span(SpanT& span, int m, int k, int n) {
  if (span.active())
    span.set_args(
        std::move(util::trace::Args().add("m", m).add("k", k).add("n", n)).str());
  span.set_flops(2.0 * m * k * n);
}

void check_gemm_shapes(const Tensor& a, const Tensor& b, const Tensor& c, int m, int k, int n,
                       const char* what) {
  if (a.rank() != 2 || b.rank() != 2)
    throw std::invalid_argument(std::string(what) + ": rank-2 inputs only");
  if (b.dim(0) != k) throw std::invalid_argument(std::string(what) + ": inner dimension mismatch");
  if (c.rank() != 2 || c.dim(0) != m || c.dim(1) != n)
    throw std::invalid_argument(std::string(what) + ": bad output shape");
}

/// Store sink for plain row-major C: overwrite on the first k-block unless
/// accumulating, add afterwards.
struct RowMajorStore {
  float* c;
  int ldc;
  bool accumulate;
  void operator()(int i, int j, int mh, int nw, const float* acc, bool first) const {
    for (int r = 0; r < mh; ++r) {
      float* crow = c + static_cast<std::size_t>(i + r) * ldc + j;
      const float* arow = acc + r * detail::kNR;
      if (first && !accumulate)
        for (int q = 0; q < nw; ++q) crow[q] = arow[q];
      else
        for (int q = 0; q < nw; ++q) crow[q] += arow[q];
    }
  }
};

}  // namespace

namespace detail {

PanelPair& thread_panels() {
  // Uninitialized: the packers write every element a micro-kernel reads.
  thread_local PanelPair panels{ScratchBuffer(static_cast<std::size_t>(kMC) * kKC),
                                ScratchBuffer(static_cast<std::size_t>(kKC) * kNC)};
  return panels;
}

void micro_kernel_portable(int kc, const float* a, const float* b, float* acc) {
  float c[kMR * kNR] = {};
  for (int kk = 0; kk < kc; ++kk, a += kMR, b += kNR)
    for (int i = 0; i < kMR; ++i) {
      const float av = a[i];
      for (int j = 0; j < kNR; ++j) c[i * kNR + j] += av * b[j];
    }
  for (int i = 0; i < kMR * kNR; ++i) acc[i] = c[i];
}

#if defined(__x86_64__) || defined(__i386__)
// Compiled for AVX2 whatever the build's -march; a multiply and a separate
// add per product, as in the portable body (the build passes
// -ffp-contract=off, so the compiler does not fuse them either). The eight
// row accumulators are named variables: as an array, GCC -O2 keeps them in
// memory (one load and one store per add).
__attribute__((target("avx2"))) void micro_kernel_avx2(int kc, const float* a, const float* b,
                                                       float* acc) {
  static_assert(kMR == 8 && kNR == 8, "one ymm accumulator per tile row");
  __m256 c0 = _mm256_setzero_ps(), c1 = c0, c2 = c0, c3 = c0, c4 = c0, c5 = c0, c6 = c0,
         c7 = c0;
  for (int kk = 0; kk < kc; ++kk, a += kMR, b += kNR) {
    const __m256 bv = _mm256_loadu_ps(b);
    c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_broadcast_ss(a + 0), bv));
    c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_broadcast_ss(a + 1), bv));
    c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_broadcast_ss(a + 2), bv));
    c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_broadcast_ss(a + 3), bv));
    c4 = _mm256_add_ps(c4, _mm256_mul_ps(_mm256_broadcast_ss(a + 4), bv));
    c5 = _mm256_add_ps(c5, _mm256_mul_ps(_mm256_broadcast_ss(a + 5), bv));
    c6 = _mm256_add_ps(c6, _mm256_mul_ps(_mm256_broadcast_ss(a + 6), bv));
    c7 = _mm256_add_ps(c7, _mm256_mul_ps(_mm256_broadcast_ss(a + 7), bv));
  }
  _mm256_storeu_ps(acc + 0 * kNR, c0);
  _mm256_storeu_ps(acc + 1 * kNR, c1);
  _mm256_storeu_ps(acc + 2 * kNR, c2);
  _mm256_storeu_ps(acc + 3 * kNR, c3);
  _mm256_storeu_ps(acc + 4 * kNR, c4);
  _mm256_storeu_ps(acc + 5 * kNR, c5);
  _mm256_storeu_ps(acc + 6 * kNR, c6);
  _mm256_storeu_ps(acc + 7 * kNR, c7);
}
#endif

MicroKernel micro_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  // A function-local static, so the CPU is queried at first use, after
  // libgcc's CPU-model constructor has run, and only once.
  static const MicroKernel kernel = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? &micro_kernel_avx2 : &micro_kernel_portable;
  }();
  return kernel;
#else
  return &micro_kernel_portable;
#endif
}

GemmMetricsScope::GemmMetricsScope(int m, int k, int n)
    : flops_(2.0 * m * k * n), active_(util::metrics::enabled()) {
  if (active_) start_ = std::chrono::steady_clock::now();
}

GemmMetricsScope::~GemmMetricsScope() {
  if (!active_) return;
  // Function-local statics, so registration happens once.
  static const auto calls =
      util::metrics::counter("ref_gemm_calls_total", "GEMM kernel invocations");
  static const auto flops =
      util::metrics::counter("ref_gemm_flops_total", "Floating-point operations (2*m*k*n)");
  static const auto seconds =
      util::metrics::histogram("ref_gemm_seconds", "GEMM wall time per call, seconds");
  static const auto gflops = util::metrics::gauge(
      "ref_gemm_gflops", "Throughput of the most recent GEMM call, GFLOP/s");
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  calls.inc();
  flops.inc(static_cast<std::uint64_t>(flops_));
  seconds.observe(dt);
  if (dt > 0.0) gflops.set(flops_ / dt * 1e-9);
}

void gemm_packed(const float* pa, const float* pb, float* pc, int m, int k, int n,
                 bool accumulate, ThreadPool& pool) {
  const auto pack_a = [pa, k](float* dst, int i0, int mh, int k0, int kc) {
    const int mpanels = (mh + kMR - 1) / kMR;
    for (int ip = 0; ip < mpanels; ++ip) {
      float* panel = dst + static_cast<std::size_t>(ip) * kc * kMR;
      for (int r = 0; r < kMR; ++r) {
        const int i = i0 + ip * kMR + r;
        if (i < i0 + mh) {
          const float* src = pa + static_cast<std::size_t>(i) * k + k0;
          for (int kk = 0; kk < kc; ++kk) panel[kk * kMR + r] = src[kk];
        } else {
          for (int kk = 0; kk < kc; ++kk) panel[kk * kMR + r] = 0.0f;
        }
      }
    }
  };
  const auto pack_b = [pb, n](float* dst, int k0, int kc, int j0, int nw) {
    pack_b_rowmajor(dst, pb, n, k0, kc, j0, nw);
  };
  packed_gemm(m, n, k, pack_a, pack_b, RowMajorStore{pc, n, accumulate}, pool);
}

void gemm_at_packed(const float* pa, const float* pb, float* pc, int m, int k, int n,
                    bool accumulate, ThreadPool& pool) {
  // A is stored transposed [k, m]: a row of the logical A is a column of the
  // stored matrix, so the pack loops kk-outer for contiguous reads.
  const auto pack_a = [pa, m](float* dst, int i0, int mh, int k0, int kc) {
    const int mpanels = (mh + kMR - 1) / kMR;
    for (int ip = 0; ip < mpanels; ++ip) {
      float* panel = dst + static_cast<std::size_t>(ip) * kc * kMR;
      const int ibase = i0 + ip * kMR;
      const int rows = std::min(kMR, i0 + mh - ibase);
      for (int kk = 0; kk < kc; ++kk) {
        const float* src = pa + static_cast<std::size_t>(k0 + kk) * m + ibase;
        float* out = panel + static_cast<std::size_t>(kk) * kMR;
        for (int r = 0; r < rows; ++r) out[r] = src[r];
        for (int r = rows; r < kMR; ++r) out[r] = 0.0f;
      }
    }
  };
  const auto pack_b = [pb, n](float* dst, int k0, int kc, int j0, int nw) {
    pack_b_rowmajor(dst, pb, n, k0, kc, j0, nw);
  };
  packed_gemm(m, n, k, pack_a, pack_b, RowMajorStore{pc, n, accumulate}, pool);
}

}  // namespace detail

void gemm(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool& pool, bool accumulate) {
  const int m = a.rank() == 2 ? a.dim(0) : 0, k = a.rank() == 2 ? a.dim(1) : 0,
            n = b.rank() == 2 ? b.dim(1) : 0;
  check_gemm_shapes(a, b, c, m, k, n, "gemm");
  DNNPERF_TRACE_SPAN_VAR(span, "ref", "gemm");
  annotate_gemm_span(span, m, k, n);
  detail::GemmMetricsScope metrics_scope(m, k, n);
  detail::gemm_packed(a.data(), b.data(), c.data(), m, k, n, accumulate, pool);
}

void gemm_at(const Tensor& a_t, const Tensor& b, Tensor& c, ThreadPool& pool, bool accumulate) {
  const int k = a_t.rank() == 2 ? a_t.dim(0) : 0, m = a_t.rank() == 2 ? a_t.dim(1) : 0,
            n = b.rank() == 2 ? b.dim(1) : 0;
  check_gemm_shapes(a_t, b, c, m, k, n, "gemm_at");
  DNNPERF_TRACE_SPAN_VAR(span, "ref", "gemm_at");
  annotate_gemm_span(span, m, k, n);
  detail::GemmMetricsScope metrics_scope(m, k, n);
  detail::gemm_at_packed(a_t.data(), b.data(), c.data(), m, k, n, accumulate, pool);
}

void im2col_image(const float* x, int c, int h, int w, int kh, int kw, int stride, int pad,
                  float* cols) {
  const int oh = out_dim(h, kh, stride, pad);
  const int ow = out_dim(w, kw, stride, pad);
  for (int oy = 0; oy < oh; ++oy)
    for (int ox = 0; ox < ow; ++ox) {
      const int y0 = oy * stride - pad, x0 = ox * stride - pad;
      if (y0 >= 0 && y0 + kh <= h && x0 >= 0 && x0 + kw <= w) {
        // The receptive field lies inside the image: no bounds checks.
        const float* src = x + static_cast<std::size_t>(y0) * w + x0;
        for (int ci = 0; ci < c; ++ci)
          for (int ky = 0; ky < kh; ++ky, cols += kw) {
            const float* xrow = src + (static_cast<std::size_t>(ci) * h + ky) * w;
            for (int kx = 0; kx < kw; ++kx) cols[kx] = xrow[kx];
          }
        continue;
      }
      for (int ci = 0; ci < c; ++ci)
        for (int ky = 0; ky < kh; ++ky, cols += kw) {
          const int iy = y0 + ky;
          if (iy < 0 || iy >= h) {
            std::fill(cols, cols + kw, 0.0f);
            continue;
          }
          const float* xrow = x + (static_cast<std::size_t>(ci) * h + iy) * w;
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = x0 + kx;
            cols[kx] = ix >= 0 && ix < w ? xrow[ix] : 0.0f;
          }
        }
    }
}

void col2im_image(const float* cols, int c, int h, int w, int kh, int kw, int stride, int pad,
                  float* x) {
  const int oh = out_dim(h, kh, stride, pad);
  const int ow = out_dim(w, kw, stride, pad);
  for (int oy = 0; oy < oh; ++oy)
    for (int ox = 0; ox < ow; ++ox)
      for (int ci = 0; ci < c; ++ci)
        for (int ky = 0; ky < kh; ++ky, cols += kw) {
          const int iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) continue;
          float* xrow = x + (static_cast<std::size_t>(ci) * h + iy) * w;
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = ox * stride + kx - pad;
            if (ix >= 0 && ix < w) xrow[ix] += cols[kx];
          }
        }
}

}  // namespace dnnperf::ref
