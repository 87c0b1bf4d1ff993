// Internal packed-GEMM machinery shared by ref/gemm.cpp and ref/conv_fast.cpp.
//
// This is the BLIS-style decomposition MKL-DNN executes: the operand matrices
// are packed into contiguous panels sized for the cache hierarchy, and a
// register-tiled microkernel sweeps MR x NR output tiles with all
// accumulators held in registers. The driver is templated on three functors
// so the same loop nest serves plain GEMM, transposed-A GEMM, and the
// implicit-GEMM convolution (where the A "matrix" is the im2col view of the
// input and is materialized only one MC x KC panel at a time):
//
//   PackA(dst, i0, mh, k0, kc)  pack rows [i0,i0+mh) x cols [k0,k0+kc) of A
//                               into MR-interleaved micro-panels, zero-padded
//                               to a multiple of MR rows;
//   PackB(dst, k0, kc, j0, nw)  pack the KC x NC block of B into
//                               NR-interleaved micro-panels, zero-padded;
//   Store(i, j, mh, nw, acc, first_k_block)
//                               commit one MR x NR accumulator tile to the
//                               output (only the top-left mh x nw entries are
//                               valid). `first_k_block` tells the sink
//                               whether to overwrite/initialize (fused bias
//                               adds live here) or accumulate.
//
// The packing scratch is one MC x KC + KC x NC panel pair per thread
// (thread_panels()), shared by every instantiation of packed_gemm, so a
// thread that runs conv forward, gemm and gemm_at still owns one pair.
//
// Not a public API: everything lives in dnnperf::ref::detail.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

#include "ref/tensor.hpp"
#include "ref/threadpool.hpp"

namespace dnnperf::ref::detail {

// Register tile: 8x8, one 8-float accumulator row per A element. The AVX2
// micro-kernel holds the whole tile in 8 ymm registers; the portable one is
// plain C++. Both use the same tile, so packing, blocking and the summation
// order do not depend on the instruction set.
inline constexpr int kMR = 8;
inline constexpr int kNR = 8;

// Cache blocking: the A panel (MC x KC floats) and B panel (KC x NC floats)
// are the only scratch the driver allocates, one pair per thread.
inline constexpr int kKC = 256;
inline constexpr int kMC = (96 / kMR) * kMR;  // multiple of MR
inline constexpr int kNC = (256 / kNR) * kNR;  // multiple of NR

struct PanelPair {
  ScratchBuffer a;  ///< MC x KC
  ScratchBuffer b;  ///< KC x NC
};

/// The calling thread's packing panels, sized on first use. One pair per
/// thread for the whole process: every packed_gemm instantiation (conv
/// forward, gemm, gemm_at) packs into the same pair.
PanelPair& thread_panels();

/// C[m,n] (+)= A[m,k] * B[k,n] over raw row-major buffers. No shape checks,
/// span or metrics: the public gemm() and the per-image conv backward add
/// those around it.
void gemm_packed(const float* a, const float* b, float* c, int m, int k, int n, bool accumulate,
                 ThreadPool& pool);

/// As gemm_packed, with A stored transposed ([k, m] row-major).
void gemm_at_packed(const float* a_t, const float* b, float* c, int m, int k, int n,
                    bool accumulate, ThreadPool& pool);

/// Registry instrumentation for one executed GEMM: call/FLOP counters, a
/// duration histogram, and a most-recent-throughput gauge. With metrics
/// runtime-disabled the whole scope is one relaxed load and no clock read.
class GemmMetricsScope {
 public:
  GemmMetricsScope(int m, int k, int n);
  ~GemmMetricsScope();
  GemmMetricsScope(const GemmMetricsScope&) = delete;
  GemmMetricsScope& operator=(const GemmMetricsScope&) = delete;

 private:
  double flops_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

/// acc[MR*NR] = sum_{kk<kc} a_panel[kk*MR + i] * b_panel[kk*NR + j].
/// Overwrites acc (no read-modify-write): k-block accumulation is the
/// Store sink's business. Every element sums its kc products in kk order,
/// rounding each product before the add (no fused multiply-add), so every
/// MicroKernel gives the same bits.
using MicroKernel = void (*)(int kc, const float* a, const float* b, float* acc);

/// The portable body: plain C++, the fallback on every host.
void micro_kernel_portable(int kc, const float* a, const float* b, float* acc);

#if defined(__x86_64__) || defined(__i386__)
/// The AVX2 body (_mm256_mul_ps then _mm256_add_ps). Call it only where the
/// CPU supports AVX2; micro_kernel() checks that.
void micro_kernel_avx2(int kc, const float* a, const float* b, float* acc);
#endif

/// The micro-kernel for this CPU: the AVX2 body where the CPU has AVX2, the
/// portable one otherwise. Resolved once, on first call.
MicroKernel micro_kernel();

/// Blocked, packed GEMM loop nest: C[m,n] (+)= A[m,k] * B[k,n] with A/B/C
/// abstracted behind the functors above. Parallel over the MC x NC macro-tile
/// grid with grain-aware chunking so small problems run inline.
template <typename PackA, typename PackB, typename Store>
void packed_gemm(int m, int n, int k, const PackA& pack_a, const PackB& pack_b,
                 const Store& store, ThreadPool& pool) {
  const int mtiles = (m + kMC - 1) / kMC;
  const int ntiles = (n + kNC - 1) / kNC;
  const int ktiles = (k + kKC - 1) / kKC;
  const std::size_t cells = static_cast<std::size_t>(mtiles) * ntiles;

  // One macro-tile costs ~2*MC*NC*k flops; keep at least ~4 MFLOP per chunk
  // so dispatch overhead stays under ~0.1% even for skinny matrices.
  const double cell_flops = 2.0 * kMC * kNC * std::max(k, 1);
  const std::size_t grain =
      std::max<std::size_t>(1, static_cast<std::size_t>(4.0e6 / cell_flops) + 1);

  const MicroKernel kernel = micro_kernel();
  pool.parallel_for(cells, grain, [&](std::size_t cell_begin, std::size_t cell_end) {
    // This thread's panel pair: the only scratch memory of the whole GEMM.
    auto& [a_panel, b_panel] = thread_panels();

    for (std::size_t cell = cell_begin; cell < cell_end; ++cell) {
      // n-major cell order: adjacent cells in a chunk share the B column.
      const int mt = static_cast<int>(cell % mtiles);
      const int nt = static_cast<int>(cell / mtiles);
      const int i0 = mt * kMC, mh = std::min(kMC, m - i0);
      const int j0 = nt * kNC, nw = std::min(kNC, n - j0);
      const int mpanels = (mh + kMR - 1) / kMR;
      const int npanels = (nw + kNR - 1) / kNR;

      for (int kt = 0; kt < ktiles; ++kt) {
        const int k0 = kt * kKC;
        const int kc = std::min(kKC, k - k0);
        pack_b(b_panel.data(), k0, kc, j0, nw);
        pack_a(a_panel.data(), i0, mh, k0, kc);
        const bool first = (kt == 0);

        for (int jp = 0; jp < npanels; ++jp) {
          const float* bp = b_panel.data() + static_cast<std::size_t>(jp) * kc * kNR;
          for (int ip = 0; ip < mpanels; ++ip) {
            const float* ap = a_panel.data() + static_cast<std::size_t>(ip) * kc * kMR;
            float acc[kMR * kNR];
            kernel(kc, ap, bp, acc);
            store(i0 + ip * kMR, j0 + jp * kNR, std::min(kMR, mh - ip * kMR),
                  std::min(kNR, nw - jp * kNR), acc, first);
          }
        }
      }
    }
  });
}

/// Packs a row-major B block [k0,k0+kc) x [j0,j0+nw) into NR-interleaved
/// panels (the standard PackB for both gemm and gemm_at).
inline void pack_b_rowmajor(float* dst, const float* b, int ldb, int k0, int kc, int j0,
                            int nw) {
  const int npanels = (nw + kNR - 1) / kNR;
  for (int jp = 0; jp < npanels; ++jp) {
    float* panel = dst + static_cast<std::size_t>(jp) * kc * kNR;
    const int jbase = j0 + jp * kNR;
    const int w = std::min(kNR, j0 + nw - jbase);
    for (int kk = 0; kk < kc; ++kk) {
      const float* src = b + static_cast<std::size_t>(k0 + kk) * ldb + jbase;
      float* out = panel + static_cast<std::size_t>(kk) * kNR;
      for (int c = 0; c < w; ++c) out[c] = src[c];
      for (int c = w; c < kNR; ++c) out[c] = 0.0f;
    }
  }
}

}  // namespace dnnperf::ref::detail
