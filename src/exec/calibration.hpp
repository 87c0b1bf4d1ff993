// Calibration constants for the execution model.
//
// Every constant is either a hardware datum (documented at its definition in
// src/hw) or a value fitted to an anchor the paper reports; the anchor is
// cited next to each fitted constant. EXPERIMENTS.md records how well the
// resulting figures match the paper.
#pragma once

#include "exec/config.hpp"
#include "hw/cpu.hpp"

namespace dnnperf::exec {

struct CpuCalibration {
  // ---- kernel efficiency: fraction of the core's SIMD peak sustained -----
  // refdnn's measured kernels (DESIGN.md §6.1) show the spread these
  // fractions describe, not the fractions themselves: its packed GEMM (no
  // FMA, so every build gives the same bits) is ~20x the historical naive
  // loops and sustains ~0.7 of its own micro-kernel's rate at ResNet-50
  // shapes. mkl_gemm_eff stays an anchor fitted to the paper.
  // Anchor: 5001 img/s for ResNet-152 on 128 Skylake-3 nodes => ~39 img/s
  // per node => ~42% of node fp32 peak end to end (Section VI-D).
  double mkl_conv_eff = 0.78;
  double mkl_gemm_eff = 0.85;
  // Anchor: Skylake-3 is 4.5x faster than EPYC under TF because the AMD
  // system runs the generic (Eigen) path (Section VI-E).
  double generic_conv_eff = 0.38;
  double generic_gemm_eff = 0.44;
  // PyTorch 1.1's CPU convs (im2col + MKL GEMM + THNN glue) exploit far
  // less of an AVX-512 machine's peak than of EPYC's narrower peak.
  // Anchors: PT-SP ResNet-50 = 2.1 img/s on Skylake-3 (Section VI-D);
  // Skylake-3 = 1.5x EPYC for PT ResNet-101; PT = 1.2x TF on 8 EPYC nodes.
  double pytorch_conv_eff_intel = 0.29;
  double pytorch_conv_eff_amd = 0.49;
  double pytorch_gemm_eff_intel = 0.35;
  double pytorch_gemm_eff_amd = 0.55;

  // ---- per-op dispatch overhead, seconds ---------------------------------
  double tf_dispatch_s = 12e-6;       // graph-mode executor per op
  double pytorch_dispatch_s = 70e-6;  // eager Python dispatch per op

  // ---- per-iteration fixed overhead, seconds (session setup, feed, hooks)
  double tf_iteration_fixed_s = 3e-3;
  double pytorch_iteration_fixed_s = 8e-3;

  // ---- intra-op thread scaling --------------------------------------------
  // Amdahl serial fraction of an op's work (im2col setup, tails).
  double serial_fraction = 0.015;
  // Per-op thread fork/join + barrier cost, seconds per demanded thread.
  double sync_cost_s = 0.8e-6;
  // Granularity: parallel efficiency factor W/(W + t*g0) where W is the
  // op's FLOPs and t the demanded threads. Small per-rank batches starve
  // wide thread pools — the BS<->threads interplay of Fig 1.
  double granularity_half_flops = 5e7;
  // MKL-DNN mines at most ~this many independent chunks per image
  // (minibatch x channel blocking); threads beyond batch*chunks idle.
  double chunks_per_image = 2.0;
  // PyTorch 1.1's intra-op pool stops helping early regardless of cores.
  // Anchor: PT-SP ResNet-50 = 2.1 img/s on a 48-core Skylake-3.
  double pytorch_max_effective_threads = 2.8;

  // ---- NUMA ----------------------------------------------------------------
  // A single process's pages live mostly on its first socket (first touch);
  // threads on remote sockets see this share of local bandwidth.
  // Anchor: SP scaling knee at 14 of 28 cores on Skylake-1 (Fig 1a) and the
  // MP-over-SP gains of Fig 6 (up to 1.35x / 1.47x).
  double remote_bw_share = 0.20;
  // Extra time on compute-bound work when a process spans NUMA domains.
  double remote_flop_penalty = 0.30;

  // ---- Horovod background thread -------------------------------------------
  // Slowdown when intra-op threads occupy every core so the Horovod progress
  // thread preempts compute. Anchor: "intra-op = cores/process - 1" guidance
  // (Section IX).
  double horovod_contention = 0.10;

  // ---- memory-bound ops ------------------------------------------------------
  // Achievable fraction of peak DRAM bandwidth for framework memory-bound ops.
  double mem_eff = 0.75;
  // Backward touches activations + gradients: bytes multiplier vs forward.
  double bwd_bytes_factor = 2.0;
};

struct GpuCalibration {
  // Achievable fraction scales with batch: f * BS / (BS + batch_half).
  double batch_half = 6.0;
  // PyTorch's cuDNN path was consistently faster than TF's on GPUs
  // (1.12x on 4 GPUs for ResNet-152, Section VII).
  double pytorch_speed_boost = 1.22;
  double pytorch_dispatch_s = 18e-6;
  double tf_dispatch_s = 8e-6;
  // Per-iteration fixed host-side overhead.
  double iteration_fixed_s = 2e-3;
};

const CpuCalibration& cpu_calibration();
const GpuCalibration& gpu_calibration();

/// Ablation/testing hook: temporarily replaces the global CPU calibration
/// for the lifetime of this object (RAII restore). Not thread-safe: intended
/// for single-threaded ablation benches and tests.
class ScopedCpuCalibration {
 public:
  explicit ScopedCpuCalibration(const CpuCalibration& calibration);
  ~ScopedCpuCalibration();
  ScopedCpuCalibration(const ScopedCpuCalibration&) = delete;
  ScopedCpuCalibration& operator=(const ScopedCpuCalibration&) = delete;

 private:
  CpuCalibration saved_;
};

/// Kernel path selected by a framework build on a CPU (Section IV-B:
/// Intel-optimized TF 1.12 on Intel, stock TF on AMD, PyTorch 1.1).
CpuKernelPath kernel_path(Framework fw, const hw::CpuModel& cpu);

}  // namespace dnnperf::exec
