// Horovod engine tuning knobs and profiling counters.
//
// The paper's custom profiling (Section VIII) splits Allreduce calls into
// those requested by the DL framework (one per gradient tensor per
// iteration) and those actually issued by the Horovod Engine's background
// cycle loop (one coordination allreduce per cycle wake-up plus one data
// allreduce per fused buffer). CommStats reproduces those counters.
#pragma once

#include <cstdint>

#include "util/metrics.hpp"

namespace dnnperf::hvd {

struct FusionPolicy {
  /// HOROVOD_CYCLE_TIME: period of the background progress loop, seconds.
  /// Horovod's default is 3.5 ms.
  double cycle_time_s = 3.5e-3;
  /// HOROVOD_FUSION_THRESHOLD: max bytes packed into one fusion buffer.
  /// Horovod's default is 64 MiB.
  double fusion_threshold_bytes = 64.0 * 1024 * 1024;

  void validate() const;
};

struct CommStats {
  /// Gradient tensors the framework handed to Horovod (requests).
  std::uint64_t framework_requests = 0;
  /// Engine cycle wake-ups; each issues one small coordination allreduce.
  std::uint64_t engine_wakeups = 0;
  /// Data allreduces actually issued (one per fused buffer).
  std::uint64_t data_allreduces = 0;
  /// Total engine-issued allreduce operations (coordination + data) —
  /// the "Allreduce called by Horovod Engine" series of Figs 18/19.
  std::uint64_t engine_allreduces() const { return engine_wakeups + data_allreduces; }
  double bytes_reduced = 0.0;

  CommStats& operator+=(const CommStats& other);
};

/// Registry names for the engine counters (shared by RealEngine, TimelineSim,
/// figures_profiling, and the metrics tests — one spelling, no drift).
namespace metric_names {
inline constexpr const char* kRequested = "hvd_allreduce_requested_total";
inline constexpr const char* kIssued = "hvd_allreduce_issued_total";
inline constexpr const char* kCycles = "hvd_engine_cycles_total";
inline constexpr const char* kFusionBytes = "hvd_fusion_bytes_total";
inline constexpr const char* kFusionUtil = "hvd_fusion_buffer_utilization";
inline constexpr const char* kCycleTime = "hvd_cycle_time";
}  // namespace metric_names

/// The single publication path for the paper's Sec. VIII counters: every
/// increment lands in the local CommStats struct *and* the corresponding
/// registry metric in one call, so the struct consumers (figures, tests) and
/// the registry consumers (exporters, dnnperf_metrics) can never disagree.
/// Used by both hvd::RealEngine (thread-parallel ranks) and hvd::TimelineSim
/// (the DES model). Registry writes are no-ops unless metrics are enabled.
class EngineCounters {
 public:
  EngineCounters();

  void on_framework_request(std::uint64_t n = 1);
  /// `n` engine cycle wake-ups (each always issues one coordination
  /// allreduce); the DES counts a fast-forwarded run of idle cycles at once.
  void on_engine_wakeup(std::uint64_t n = 1);
  /// One fused-buffer data allreduce of `bytes`, with the fill fraction of
  /// the fusion buffer it shipped (bytes / fusion_threshold, capped at 1).
  void on_data_allreduce(double bytes, double fill_ratio);
  /// Wall (or virtual) duration of one busy engine cycle, seconds.
  void on_cycle_time(double seconds);

  const CommStats& stats() const { return stats_; }
  CommStats& stats() { return stats_; }

 private:
  CommStats stats_;
  util::metrics::Counter requested_;
  util::metrics::Counter issued_;
  util::metrics::Counter cycles_;
  util::metrics::Counter fusion_bytes_;
  util::metrics::Gauge fusion_util_;
  util::metrics::Histogram cycle_time_;
};

}  // namespace dnnperf::hvd
