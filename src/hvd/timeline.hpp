// Discrete-event simulation of data-parallel training iterations driven by a
// Horovod-style engine.
//
// Two simulation modes share one engine loop:
//
//  - Representative-rank mode (sim_ranks == 1, the default): one rank is
//    simulated; rank jitter enters through `straggler_factor`, the
//    expected-max inflation of compute times across the world.
//  - Per-rank mode (sim_ranks > 1): every rank draws its own jitter factor
//    each iteration and has its own crash/rejoin membership, and a gradient
//    becomes globally negotiable only once every alive rank has submitted
//    it — the Min-reduce the real engine computes — so stragglers emerge
//    from the simulation instead of a closed-form factor. Rank r submits
//    tensor k at iter_start + resync + (fixed + fwd + g_k) * stretch * f_r,
//    which is monotone in its factor f_r (rounded multiplication and
//    addition preserve <=). So the last submission of every tensor, and the
//    last end of backward, always belong to the slowest alive rank, and only
//    that rank's submission chain and backward-done event are scheduled.
//    Ranks with equal factors have equal timestamps and back-to-back events,
//    so no other event can fall between them. The reduction is exact (same
//    timestamps, counters and fusion order as one chain per rank) and costs
//    O(ranks) draws plus O(tensors) calendar events per iteration.
//
// The engine's background loop wakes every cycle_time, issues one
// coordination allreduce per wake-up, fuses all negotiated tensors up to the
// fusion threshold, and issues one data allreduce per buffer, overlapping
// with the remaining backward compute. An iteration completes when the
// backward pass is done, every gradient is reduced, and the optimizer has
// run (synchronous SGD).
//
// Every wake-up counts in `engine_wakeups`, idle ones included, but in
// per-rank mode an idle run of them costs one calendar event, not one per
// cycle. When a wake-up finds nothing pending, the ticks t + cycle,
// t + 2 cycle, ... (the same repeated addition the one-per-cycle chain
// makes, so equal to it bit for bit) strictly before the next calendar
// event are counted at once and one wake-up is scheduled at the first tick
// at or after that event. This is exact: only a submission fills the
// pending list, and no event lies between the skipped ticks, so each of
// them would have woken idle. The new wake-up is also inserted after every
// event already in the calendar, as the chain's would have been, so FIFO
// order among events at the same time is unchanged. Busy wake-ups (next
// wake at max(cycle, busy)) and the last counted wake-up after the final
// iteration are not affected. Representative mode keeps one event per
// cycle for now. The same fast-forward would be exact there too, but the
// `advisor_mix` benchmark keeps every novel request and call time it sees,
// so its peak RSS grows with evaluation throughput and a faster
// representative mode pushes it past its memory bound.
#pragma once

#include <cstdint>
#include <optional>

#include "exec/schedule.hpp"
#include "hvd/policy.hpp"
#include "mpi/cost.hpp"

namespace dnnperf::hvd {

/// Fault-scenario schedule for per-rank mode, in iteration granularity (the
/// DES models elastic membership changes at step boundaries — the point the
/// real elastic engine re-forms the ring). Plain structs so core/scenario can
/// parse them from JSON and train::TrainConfig can carry them; the *protocol*
/// legality of crash/rejoin handling is verified separately by the model
/// checker (analysis/verify), and scenario well-formedness by the F-family
/// lint passes.
struct RankSlowdown {
  int rank = 0;
  double factor = 1.0;  ///< multiplies the rank's compute time (straggler)
  int from_step = 0;    ///< first affected iteration (inclusive)
  int to_step = -1;     ///< first unaffected iteration; -1 = rest of the run

  bool operator==(const RankSlowdown&) const = default;
};

struct CrashEvent {
  int rank = 0;
  int step = 0;  ///< the rank is down from this iteration on

  bool operator==(const CrashEvent&) const = default;
};

struct RejoinEvent {
  int rank = 0;
  int step = 0;  ///< the rank is back from this iteration on

  bool operator==(const RejoinEvent&) const = default;
};

struct FaultSchedule {
  std::vector<RankSlowdown> slowdowns;
  std::vector<CrashEvent> crashes;
  std::vector<RejoinEvent> rejoins;
  /// Crash events the operator budgeted for (F003 gates schedules past it).
  int fault_budget = 2;

  bool empty() const { return slowdowns.empty() && crashes.empty() && rejoins.empty(); }
  bool operator==(const FaultSchedule&) const = default;
};

struct TimelineInput {
  double fwd_time = 0.0;            ///< per-iteration forward compute, seconds
  double bwd_time = 0.0;            ///< per-iteration backward compute, seconds
  std::vector<exec::GradEvent> grad_events;  ///< relative to backward start
  double optimizer_time = 0.0;
  double iteration_fixed = 0.0;     ///< per-iteration framework overhead
  int iterations = 3;

  FusionPolicy policy;
  /// Cost model for the communicator; nullptr disables communication
  /// entirely (single-process training).
  const mpi::CollectiveCostModel* cost = nullptr;

  /// Expected-max compute inflation across ranks (>= 1).
  double straggler_factor = 1.0;
  /// Bytes per tensor in the per-cycle coordination allreduce (Horovod
  /// negotiates with a smallish control message per registered tensor).
  double negotiation_bytes_per_tensor = 8.0;
  /// The Horovod progress thread shares a core with compute (no spare
  /// core); each wake-up then steals CPU from the workers.
  bool comm_thread_shares_core = false;
  /// Physical cores owned by one rank; when the progress thread shares a
  /// core it steals roughly one core's worth of time, i.e. a 1/cores slice
  /// of the rank's compute. PyTorch's one-core ranks lose everything during
  /// a wake-up; a 12-core TensorFlow rank barely notices.
  int cores_per_rank = 1;
  /// CPU seconds one wake-up costs the progress thread (MPI polling plus
  /// engine bookkeeping); taxes compute when sharing a core.
  double wakeup_cpu_s = 0.8e-3;
  /// Fraction of the wake-up cost that still reaches compute when the
  /// progress thread has its own core (cache/memory interference).
  double dedicated_tax_share = 0.12;

  /// Ranks simulated explicitly (per-rank mode when > 1; requires a cost
  /// model). Each rank's jitter factor and membership are resolved every
  /// iteration, but only the slowest alive rank's submissions reach the event
  /// calendar (see the header comment), so the calendar's event count and
  /// pool footprint do not grow with this. In per-rank mode
  /// `straggler_factor` should stay 1.0 — jitter is drawn per rank per
  /// iteration from `per_rank_jitter_cv` instead of the closed-form expected
  /// max.
  int sim_ranks = 1;
  /// Coefficient of variation of the per-rank compute factor in per-rank
  /// mode; 0 makes every rank identical (useful for parity tests). Factors
  /// are redrawn every iteration from a generator reseeded by
  /// hash(jitter_seed, step), so straggler patterns vary over time yet stay
  /// fully determined by the input (cache hit ≡ cold miss).
  double per_rank_jitter_cv = 0.0;
  std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ULL;
  /// Crash/rejoin/slowdown schedule; non-empty requires per-rank mode. A
  /// crashed rank submits nothing and the Min-reduce re-forms over the
  /// survivors (a tensor becomes negotiable when every *alive* rank has
  /// submitted it); each membership change charges one engine cycle plus a
  /// full-tensor-list negotiation allreduce for the ring re-form.
  FaultSchedule faults;
  /// Price data allreduces with the staged hierarchical plan
  /// (CollectiveCostModel::staged_allreduce_time) instead of the flat Auto
  /// policy. Negotiation stays on recursive doubling either way.
  bool hierarchical_allreduce = false;
  /// Per-rank mode with tracing enabled emits one virtual "compute" span per
  /// rank per iteration on a "sim rank N" track; this caps how many ranks
  /// get their own track so a 16k-rank sweep cannot swamp the document.
  int trace_rank_limit = 4096;
};

struct TimelineResult {
  double total_time = 0.0;
  double per_iteration = 0.0;
  CommStats stats;
  /// Fraction of per-iteration time not overlapped with compute.
  double comm_exposed_fraction = 0.0;
  /// Virtual seconds the engine spent busy (negotiation + data allreduces)
  /// over the whole run; with the exposed total this yields the
  /// compute-communication overlap fraction the profiler reports.
  double comm_busy_total = 0.0;
  /// Calendar totals of the underlying sim::Engine: events that ran through
  /// the slab pool, and the pool's high-water slot count (its resident
  /// footprint — slots are reused, so this stays near the in-flight peak).
  std::uint64_t events_processed = 0;
  std::uint64_t pool_slots = 0;
  /// Per-iteration wall time and contributing (alive) rank count, in step
  /// order — what scenario throughput accounting and crash-recovery asserts
  /// consume. In representative mode alive == sim_ranks every step.
  std::vector<double> iteration_seconds;
  std::vector<int> iteration_alive_ranks;
  /// Membership-set changes after the first iteration (each charged a ring
  /// re-form: one engine cycle + one negotiation allreduce).
  std::uint64_t membership_changes = 0;
};

/// Runs the event simulation. Deterministic.
TimelineResult simulate_training(const TimelineInput& input);

}  // namespace dnnperf::hvd
