// RealTrainer: actually trains a small CNN with synchronous data parallelism
// — rank threads (minimpi), a Horovod-style fusion engine (hvd::RealEngine),
// and real SGD on refdnn tensors.
//
// This validates the semantics every simulated experiment assumes: sharded
// data + gradient averaging is equivalent to single-process training on the
// combined batch, independent of rank count and fusion policy. There is one
// training loop: single-process (SP) training is the same loop at one rank,
// which builds no engine and exchanges nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "hvd/policy.hpp"
#include "util/stats.hpp"

namespace dnnperf::train {

struct RealTrainConfig {
  int ranks = 2;            ///< data-parallel workers (threads)
  int batch_per_rank = 4;
  int steps = 3;
  int image_size = 8;
  int channels = 3;
  int classes = 4;
  float learning_rate = 0.05f;
  bool batch_norm = false;  ///< BN breaks exact SP==MP equivalence (per-shard stats)
  std::uint64_t seed = 42;
  int threads_per_rank = 1;  ///< intra-op threads in each rank's pool
  /// > 0: hierarchical gradient exchange with this many ranks per "node".
  int ranks_per_node = 0;
  hvd::FusionPolicy policy;
};

/// Wall-clock per-step phase breakdown (seconds), one sample per step. This
/// is the executable analogue of the fwd/bwd/comm/opt decomposition the
/// timeline simulator takes as input: `exchange` is the time the framework
/// thread is blocked on gradient exchange, i.e. the *exposed* communication.
/// Each sample is the one clock reading that also feeds the phase's trace
/// span and its `train_step_<phase>_seconds` histogram.
struct PhaseTimes {
  util::RunStats input;      ///< synthesis of this rank's shard only
  util::RunStats forward;    ///< forward pass + loss/gradient at the head
  util::RunStats backward;   ///< backpropagation through all layers
  util::RunStats exchange;   ///< submit + engine synchronize + loss allreduce; empty at 1 rank
  util::RunStats optimizer;  ///< SGD parameter update
  /// Whole-step wall time, sampled around the same loop body the phase
  /// timers partition — input+forward+backward+exchange+optimizer must
  /// reconcile with this within a small tolerance (the profiler's T001
  /// check enforces the same invariant on recorded traces).
  util::RunStats step;
};

struct RealTrainResult {
  std::vector<float> losses;  ///< global mean loss per step
  hvd::CommStats comm;        ///< rank-0 engine counters
  PhaseTimes phases;          ///< rank-0 per-step phase timings (seconds)
  std::size_t parameters = 0;
  std::vector<float> final_params;  ///< rank-0 flattened parameters after training
  double wall_seconds = 0.0;        ///< training-loop wall time (rank 0)
  double images_per_sec = 0.0;      ///< global images processed / wall_seconds
};

/// Multi-process (MP) training: `ranks` workers, per-rank batch, Horovod-style
/// gradient averaging each step. With `ranks == 1` no engine is built and no
/// exchange phase is recorded (comm stays zero).
RealTrainResult run_real_training(const RealTrainConfig& config);

/// Single-process (SP) reference: run_real_training with one rank on the
/// combined batch (ranks * batch_per_rank). Produces the same parameter
/// trajectory as MP.
RealTrainResult run_real_training_single(const RealTrainConfig& config);

}  // namespace dnnperf::train
