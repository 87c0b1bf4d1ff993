#include "train/real_trainer.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "hvd/real_engine.hpp"
#include "mpi/collectives.hpp"
#include "mpi/world.hpp"
#include "ref/kernels.hpp"
#include "ref/network.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace dnnperf::train {

namespace {

/// Seconds elapsed on the steady clock since `t0`.
double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Per-step phase timers + throughput, published alongside PhaseTimes so the
/// printed tables and the exported snapshots come from the same samples.
struct TrainMetrics {
  util::metrics::Histogram input = util::metrics::histogram(
      "train_step_input_seconds", "Synthesis of this rank's shard per step, seconds");
  util::metrics::Histogram forward = util::metrics::histogram(
      "train_step_forward_seconds", "Forward pass + loss per step, seconds");
  util::metrics::Histogram backward = util::metrics::histogram(
      "train_step_backward_seconds", "Backpropagation per step, seconds");
  util::metrics::Histogram exchange = util::metrics::histogram(
      "train_step_exchange_seconds", "Exposed gradient exchange per step, seconds");
  util::metrics::Histogram optimizer = util::metrics::histogram(
      "train_step_optimizer_seconds", "SGD parameter update per step, seconds");
  util::metrics::Counter images =
      util::metrics::counter("train_images_total", "Images processed (this rank)");
  util::metrics::Gauge rate = util::metrics::gauge(
      "train_images_per_sec", "Global images/sec of the most recent training run");
};

const TrainMetrics& train_metrics() {
  static const TrainMetrics m;
  return m;
}

/// One measured region of a training step: a trace span plus one clock
/// sample, added to both the PhaseTimes stats and the registry histogram so
/// the printed tables and the exported snapshots agree exactly. A
/// default-constructed Histogram is unregistered, so `hist` may be omitted.
class Phase {
 public:
  Phase(const char* name, util::RunStats& stats, util::metrics::Histogram hist = {})
      : span("train", name), stats_(stats), hist_(hist) {}
  ~Phase() {
    const double dt = since(start_);
    stats_.add(dt);
    hist_.observe(dt);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  util::trace::ScopedSpan span;  ///< opened first, so it encloses the sample

 private:
  util::RunStats& stats_;
  util::metrics::Histogram hist_;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

void check(const RealTrainConfig& cfg) {
  if (cfg.ranks <= 0 || cfg.batch_per_rank <= 0 || cfg.steps <= 0)
    throw std::invalid_argument("RealTrainConfig: non-positive size");
  if (cfg.threads_per_rank <= 0)
    throw std::invalid_argument("RealTrainConfig: threads_per_rank <= 0");
  if (cfg.ranks_per_node < 0 || (cfg.ranks_per_node > 0 && cfg.ranks % cfg.ranks_per_node != 0))
    throw std::invalid_argument("RealTrainConfig: ranks_per_node must divide ranks");
  cfg.policy.validate();
}

std::vector<float> flatten_params(ref::Network& net) {
  std::vector<float> out;
  for (const auto& p : net.params())
    out.insert(out.end(), p.value->flat().begin(), p.value->flat().end());
  return out;
}

}  // namespace

RealTrainResult run_real_training(const RealTrainConfig& cfg) {
  check(cfg);
  RealTrainResult result;
  const int global_batch = cfg.ranks * cfg.batch_per_rank;

  mpi::World::run(cfg.ranks, [&](mpi::Comm& comm) {
    util::trace::set_thread_name("rank " + std::to_string(comm.rank()));
    ref::ThreadPool pool(cfg.threads_per_rank);
    util::Rng init_rng(cfg.seed);  // identical initialization on every rank
    ref::Network net =
        ref::make_tiny_cnn(cfg.channels, cfg.image_size, cfg.classes, pool, init_rng, cfg.batch_norm);
    auto params = net.params();

    // A single rank has nothing to exchange: no engine, no loss allreduce.
    std::optional<hvd::RealEngine> engine;
    std::vector<int> tensor_ids;
    if (cfg.ranks > 1) {
      engine.emplace(comm, cfg.policy, cfg.ranks_per_node);
      tensor_ids.reserve(params.size());
      for (const auto& p : params)
        tensor_ids.push_back(engine->register_tensor(p.name, p.grad->size()));
    }

    ref::SgdOptimizer sgd(cfg.learning_rate);
    std::vector<float> losses;
    losses.reserve(static_cast<std::size_t>(cfg.steps));
    PhaseTimes phases;
    const TrainMetrics& tm = train_metrics();
    // Kept across steps so their buffers are reused.
    ref::SyntheticBatch shard;
    ref::Tensor dlogits;
    const auto loop_start = std::chrono::steady_clock::now();

    for (int step = 0; step < cfg.steps; ++step) {
      Phase step_phase("step", phases.step);
      if (step_phase.span.active())
        step_phase.span.set_args(std::move(util::trace::Args().add("step", step)).str());
      // This rank's shard of the step's global batch, and nothing else.
      {
        Phase phase("input", phases.input, tm.input);
        ref::synthetic_batch(cfg.seed + 1, step, comm.rank() * cfg.batch_per_rank,
                             cfg.batch_per_rank, cfg.channels, cfg.image_size, cfg.classes, pool,
                             shard);
      }

      // The train_step of ref::Network, phase by phase so each can be timed.
      float loss;
      {
        Phase phase("forward", phases.forward, tm.forward);
        loss = ref::softmax_xent(net.forward(shard.images), shard.labels, dlogits);
      }
      {
        Phase phase("backward", phases.backward, tm.backward);
        net.backward(dlogits);
      }

      // Hand each gradient to the engine as backward produced it and run
      // engine cycles until all are averaged across ranks.
      if (engine) {
        Phase phase("exchange", phases.exchange, tm.exchange);
        for (std::size_t i = 0; i < params.size(); ++i)
          engine->submit(tensor_ids[i], params[i].grad->flat());
        engine->synchronize();
      }

      {
        Phase phase("optimizer", phases.optimizer, tm.optimizer);
        sgd.step(params);
      }
      tm.images.inc(static_cast<std::uint64_t>(cfg.batch_per_rank));
      losses.push_back(loss);
    }

    // Sum every step's loss over ranks in one allreduce, as the reference
    // benchmarks log the loss only now and then. Recursive doubling at any
    // length adds each element in the same order as a one-float allreduce.
    if (engine) {
      DNNPERF_TRACE_SPAN("train", "loss.allreduce");
      mpi::allreduce(comm, std::span<float>(losses), mpi::ReduceOp::Sum,
                     mpi::AllreduceAlgo::RecursiveDoubling);
    }
    for (float& l : losses) l /= static_cast<float>(cfg.ranks);

    if (comm.rank() == 0) {
      result.losses = std::move(losses);
      if (engine) result.comm = engine->stats();
      result.phases = phases;
      result.parameters = net.num_parameters();
      result.final_params = flatten_params(net);
      result.wall_seconds = since(loop_start);
      result.images_per_sec =
          result.wall_seconds > 0.0
              ? static_cast<double>(global_batch) * cfg.steps / result.wall_seconds
              : 0.0;
      tm.rate.set(result.images_per_sec);
    }
  });
  return result;
}

RealTrainResult run_real_training_single(const RealTrainConfig& cfg) {
  check(cfg);
  RealTrainConfig single = cfg;
  single.batch_per_rank = cfg.ranks * cfg.batch_per_rank;
  single.ranks = 1;
  single.ranks_per_node = 0;
  return run_real_training(single);
}

}  // namespace dnnperf::train
