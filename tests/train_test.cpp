#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "hw/platforms.hpp"
#include "train/real_trainer.hpp"
#include "train/trainer.hpp"
#include "util/metrics.hpp"

namespace dnnperf::train {
namespace {

TrainConfig skx3(dnn::ModelId model = dnn::ModelId::ResNet50) {
  TrainConfig cfg;
  cfg.cluster = hw::stampede2();
  cfg.model = model;
  cfg.ppn = 4;
  cfg.batch_per_rank = 64;
  return cfg;
}

// ---------------------------------------------------------------------------
// Simulated trainer
// ---------------------------------------------------------------------------

TEST(Trainer, DeterministicAcrossCalls) {
  const auto a = run_training(skx3());
  const auto b = run_training(skx3());
  EXPECT_DOUBLE_EQ(a.images_per_sec, b.images_per_sec);
}

TEST(Trainer, ResolvesPaperThreadRules) {
  // MP with Horovod: intra = cores/ppn - 1, inter = 2 on SMT Skylake-3.
  const auto mp = run_training(skx3());
  EXPECT_EQ(mp.resolved_intra, 11);
  EXPECT_EQ(mp.resolved_inter, 2);

  // PyTorch: one op at a time, pool = its core share.
  auto pt = skx3();
  pt.framework = exec::Framework::PyTorch;
  pt.ppn = 48;
  pt.batch_per_rank = 16;
  const auto r = run_training(pt);
  EXPECT_EQ(r.resolved_intra, 1);
  EXPECT_EQ(r.resolved_inter, 1);
}

TEST(Trainer, MultiProcessBeatsSingleProcess) {
  auto sp = skx3(dnn::ModelId::ResNet152);
  sp.ppn = 1;
  sp.use_horovod = false;
  sp.batch_per_rank = 256;
  auto mp = skx3(dnn::ModelId::ResNet152);
  const double ratio = run_training(mp).images_per_sec / run_training(sp).images_per_sec;
  EXPECT_GT(ratio, 1.2);  // paper: up to 1.35x for ResNet-152
  EXPECT_LT(ratio, 1.8);
}

TEST(Trainer, SpeedupIsSublinearButHigh) {
  for (int nodes : {2, 8, 32}) {
    auto cfg = skx3(dnn::ModelId::ResNet152);
    cfg.nodes = nodes;
    const double s = speedup_vs_single_node(cfg);
    EXPECT_GT(s, 0.85 * nodes) << nodes;
    EXPECT_LE(s, nodes * 1.001) << nodes;
  }
}

TEST(Trainer, EffectiveBatchAndWorldSize) {
  auto cfg = skx3();
  cfg.nodes = 4;
  const auto r = run_training(cfg);
  EXPECT_EQ(r.world_size, 16);
  EXPECT_EQ(r.effective_batch, 16 * 64);
  EXPECT_GT(r.comm.framework_requests, 0u);
  EXPECT_GT(r.comm.engine_allreduces(), 0u);
}

TEST(Trainer, GpuRunUsesGpuModel) {
  TrainConfig cfg;
  cfg.cluster = hw::pitzer_v100();
  cfg.device = DeviceKind::Gpu;
  cfg.ppn = 1;
  cfg.use_horovod = false;
  cfg.batch_per_rank = 64;
  const auto v100 = run_training(cfg);
  cfg.cluster = hw::ri2_k80();
  cfg.batch_per_rank = 32;
  const auto k80 = run_training(cfg);
  EXPECT_GT(v100.images_per_sec, 3.0 * k80.images_per_sec);
}

TEST(Trainer, ValidationErrors) {
  auto cfg = skx3();
  cfg.nodes = 1000;  // exceeds cluster
  EXPECT_THROW(run_training(cfg), std::invalid_argument);

  cfg = skx3();
  cfg.ppn = 4;
  cfg.use_horovod = false;  // multi-rank without Horovod
  EXPECT_THROW(run_training(cfg), std::invalid_argument);

  cfg = skx3();
  cfg.device = DeviceKind::Gpu;  // Stampede2 has no GPUs
  EXPECT_THROW(run_training(cfg), std::invalid_argument);

  cfg = skx3();
  cfg.batch_per_rank = 0;
  EXPECT_THROW(run_training(cfg), std::invalid_argument);

  TrainConfig gpu;
  gpu.cluster = hw::pitzer_v100();
  gpu.device = DeviceKind::Gpu;
  gpu.ppn = 3;  // only 2 GPUs per node
  EXPECT_THROW(run_training(gpu), std::invalid_argument);
}


TEST(Trainer, MemoryValidationRejectsOversizedBatches) {
  // A K80 logical GPU has 12 GB; Inception-v4 at batch 128 cannot fit under
  // the conservative footprint model.
  TrainConfig gpu;
  gpu.cluster = hw::ri2_k80();
  gpu.device = DeviceKind::Gpu;
  gpu.model = dnn::ModelId::InceptionV4;
  gpu.ppn = 1;
  gpu.use_horovod = false;
  gpu.batch_per_rank = 128;
  gpu.validate_memory = true;
  EXPECT_THROW(run_training(gpu), std::invalid_argument);
  gpu.batch_per_rank = 8;
  EXPECT_NO_THROW(run_training(gpu));
  gpu.validate_memory = false;
  gpu.batch_per_rank = 128;
  EXPECT_NO_THROW(run_training(gpu));  // opt-out still simulates
}

TEST(Trainer, MemoryValidationScalesWithPpn) {
  // 8 replicas of ResNet-152 at batch 128 exceed a 192 GB node.
  auto cfg = skx3(dnn::ModelId::ResNet152);
  cfg.ppn = 8;
  cfg.batch_per_rank = 128;
  cfg.validate_memory = true;
  EXPECT_THROW(run_training(cfg), std::invalid_argument);
  cfg.batch_per_rank = 16;
  EXPECT_NO_THROW(run_training(cfg));
}

TEST(Trainer, JitterRaisesIterationTimeAtScale) {
  auto quiet = skx3(dnn::ModelId::ResNet152);
  quiet.nodes = 64;
  quiet.jitter_cv = 0.0;
  auto noisy = quiet;
  noisy.jitter_cv = 0.05;
  EXPECT_GT(run_training(quiet).images_per_sec, run_training(noisy).images_per_sec);
}

// ---------------------------------------------------------------------------
// RealTrainer: actual data-parallel SGD over minimpi + hvd::RealEngine
// ---------------------------------------------------------------------------

class RealRanksParam : public ::testing::TestWithParam<int> {};

TEST_P(RealRanksParam, DataParallelMatchesSingleProcess) {
  RealTrainConfig cfg;
  cfg.ranks = GetParam();
  cfg.batch_per_rank = 8 / GetParam();
  if (cfg.batch_per_rank == 0) GTEST_SKIP();
  cfg.steps = 3;
  cfg.batch_norm = false;  // BN statistics are per-shard; exact match needs no-BN

  const auto mp = run_real_training(cfg);
  const auto sp = run_real_training_single(cfg);

  ASSERT_EQ(mp.final_params.size(), sp.final_params.size());
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < mp.final_params.size(); ++i)
    max_diff = std::max(max_diff, std::fabs(mp.final_params[i] - sp.final_params[i]));
  EXPECT_LT(max_diff, 5e-4f) << "MP parameter trajectory diverged from SP";

  ASSERT_EQ(mp.losses.size(), sp.losses.size());
  for (std::size_t s = 0; s < mp.losses.size(); ++s)
    EXPECT_NEAR(mp.losses[s], sp.losses[s], 5e-3f) << "step " << s;
}

INSTANTIATE_TEST_SUITE_P(Ranks, RealRanksParam, ::testing::Values(1, 2, 4, 8));

TEST(RealTrainer, LossDecreasesWithBatchNorm) {
  RealTrainConfig cfg;
  cfg.ranks = 2;
  cfg.batch_per_rank = 8;
  cfg.steps = 12;
  cfg.batch_norm = true;
  cfg.learning_rate = 0.1f;
  const auto r = run_real_training(cfg);
  EXPECT_LT(r.losses.back(), r.losses.front());
}

TEST(RealTrainer, FusionPolicyDoesNotChangeResults) {
  RealTrainConfig tiny;
  tiny.ranks = 3;
  tiny.batch_per_rank = 4;
  tiny.steps = 2;
  tiny.policy.fusion_threshold_bytes = 8.0;  // no fusion
  RealTrainConfig fused = tiny;
  fused.policy.fusion_threshold_bytes = 64.0 * 1024 * 1024;

  const auto a = run_real_training(tiny);
  const auto b = run_real_training(fused);
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i)
    ASSERT_NEAR(a.final_params[i], b.final_params[i], 1e-6f);
  // ...but the engine issues far fewer data allreduces when fusing.
  EXPECT_GT(a.comm.data_allreduces, b.comm.data_allreduces);
}

TEST(RealTrainer, CommCountersMatchProtocol) {
  RealTrainConfig cfg;
  cfg.ranks = 2;
  cfg.batch_per_rank = 4;
  cfg.steps = 3;
  const auto r = run_real_training(cfg);
  // 6 parameter tensors (no BN) x 3 steps.
  EXPECT_EQ(r.comm.framework_requests, 18u);
  EXPECT_GE(r.comm.engine_wakeups, 3u);
  EXPECT_GT(r.comm.bytes_reduced, 0.0);
  EXPECT_EQ(r.parameters, r.final_params.size());
}


TEST(RealTrainer, HierarchicalExchangeMatchesFlat) {
  RealTrainConfig flat;
  flat.ranks = 4;
  flat.batch_per_rank = 2;
  flat.steps = 2;
  RealTrainConfig hier = flat;
  hier.ranks_per_node = 2;  // 2 "nodes" of 2 ranks
  const auto a = run_real_training(flat);
  const auto b = run_real_training(hier);
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i)
    ASSERT_NEAR(a.final_params[i], b.final_params[i], 1e-5f);
  RealTrainConfig bad = flat;
  bad.ranks_per_node = 3;
  EXPECT_THROW(run_real_training(bad), std::invalid_argument);
}

TEST(RealTrainer, PhaseAccountingReconcilesWithStepTime) {
  // The five phase timers partition the loop body the step timer brackets:
  // their sum must reconcile with the measured wall step time. The slack
  // budget covers loop bookkeeping between phases and timer overhead — the
  // same invariant the profiler's T001 check enforces on recorded traces at
  // 5%.
  RealTrainConfig cfg;
  cfg.ranks = 2;
  cfg.batch_per_rank = 4;
  cfg.steps = 4;
  for (const auto& r : {run_real_training(cfg), run_real_training_single(cfg)}) {
    const double step = r.phases.step.mean();
    const double attributed = r.phases.input.mean() + r.phases.forward.mean() +
                              r.phases.backward.mean() + r.phases.exchange.mean() +
                              r.phases.optimizer.mean();
    ASSERT_GT(step, 0.0);
    EXPECT_EQ(r.phases.step.count(), static_cast<std::size_t>(cfg.steps));
    EXPECT_LE(attributed, step * 1.0001 + 1e-6);  // phases cannot exceed the step
    EXPECT_GE(attributed, step * 0.85 - 200e-6)
        << "unattributed step time: step " << step << " s vs phases " << attributed << " s";
  }
}

// FNV-1a over the bit patterns of a parameter vector.
std::uint64_t param_bits_hash(const std::vector<float>& params) {
  std::uint64_t h = 1469598103934665603ull;
  for (const float f : params) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct GoldenRun {
  const char* what;
  bool single;  ///< run_real_training_single instead of run_real_training
  RealTrainConfig cfg;
  std::vector<float> losses;
  std::uint64_t params_hash;
};

RealTrainConfig compute_shape() {  // the bench suite's train_compute config
  RealTrainConfig cfg;
  cfg.ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.batch_per_rank = 32;
  cfg.image_size = 32;
  cfg.steps = 2;
  return cfg;
}

TEST(RealTrainer, ThreadCountDoesNotChangeBits) {
  // No kernel's sums depend on how its work was split over intra-op
  // threads, so the thread count must not move a single parameter bit.
  for (int ranks : {1, 2}) {
    std::uint64_t first_hash = 0;
    for (int threads : {1, 2, 3}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) + " threads=" + std::to_string(threads));
      RealTrainConfig cfg = compute_shape();
      cfg.ranks = ranks;
      cfg.threads_per_rank = threads;
      const std::uint64_t hash = param_bits_hash(run_real_training(cfg).final_params);
      if (threads == 1)
        first_hash = hash;
      else
        EXPECT_EQ(hash, first_hash);
    }
  }
}

TEST(RealTrainer, GoldenLossesAndParametersAreBitExact) {
  // Exact losses and a hash of the exact final parameters, SP and 2-rank MP,
  // on the default and the train_compute shapes: refactors of the training
  // loop and the kernels must not move a single bit. The micro-kernels round
  // every product and the build forbids FMA contraction, so this one table
  // holds for the default and the -march=native build alike.
  const GoldenRun runs[] = {
      {"default MP", false, RealTrainConfig{}, {0x1.c1242cp+1f, 0x1.ad47fp+0f, 0x1.59ab02p+0f},
       0x6ff97c8137b55eb3ull},
      {"default SP", true, RealTrainConfig{}, {0x1.c1242cp+1f, 0x1.ad47ecp+0f, 0x1.59ab02p+0f},
       0x22dda8134c0a00d9ull},
      {"compute MP", false, compute_shape(), {0x1.adf3ccp+2f, 0x1.ebb25p+0f},
       0xe9c9af7b57f74211ull},
      {"compute SP", true, compute_shape(), {0x1.adf3ccp+2f, 0x1.ebb254p+0f},
       0x1f61b7bc59edd4c1ull},
  };
  for (const auto& g : runs) {
    SCOPED_TRACE(g.what);
    const auto r = g.single ? run_real_training_single(g.cfg) : run_real_training(g.cfg);
    ASSERT_EQ(r.losses.size(), g.losses.size());
    for (std::size_t s = 0; s < g.losses.size(); ++s)
      EXPECT_EQ(r.losses[s], g.losses[s]) << "step " << s;
    EXPECT_EQ(r.final_params.size(), 1460u);
    EXPECT_EQ(param_bits_hash(r.final_params), g.params_hash);
  }
}

TEST(RealTrainer, StepsAfterTheFirstAllocateNoTensors) {
  // The trainer keeps the shard and the logit gradient across steps and the
  // network reuses its buffers, so a 4-step run allocates exactly as much
  // Tensor storage as a 1-step run.
#if !DNNPERF_METRICS_ENABLED
  GTEST_SKIP() << "metrics recording compiled out";
#endif
  RealTrainConfig cfg;
  cfg.ranks = 2;
  cfg.batch_per_rank = 4;
  cfg.image_size = 8;
  const auto allocations = [&](int steps) {
    util::metrics::reset();
    util::metrics::set_enabled(true);
    cfg.steps = steps;
    (void)run_real_training(cfg);
    const auto snap = util::metrics::snapshot();
    const auto* m = snap.find("ref_tensor_allocations_total");
    const std::uint64_t count = m == nullptr ? 0 : m->count;
    util::metrics::set_enabled(false);
    util::metrics::reset();
    return count;
  };
  const std::uint64_t one_step = allocations(1);
  EXPECT_GT(one_step, 0u);
  EXPECT_EQ(allocations(4), one_step);
}

TEST(RealTrainer, RejectsBadConfig) {
  RealTrainConfig cfg;
  cfg.ranks = 0;
  EXPECT_THROW(run_real_training(cfg), std::invalid_argument);
  cfg = RealTrainConfig{};
  cfg.steps = 0;
  EXPECT_THROW(run_real_training_single(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace dnnperf::train
