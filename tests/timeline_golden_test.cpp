// Golden exactness of the per-rank DES at 1024+ ranks, with and without
// faults. The per-rank mode reduces each tensor's Min-reduce to the slowest
// alive rank's submission chain (see hvd/timeline.hpp); these hexfloats were
// captured from the earlier formulation that ran one chain per rank, so any
// drift in a virtual timestamp, a counter or the membership accounting
// fails bit-for-bit here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hw/platforms.hpp"
#include "train/trainer.hpp"

namespace {

using namespace dnnperf;

struct Golden {
  double per_iteration_s;
  std::vector<double> iteration_seconds;
  std::uint64_t engine_wakeups;
  std::uint64_t data_allreduces;
  double bytes_reduced;
  std::uint64_t membership_changes;
};

/// ResNet-50 on Stampede2, every rank simulated explicitly.
train::TrainConfig per_rank_config(exec::Framework fw, int nodes, int ppn,
                                   train::CommHierarchy hierarchy) {
  train::TrainConfig cfg;
  cfg.cluster = hw::stampede2();
  cfg.cluster.max_nodes = std::max(cfg.cluster.max_nodes, nodes);
  cfg.model = dnn::ModelId::ResNet50;
  cfg.framework = fw;
  cfg.nodes = nodes;
  cfg.ppn = ppn;
  cfg.iterations = 3;
  cfg.per_rank_sim = true;
  cfg.hierarchy = hierarchy;
  return cfg;
}

/// The des_scale benchmark config: TensorFlow, 64 x 16 = 1024 ranks.
train::TrainConfig des_scale_config() {
  return per_rank_config(exec::Framework::TensorFlow, 64, 16, train::CommHierarchy::TwoLevel);
}

void expect_golden(const train::TrainConfig& cfg, const Golden& g) {
  const train::TrainResult r = train::run_training(cfg);
  EXPECT_EQ(r.per_iteration_s, g.per_iteration_s);
  EXPECT_EQ(r.iteration_seconds, g.iteration_seconds);
  EXPECT_EQ(r.comm.engine_wakeups, g.engine_wakeups);
  EXPECT_EQ(r.comm.data_allreduces, g.data_allreduces);
  EXPECT_EQ(r.comm.bytes_reduced, g.bytes_reduced);
  EXPECT_EQ(r.membership_changes, g.membership_changes);
}

TEST(PerRankGolden, DesScaleHealthy) {
  expect_golden(des_scale_config(),
                {0x1.7e94c8e551131p+3,
                 {0x1.7f55cc7ab8e03p+3, 0x1.7f98b8338695dp+3, 0x1.7ccfd601b3c34p+3},
                 10248u, 306u, 0x1.247a1ep+28, 0u});
}

TEST(PerRankGolden, DesScaleCrashRejoin) {
  auto cfg = des_scale_config();
  cfg.faults.crashes.push_back({517, 1});
  cfg.faults.rejoins.push_back({517, 2});
  expect_golden(cfg, {0x1.7ea80074f98abp+3,
                      {0x1.7f55cc7ab8e03p+3, 0x1.7fb58b8b03493p+3, 0x1.7ceca9593076ap+3},
                      10250u, 306u, 0x1.247a1ep+28, 2u});
}

TEST(PerRankGolden, PyTorchThreeLevelSlowdownAndCrash) {
  auto cfg = per_rank_config(exec::Framework::PyTorch, 64, 48, train::CommHierarchy::ThreeLevel);
  cfg.iterations = 4;
  cfg.jitter_cv = 0.3;
  cfg.faults.slowdowns.push_back({1000, 2.0, 1, 3});
  cfg.faults.crashes.push_back({2047, 2});
  expect_golden(cfg, {0x1.4d5b24adad34p+7,
                      {0x1.3d2425885eb96p+7, 0x1.2f3ee49846c54p+7, 0x1.a149ecd92cb3ep+7,
                       0x1.27bf9bbce29d8p+7},
                      190490u, 428u, 0x1.85f828p+28, 1u});
}

TEST(PerRankGolden, FlatFourThousandRanksWithJitter) {
  auto cfg = per_rank_config(exec::Framework::TensorFlow, 256, 16, train::CommHierarchy::Flat);
  cfg.jitter_cv = 0.08;
  expect_golden(cfg, {0x1.d17bbf912263bp+3,
                      {0x1.d48f88758fc1cp+3, 0x1.cb8aea2f3c64p+3, 0x1.d458cc0e9b054p+3},
                      12460u, 306u, 0x1.247a1ep+28, 0u});
}

}  // namespace
