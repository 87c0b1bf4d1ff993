// Tests for the advisor query engine (§6.6): the content-addressed
// EvalCache (hit == miss determinism, key uniqueness, bounded eviction), the
// memoized lint gate, AdvisorService request validation (A-codes), batching
// semantics, and thread-safety of concurrent ask()/ask_many() — the
// *Concurrent* fixtures run under the tsan preset's test filter.
#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyze.hpp"
#include "core/advisor_service.hpp"
#include "core/eval_cache.hpp"
#include "hw/platforms.hpp"
#include "train/trainer.hpp"
#include "util/metrics.hpp"

namespace {

using namespace dnnperf;

core::AdvisorRequest small_request() {
  core::AdvisorRequest req;
  req.cluster = hw::stampede2();
  req.nodes = 2;
  req.batch_candidates = {32, 64};
  req.ppn_candidates = {4, 8};
  return req;
}

void expect_same_best(const core::Recommendation& a, const core::Recommendation& b) {
  EXPECT_DOUBLE_EQ(a.images_per_sec, b.images_per_sec);
  EXPECT_EQ(a.best.ppn, b.best.ppn);
  EXPECT_EQ(a.best.nodes, b.best.nodes);
  EXPECT_EQ(a.best.batch_per_rank, b.best.batch_per_rank);
  EXPECT_EQ(a.best.intra_threads, b.best.intra_threads);
  EXPECT_EQ(a.best.inter_threads, b.best.inter_threads);
}

// ---- EvalCache -------------------------------------------------------------

TEST(EvalCache, LookupMissThenHit) {
  core::EvalCache cache(64, 4);
  EXPECT_FALSE(cache.lookup(42).has_value());
  core::Measurement m;
  m.images_per_sec = 123.5;
  cache.insert(42, m);
  const auto got = cache.lookup(42);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->images_per_sec, 123.5);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_ratio(), 0.5);
}

TEST(EvalCache, EvictsLruAtCapacityBound) {
  // One shard so the LRU order is global and the bound is exact.
  core::EvalCache cache(4, 1);
  core::Measurement m;
  for (std::uint64_t k = 0; k < 10; ++k) {
    m.images_per_sec = static_cast<double>(k);
    cache.insert(k, m);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 6u);
  // The four most recent keys survive; the oldest are gone.
  EXPECT_FALSE(cache.lookup(0).has_value());
  EXPECT_FALSE(cache.lookup(5).has_value());
  ASSERT_TRUE(cache.lookup(9).has_value());
  EXPECT_DOUBLE_EQ(cache.lookup(9)->images_per_sec, 9.0);
}

TEST(EvalCache, LookupRefreshesLruPosition) {
  core::EvalCache cache(2, 1);
  core::Measurement m;
  cache.insert(1, m);
  cache.insert(2, m);
  ASSERT_TRUE(cache.lookup(1).has_value());  // 1 becomes most recent
  cache.insert(3, m);                        // evicts 2, not 1
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
}

TEST(EvalCache, ZeroCapacityDisablesCaching) {
  core::EvalCache cache(0, 4);
  core::Measurement m;
  cache.insert(7, m);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(7).has_value());
}

TEST(EvalCache, ConfigKeysUniqueAcrossPlannedGrids) {
  // Every grid point the planner can enumerate across models, frameworks,
  // and node counts must hash to a distinct key — a collision would silently
  // serve one config's measurement for another.
  std::unordered_set<std::uint64_t> keys;
  std::size_t total = 0;
  for (const auto model : {dnn::ModelId::ResNet50, dnn::ModelId::ResNet152}) {
    for (const auto fw : {exec::Framework::TensorFlow, exec::Framework::PyTorch}) {
      for (const int nodes : {1, 2, 4}) {
        core::AdvisorRequest req;
        req.cluster = hw::stampede2();
        req.model = model;
        req.framework = fw;
        req.nodes = nodes;
        for (const auto& cfg : core::AdvisorService::plan_grid(req)) {
          keys.insert(core::config_key(cfg));
          ++total;
        }
      }
    }
  }
  EXPECT_GT(total, 100u);
  EXPECT_EQ(keys.size(), total);
}

TEST(EvalCache, ConfigKeySensitiveToEveryScheduleField) {
  const auto grid = core::AdvisorService::plan_grid(small_request());
  ASSERT_FALSE(grid.empty());
  const train::TrainConfig base = grid.front();
  const std::uint64_t k0 = core::config_key(base);
  EXPECT_EQ(core::config_key(base), k0);  // stable

  auto mutate = [&](auto&& f) {
    train::TrainConfig c = base;
    f(c);
    return core::config_key(c);
  };
  EXPECT_NE(mutate([](auto& c) { c.batch_per_rank += 1; }), k0);
  EXPECT_NE(mutate([](auto& c) { c.ppn += 1; }), k0);
  EXPECT_NE(mutate([](auto& c) { c.nodes += 1; }), k0);
  EXPECT_NE(mutate([](auto& c) { c.intra_threads += 1; }), k0);
  EXPECT_NE(mutate([](auto& c) { c.framework = exec::Framework::PyTorch; }), k0);
  EXPECT_NE(mutate([](auto& c) { c.model = dnn::ModelId::ResNet101; }), k0);
  EXPECT_NE(mutate([](auto& c) { c.iterations += 1; }), k0);
  EXPECT_NE(mutate([](auto& c) { c.jitter_cv += 0.01; }), k0);
  EXPECT_NE(mutate([](auto& c) { c.policy.cycle_time_s *= 2.0; }), k0);
  EXPECT_NE(mutate([](auto& c) { c.cluster.max_nodes += 1; }), k0);
  EXPECT_NE(mutate([](auto& c) { c.per_rank_sim = !c.per_rank_sim; }), k0);
  EXPECT_NE(mutate([](auto& c) { c.hierarchy = train::CommHierarchy::TwoLevel; }), k0);
}

// ---- lint memo -------------------------------------------------------------

TEST(EvalCache, LintMemoAvoidsRepeatedLint) {
  auto grid = core::AdvisorService::plan_grid(small_request());
  ASSERT_FALSE(grid.empty());
  train::TrainConfig cfg = grid.front();
  cfg.iterations = 7;  // fresh content hash: no other test measures this config

  core::Experiment exp(/*repeats=*/1, /*noise_cv=*/0.0);
  const auto hits0 = core::lint_memo().hits();
  const auto misses0 = core::lint_memo().misses();
  const auto a = exp.measure(cfg);
  EXPECT_EQ(core::lint_memo().misses(), misses0 + 1);  // first sight: linted
  const auto b = exp.measure(cfg);
  EXPECT_EQ(core::lint_memo().misses(), misses0 + 1);  // memoized: no re-lint
  EXPECT_GE(core::lint_memo().hits(), hits0 + 1);
  EXPECT_DOUBLE_EQ(a.images_per_sec, b.images_per_sec);
}

// ---- request validation ----------------------------------------------------

TEST(AdvisorService, EmptyBatchCandidatesIsA001) {
  auto req = small_request();
  req.batch_candidates.clear();
  try {
    core::AdvisorService::plan_grid(req);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("A001"), std::string::npos) << e.what();
  }
}

TEST(AdvisorService, BadNodeCountIsA002) {
  auto req = small_request();
  req.nodes = 0;
  try {
    core::AdvisorService::plan_grid(req);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("A002"), std::string::npos) << e.what();
  }
  req.nodes = req.cluster.max_nodes + 1;
  EXPECT_THROW(core::AdvisorService::plan_grid(req), std::invalid_argument);
}

TEST(AdvisorService, InfeasibleCandidatesAreA003) {
  auto req = small_request();
  req.batch_candidates = {32, -4};
  try {
    core::AdvisorService::plan_grid(req);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("A003"), std::string::npos) << e.what();
  }

  auto gpu_req = small_request();
  gpu_req.device = train::DeviceKind::Gpu;  // stampede2 is CPU-only
  EXPECT_THROW(core::AdvisorService::plan_grid(gpu_req), std::invalid_argument);
}

TEST(AdvisorService, AdviseWrapperValidatesToo) {
  core::AdvisorOptions opts;
  opts.batch_candidates.clear();
  EXPECT_THROW(core::advise(hw::stampede2(), dnn::ModelId::ResNet50,
                            exec::Framework::TensorFlow, opts),
               std::invalid_argument);
  opts = core::AdvisorOptions{};
  opts.nodes = -3;
  EXPECT_THROW(core::advise(hw::stampede2(), dnn::ModelId::ResNet50,
                            exec::Framework::TensorFlow, opts),
               std::invalid_argument);
}

// ---- service semantics -----------------------------------------------------

TEST(AdvisorService, WarmHitIdenticalToColdMiss) {
  core::AdvisorService service({.threads = 2});
  const auto req = small_request();

  const auto cold = service.ask(req);
  EXPECT_GT(cold.grid_points, 0u);
  EXPECT_EQ(cold.evaluated, cold.grid_points);
  EXPECT_EQ(cold.cache_hits, 0u);

  const auto warm = service.ask(req);
  EXPECT_EQ(warm.grid_points, cold.grid_points);
  EXPECT_EQ(warm.cache_hits, warm.grid_points);
  EXPECT_EQ(warm.evaluated, 0u);
  expect_same_best(cold.recommendation, warm.recommendation);
  EXPECT_DOUBLE_EQ(cold.objective_value, warm.objective_value);
}

TEST(AdvisorService, MatchesSerialSweepExactly) {
  core::AdvisorService service({.threads = 2});
  const auto req = small_request();
  const auto reply = service.ask(req);

  double best = 0.0;
  for (const auto& cfg : core::AdvisorService::plan_grid(req))
    best = std::max(best, train::run_training(cfg).images_per_sec);
  EXPECT_DOUBLE_EQ(reply.recommendation.images_per_sec, best);
  EXPECT_DOUBLE_EQ(reply.objective_value, best);
}

TEST(AdvisorService, AskManyDeduplicatesSharedPoints) {
  core::AdvisorService service({.threads = 2});
  const auto req = small_request();
  const auto replies = service.ask_many({req, req, req});
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].evaluated, replies[0].grid_points);
  EXPECT_EQ(replies[1].deduplicated, replies[1].grid_points);
  EXPECT_EQ(replies[2].deduplicated, replies[2].grid_points);
  expect_same_best(replies[0].recommendation, replies[1].recommendation);
  expect_same_best(replies[0].recommendation, replies[2].recommendation);
  EXPECT_EQ(service.queries_answered(), 3u);
}

TEST(AdvisorService, MinStepTimeObjective) {
  core::AdvisorService service({.threads = 2});
  auto req = small_request();
  req.objective = core::Objective::MinStepTime;
  const auto reply = service.ask(req);

  double best = std::numeric_limits<double>::infinity();
  for (const auto& cfg : core::AdvisorService::plan_grid(req))
    best = std::min(best, train::run_training(cfg).per_iteration_s);
  EXPECT_GT(reply.objective_value, 0.0);
  EXPECT_DOUBLE_EQ(reply.objective_value, best);
}

TEST(AdvisorService, WantTableFillsSearchTable) {
  core::AdvisorService service({.threads = 2});
  auto req = small_request();
  req.want_table = true;
  const auto reply = service.ask(req);
  EXPECT_EQ(reply.recommendation.search_table.rows(), reply.grid_points);
}

TEST(AdvisorService, EvictionBoundedCacheStillAnswersCorrectly) {
  core::AdvisorServiceOptions opts;
  opts.threads = 2;
  opts.cache_capacity = 4;  // far below the grid size
  opts.cache_shards = 2;
  core::AdvisorService service(opts);
  const auto req = small_request();

  const auto first = service.ask(req);
  const auto second = service.ask(req);
  EXPECT_LE(service.cache().size(), service.cache().capacity());
  EXPECT_GT(service.cache().stats().evictions, 0u);
  // Most points were evicted and re-simulated; the answer is unchanged.
  EXPECT_GT(second.evaluated, 0u);
  expect_same_best(first.recommendation, second.recommendation);
}

TEST(AdvisorService, IdleServiceSnapshotCarriesFiniteGaugesAndLintsClean) {
  // Constructing the service must register the qps/hit-ratio gauges with
  // finite zero values — a metrics snapshot taken before any query (the
  // dnnperf_metrics check path) must not carry NaN or omit them.
  core::AdvisorService service({.threads = 2});
  const util::metrics::Snapshot snap = util::metrics::snapshot();
  for (const char* name : {"advisor_cache_hit_ratio", "advisor_queries_per_sec"}) {
    const auto* m = snap.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_TRUE(std::isfinite(m->value)) << name;
  }
  const util::Diagnostics diags = analysis::lint_metrics(snap, "idle-service");
  EXPECT_FALSE(diags.has_errors()) << util::render_text(diags);
}

// ---- scaling curves (node-count sweeps, §ISSUE-7) --------------------------

core::ScalingRequest scaling_request(int max_nodes) {
  core::ScalingRequest req;
  req.cluster = hw::stampede2();
  req.cluster.max_nodes = max_nodes;
  req.ppn = 4;
  req.batch_per_rank = 64;
  return req;
}

TEST(AdvisorScaling, CurveIsSortedMonotoneAndEfficiencyBounded) {
  core::AdvisorService service({.threads = 2});
  auto req = scaling_request(128);
  req.node_counts = {128, 2, 8, 32, 4, 16, 64};  // unsorted on purpose
  const auto curve = service.scaling_curve(req);
  ASSERT_EQ(curve.size(), 7u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LT(curve[i - 1].nodes, curve[i].nodes);
    // The paper's Fig. 13-17 shape: more nodes never lose aggregate
    // throughput, while efficiency can only decay as comm grows.
    EXPECT_GE(curve[i].images_per_sec, curve[i - 1].images_per_sec);
    EXPECT_LE(curve[i].efficiency, curve[i - 1].efficiency + 1e-9);
  }
  EXPECT_DOUBLE_EQ(curve.front().speedup, 1.0);
  EXPECT_DOUBLE_EQ(curve.front().efficiency, 1.0);
  for (const auto& p : curve) {
    EXPECT_GT(p.images_per_sec, 0.0);
    EXPECT_LE(p.efficiency, 1.0 + 1e-9);
    EXPECT_EQ(p.ranks, p.nodes * 4);
  }
}

TEST(AdvisorScaling, SecondSweepIsServedFromCache) {
  core::AdvisorService service({.threads = 2});
  auto req = scaling_request(16);
  req.node_counts = {2, 4, 8, 16};
  const auto first = service.scaling_curve(req);
  const auto evals_after_first = service.cache().stats().misses;
  const auto second = service.scaling_curve(req);
  EXPECT_EQ(service.cache().stats().misses, evals_after_first);  // warm: no new sims
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_DOUBLE_EQ(first[i].images_per_sec, second[i].images_per_sec);
}

TEST(AdvisorScaling, SweepsReachSixteenThousandRanks) {
  core::AdvisorService service({.threads = 2});
  auto req = scaling_request(1024);
  req.ppn = 16;
  req.node_counts = {256, 1024};  // 4096 and 16384 ranks
  const auto curve = service.scaling_curve(req);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_EQ(curve.back().ranks, 16384);
  EXPECT_GT(curve.back().images_per_sec, 0.0);
}

TEST(AdvisorScaling, PerRankSweepFillsEventPoolGauges) {
  core::AdvisorService service({.threads = 2});
  auto req = scaling_request(64);
  req.node_counts = {64};
  req.ppn = 16;  // 1024 explicitly simulated ranks
  req.per_rank_sim = true;
  const auto curve = service.scaling_curve(req);
  ASSERT_EQ(curve.size(), 1u);
  // Tensor submissions, busy engine cycles and one wake-up per idle gap
  // (per-rank mode fast-forwards the idle cycles inside a gap).
  EXPECT_GT(curve[0].sim_events, 1024u);
  EXPECT_GT(curve[0].sim_pool_slots, 0u);
  EXPECT_LT(curve[0].sim_pool_slots, curve[0].sim_events);  // pooling reuses slots
}

TEST(AdvisorScaling, HierarchicalCurveKeepsFlatShapeWithinFifteenPercent) {
  // Acceptance: 2-128-node staged-hierarchy efficiency stays monotone and
  // within 15% of the flat-collective curve at overlapping scales.
  core::AdvisorService service({.threads = 2});
  auto flat = scaling_request(128);
  flat.node_counts = {2, 4, 8, 16, 32, 64, 128};
  auto staged = flat;
  staged.hierarchy = train::CommHierarchy::TwoLevel;
  const auto flat_curve = service.scaling_curve(flat);
  const auto staged_curve = service.scaling_curve(staged);
  ASSERT_EQ(flat_curve.size(), staged_curve.size());
  for (std::size_t i = 0; i < flat_curve.size(); ++i) {
    EXPECT_GT(staged_curve[i].efficiency, 0.0);
    const double dev = std::abs(staged_curve[i].efficiency - flat_curve[i].efficiency) /
                       flat_curve[i].efficiency;
    EXPECT_LE(dev, 0.15) << "nodes=" << flat_curve[i].nodes;
    if (i > 0) {
      EXPECT_GE(staged_curve[i].images_per_sec, staged_curve[i - 1].images_per_sec);
      EXPECT_LE(staged_curve[i].efficiency, staged_curve[i - 1].efficiency + 1e-9);
    }
  }
}

TEST(AdvisorScaling, MalformedScalingRequestsThrowWithACodes) {
  core::AdvisorService service({.threads = 2});
  auto req = scaling_request(8);
  req.node_counts = {};
  EXPECT_THROW(service.scaling_curve(req), std::invalid_argument);
  req.node_counts = {0};
  EXPECT_THROW(service.scaling_curve(req), std::invalid_argument);
  req.node_counts = {16};  // beyond max_nodes = 8
  EXPECT_THROW(service.scaling_curve(req), std::invalid_argument);
  req.node_counts = {4};
  req.ppn = 0;
  EXPECT_THROW(service.scaling_curve(req), std::invalid_argument);
}

// ---- concurrency (runs under the tsan preset) ------------------------------

TEST(AdvisorServiceConcurrent, ParallelAskFromManyClients) {
  core::AdvisorService service({.threads = 2});
  auto req_a = small_request();
  auto req_b = small_request();
  req_b.framework = exec::Framework::PyTorch;

  const auto ref_a = service.ask(req_a);  // also warms req_a's grid
  constexpr int kClients = 4;
  constexpr int kIters = 3;
  std::vector<core::AdvisorReply> last(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIters; ++i) {
        const auto& req = (c + i) % 2 == 0 ? req_a : req_b;
        last[static_cast<std::size_t>(c)] = service.ask(req);
      }
    });
  }
  for (auto& t : clients) t.join();

  const auto ref_b = service.ask(req_b);
  EXPECT_EQ(ref_b.evaluated, 0u);  // some client already swept PyTorch
  for (int c = 0; c < kClients; ++c) {
    const auto& expected = (c + kIters - 1) % 2 == 0 ? ref_a : ref_b;
    expect_same_best(last[static_cast<std::size_t>(c)].recommendation,
                     expected.recommendation);
  }
  EXPECT_EQ(service.queries_answered(), 2u + kClients * kIters);
}

TEST(AdvisorServiceConcurrent, ParallelAskManyBatches) {
  core::AdvisorService service({.threads = 2});
  const auto req = small_request();
  const auto reference = service.ask(req);

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<std::vector<core::AdvisorReply>> replies(kClients);
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      replies[static_cast<std::size_t>(c)] = service.ask_many({req, req});
    });
  }
  for (auto& t : clients) t.join();

  for (const auto& batch : replies) {
    ASSERT_EQ(batch.size(), 2u);
    for (const auto& r : batch) {
      EXPECT_EQ(r.evaluated, 0u);  // fully warm
      expect_same_best(r.recommendation, reference.recommendation);
      EXPECT_DOUBLE_EQ(r.objective_value, reference.objective_value);
    }
  }
}

}  // namespace
