// Tests of the typed metrics registry (util/metrics): registration
// contract, thread-local shard merging under real ThreadPool concurrency,
// histogram percentile accuracy against exact quantiles, exporter formats,
// cross-rank merge semantics, the regression diff, and the end-to-end
// requested-vs-issued counter parity of a 2-rank real training run.
//
// Every test that records goes through ScopedMetricsState so the global
// registry is quiesced and reset between tests.
#include <algorithm>
#include <cmath>
#include <limits>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyze.hpp"
#include "hvd/policy.hpp"
#include "ref/network.hpp"
#include "ref/threadpool.hpp"
#include "train/real_trainer.hpp"
#include "util/diag.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"

namespace dnnperf {
namespace {

namespace metrics = util::metrics;

// Tests that observe recorded values cannot pass when handle bodies are
// compiled out (-DDNNPERF_METRICS=OFF); they skip instead of failing.
#if DNNPERF_METRICS_ENABLED
#define SKIP_IF_COMPILED_OUT() (void)0
#else
#define SKIP_IF_COMPILED_OUT() GTEST_SKIP() << "metrics recording compiled out"
#endif

class ScopedMetricsState {
 public:
  ScopedMetricsState() {
    metrics::reset();
    metrics::set_enabled(true);
  }
  ~ScopedMetricsState() {
    metrics::set_enabled(false);
    metrics::reset();
  }
};

const metrics::MetricValue& require(const metrics::Snapshot& snap, const std::string& name) {
  const auto* m = snap.find(name);
  if (m == nullptr) ADD_FAILURE() << "metric not in snapshot: " << name;
  static metrics::MetricValue empty;
  return m != nullptr ? *m : empty;
}

TEST(Metrics, CounterAccumulatesAndSnapshotReads) {
  SKIP_IF_COMPILED_OUT();
  ScopedMetricsState state;
  const auto c = metrics::counter("test_counter_total", "help text");
  c.inc();
  c.inc(41);
  const auto snap = metrics::snapshot();
  const auto& m = require(snap, "test_counter_total");
  EXPECT_EQ(m.kind, metrics::Kind::Counter);
  EXPECT_EQ(m.count, 42u);
  EXPECT_EQ(m.help, "help text");
}

TEST(Metrics, SameNameAndKindSharesOneMetric) {
  SKIP_IF_COMPILED_OUT();
  ScopedMetricsState state;
  const auto a = metrics::counter("test_shared_total");
  const auto b = metrics::counter("test_shared_total");
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(require(metrics::snapshot(), "test_shared_total").count, 5u);
}

TEST(Metrics, HelpKeptFromFirstRegistration) {
  ScopedMetricsState state;
  (void)metrics::counter("test_help_total", "first");
  (void)metrics::counter("test_help_total", "second");
  EXPECT_EQ(require(metrics::snapshot(), "test_help_total").help, "first");
}

TEST(Metrics, DisabledRecordingIsDropped) {
  SKIP_IF_COMPILED_OUT();
  ScopedMetricsState state;
  const auto c = metrics::counter("test_gated_total");
  metrics::set_enabled(false);
  c.inc(100);
  metrics::set_enabled(true);
  c.inc(1);
  EXPECT_EQ(require(metrics::snapshot(), "test_gated_total").count, 1u);
}

TEST(Metrics, GaugeKeepsLastValue) {
  SKIP_IF_COMPILED_OUT();
  ScopedMetricsState state;
  const auto g = metrics::gauge("test_gauge");
  g.set(1.5);
  g.set(-2.25);
  const auto snap = metrics::snapshot();
  const auto& m = require(snap, "test_gauge");
  EXPECT_EQ(m.kind, metrics::Kind::Gauge);
  EXPECT_DOUBLE_EQ(m.value, -2.25);
}

TEST(Metrics, ResetClearsValuesButKeepsRegistrations) {
  SKIP_IF_COMPILED_OUT();
  ScopedMetricsState state;
  const auto c = metrics::counter("test_reset_total");
  c.inc(7);
  metrics::reset();
  const auto snap = metrics::snapshot();
  EXPECT_EQ(require(snap, "test_reset_total").count, 0u);
  c.inc(2);  // handle still valid after reset
  EXPECT_EQ(require(metrics::snapshot(), "test_reset_total").count, 2u);
}

TEST(Metrics, SnapshotSortedByName) {
  ScopedMetricsState state;
  (void)metrics::counter("test_zz_total");
  (void)metrics::counter("test_aa_total");
  const auto snap = metrics::snapshot();
  EXPECT_TRUE(std::is_sorted(snap.metrics.begin(), snap.metrics.end(),
                             [](const auto& a, const auto& b) { return a.name < b.name; }));
}

// --- shard merge under real concurrency -------------------------------------

TEST(Metrics, ShardMergeUnderThreadPoolConcurrency) {
  SKIP_IF_COMPILED_OUT();
  ScopedMetricsState state;
  const auto c = metrics::counter("test_pool_total");
  const auto h = metrics::histogram("test_pool_seconds");
  ref::ThreadPool pool(4);
  constexpr std::size_t kItems = 100000;
  pool.parallel_for(kItems, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      c.inc();
      h.observe(1e-3);
    }
  });
  const auto snap = metrics::snapshot();
  EXPECT_EQ(require(snap, "test_pool_total").count, kItems);
  EXPECT_EQ(require(snap, "test_pool_seconds").hist.count, kItems);
  EXPECT_NEAR(require(snap, "test_pool_seconds").hist.sum, kItems * 1e-3, 1e-6 * kItems);
}

TEST(Metrics, ShardsOfExitedThreadsSurvive) {
  SKIP_IF_COMPILED_OUT();
  ScopedMetricsState state;
  const auto c = metrics::counter("test_exited_total");
  {
    ref::ThreadPool pool(4);
    pool.parallel_for(std::size_t{1000},
                      [&](std::size_t begin, std::size_t end) { c.inc(end - begin); });
  }  // pool joins its workers here
  EXPECT_EQ(require(metrics::snapshot(), "test_exited_total").count, 1000u);
}

// --- histogram --------------------------------------------------------------

TEST(Metrics, HistogramBucketBoundsAndIndexAgree) {
  for (int i = 0; i < metrics::kHistNumBuckets; ++i) {
    const double lo = metrics::hist_bucket_bound(i);
    const double hi = metrics::hist_bucket_bound(i + 1);
    // A value strictly inside bucket i must index to i.
    EXPECT_EQ(metrics::hist_bucket_index(lo * 1.01), i) << "bucket " << i;
    EXPECT_LT(lo, hi);
  }
  EXPECT_EQ(metrics::hist_bucket_index(0.0), 0);
  EXPECT_EQ(metrics::hist_bucket_index(-5.0), 0);
  EXPECT_EQ(metrics::hist_bucket_index(1e300), metrics::kHistNumBuckets - 1);
}

TEST(Metrics, HistogramPercentilesTrackExactQuantiles) {
  // Log-uniform-ish series spanning microseconds to seconds; bucket
  // resolution guarantees <= one quarter-octave (2^0.25 - 1 ~ 19%) relative
  // error against the exact empirical quantile.
  metrics::HistogramData hist;
  std::vector<double> xs;
  double v = 1e-6;
  while (v < 2.0) {
    xs.push_back(v);
    hist.observe(v);
    v *= 1.05;
  }
  for (double p : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const double exact = util::percentile(xs, p);
    const double est = hist.percentile(p);
    EXPECT_NEAR(est / exact, 1.0, 0.20) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), hist.min);
  EXPECT_DOUBLE_EQ(hist.percentile(1.0), hist.max);
}

TEST(Metrics, HistogramMergeMatchesCombinedObserve) {
  metrics::HistogramData a, b, combined;
  for (int i = 1; i <= 50; ++i) {
    a.observe(i * 1e-3);
    combined.observe(i * 1e-3);
  }
  for (int i = 51; i <= 100; ++i) {
    b.observe(i * 1e-3);
    combined.observe(i * 1e-3);
  }
  a.merge(b);
  EXPECT_EQ(a.count, combined.count);
  EXPECT_DOUBLE_EQ(a.sum, combined.sum);
  EXPECT_DOUBLE_EQ(a.min, combined.min);
  EXPECT_DOUBLE_EQ(a.max, combined.max);
  EXPECT_EQ(a.buckets, combined.buckets);
}

// --- RunStats percentiles ---------------------------------------------------

TEST(RunStatsPercentile, TracksExactQuantiles) {
  util::RunStats s;
  std::vector<double> xs;
  for (int i = 1; i <= 200; ++i) {
    s.add(i * 0.5e-3);
    xs.push_back(i * 0.5e-3);
  }
  EXPECT_NEAR(s.p50() / util::percentile(xs, 0.50), 1.0, 0.20);
  EXPECT_NEAR(s.p95() / util::percentile(xs, 0.95), 1.0, 0.20);
  EXPECT_NEAR(s.p99() / util::percentile(xs, 0.99), 1.0, 0.20);
}

TEST(RunStatsPercentile, NonPositiveSamplesResolveToMin) {
  util::RunStats s;
  s.add(-1.0);
  s.add(-0.5);
  s.add(2.0);
  s.add(4.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), -1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.25), -1.0);  // rank 1 of 4 sits in the non-positive region
  EXPECT_GE(s.percentile(0.99), 2.0);
  EXPECT_THROW(s.percentile(1.5), std::invalid_argument);
}

TEST(RunStatsPercentile, EmptyIsZero) {
  const util::RunStats s;
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
}

// --- exporters --------------------------------------------------------------

metrics::Snapshot golden_snapshot() {
  metrics::Snapshot snap;
  snap.label = "golden";
  metrics::MetricValue c;
  c.name = "alpha_total";
  c.help = "a counter";
  c.kind = metrics::Kind::Counter;
  c.count = 7;
  metrics::MetricValue g;
  g.name = "beta_ratio";
  g.kind = metrics::Kind::Gauge;
  g.value = 0.5;
  metrics::MetricValue h;
  h.name = "gamma_seconds";
  h.kind = metrics::Kind::Histogram;
  h.hist.observe(0.001);
  h.hist.observe(0.002);
  h.hist.observe(0.004);
  snap.metrics = {c, g, h};
  return snap;
}

TEST(MetricsExport, PrometheusGolden) {
  const std::string text = metrics::to_prometheus(golden_snapshot());
  EXPECT_NE(text.find("# HELP alpha_total a counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE alpha_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("alpha_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE beta_ratio gauge\n"), std::string::npos);
  EXPECT_NE(text.find("beta_ratio 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("gamma_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("gamma_seconds_sum 0.007\n"), std::string::npos);
  EXPECT_NE(text.find("gamma_seconds_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  // Cumulative counts: the last finite bucket line carries all 3 samples.
  EXPECT_NE(text.find("} 3\n"), std::string::npos);
}

TEST(MetricsExport, CsvGolden) {
  const std::string text = metrics::to_csv(golden_snapshot());
  EXPECT_NE(text.find("name,kind,value,count,sum,min,max,mean,p50,p95,p99\n"),
            std::string::npos);
  EXPECT_NE(text.find("alpha_total,counter,7,,,,,,,,"), std::string::npos);
  EXPECT_NE(text.find("beta_ratio,gauge,0.5,,,,,,,,"), std::string::npos);
  EXPECT_NE(text.find("gamma_seconds,histogram,,3,0.007,0.001,0.004,"), std::string::npos);
}

TEST(MetricsExport, JsonRoundTripsThroughParse) {
  const auto original = golden_snapshot();
  const auto parsed = metrics::parse_json(metrics::to_json(original));
  EXPECT_EQ(parsed.label, "golden");
  ASSERT_EQ(parsed.metrics.size(), original.metrics.size());
  EXPECT_EQ(require(parsed, "alpha_total").count, 7u);
  EXPECT_EQ(require(parsed, "alpha_total").help, "a counter");
  EXPECT_DOUBLE_EQ(require(parsed, "beta_ratio").value, 0.5);
  const auto& h = require(parsed, "gamma_seconds").hist;
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 0.007);
  EXPECT_DOUBLE_EQ(h.min, 0.001);
  EXPECT_DOUBLE_EQ(h.max, 0.004);
  EXPECT_EQ(h.buckets, require(original, "gamma_seconds").hist.buckets);
}

TEST(MetricsExport, ParseRejectsMalformedInput) {
  EXPECT_THROW(metrics::parse_json("not json"), std::runtime_error);
  EXPECT_THROW(metrics::parse_json("{\"metrics\":[]}"), std::runtime_error);  // no schema
  EXPECT_THROW(metrics::parse_json("{\"schema\":\"other\",\"metrics\":[]}"),
               std::runtime_error);
}

// --- cross-rank merge -------------------------------------------------------

TEST(MetricsMerge, CountersSumHistogramsMergeGaugesMax) {
  auto a = golden_snapshot();
  auto b = golden_snapshot();
  b.metrics[1].value = 0.75;  // beta_ratio
  metrics::MetricValue only_b;
  only_b.name = "delta_total";
  only_b.kind = metrics::Kind::Counter;
  only_b.count = 5;
  b.metrics.push_back(only_b);
  a.merge(b);
  EXPECT_EQ(require(a, "alpha_total").count, 14u);
  EXPECT_DOUBLE_EQ(require(a, "beta_ratio").value, 0.75);
  EXPECT_EQ(require(a, "gamma_seconds").hist.count, 6u);
  EXPECT_EQ(require(a, "delta_total").count, 5u);  // one-sided metrics kept
}

// --- delta ------------------------------------------------------------------

TEST(MetricsDelta, SubtractsCountersAndHistogramCounts) {
  SKIP_IF_COMPILED_OUT();
  ScopedMetricsState state;
  const auto c = metrics::counter("test_delta_total");
  const auto h = metrics::histogram("test_delta_seconds");
  c.inc(10);
  h.observe(0.001);
  const auto before = metrics::snapshot();
  c.inc(5);
  h.observe(0.002);
  const auto after = metrics::snapshot();
  const auto d = metrics::delta(before, after);
  EXPECT_EQ(require(d, "test_delta_total").count, 5u);
  EXPECT_EQ(require(d, "test_delta_seconds").hist.count, 1u);
  EXPECT_NEAR(require(d, "test_delta_seconds").hist.sum, 0.002, 1e-12);
}

// --- regression diff --------------------------------------------------------

metrics::Snapshot timer_snapshot(double scale) {
  metrics::Snapshot snap;
  metrics::MetricValue h;
  h.name = "step_seconds";
  h.kind = metrics::Kind::Histogram;
  for (int i = 0; i < 100; ++i) h.hist.observe(0.010 * scale);
  metrics::MetricValue c;
  c.name = "ops_total";
  c.kind = metrics::Kind::Counter;
  c.count = 40;
  metrics::MetricValue r;
  r.name = "images_per_sec";
  r.kind = metrics::Kind::Gauge;
  r.value = 100.0 / scale;
  snap.metrics = {h, c, r};
  return snap;
}

TEST(MetricsDiff, IdenticalSnapshotsPass) {
  const auto base = timer_snapshot(1.0);
  const auto result = metrics::diff_snapshots(base, base, metrics::DiffThresholds{});
  EXPECT_FALSE(result.regression());
}

TEST(MetricsDiff, InflatedTimerFailsThreshold) {
  const auto base = timer_snapshot(1.0);
  const auto slow = timer_snapshot(1.5);  // p50 +50% > 10% threshold
  const auto result = metrics::diff_snapshots(base, slow, metrics::DiffThresholds{});
  EXPECT_TRUE(result.regression());
  const auto it = std::find_if(result.entries.begin(), result.entries.end(),
                               [](const auto& e) { return e.name == "step_seconds"; });
  ASSERT_NE(it, result.entries.end());
  EXPECT_TRUE(it->regression);
  // Rate gauge dropped by the same scale: also flagged.
  const auto rate = std::find_if(result.entries.begin(), result.entries.end(),
                                 [](const auto& e) { return e.name == "images_per_sec"; });
  ASSERT_NE(rate, result.entries.end());
  EXPECT_TRUE(rate->regression);
}

TEST(MetricsDiff, CounterDriftFailsBothDirections) {
  const auto base = timer_snapshot(1.0);
  auto more = base;
  more.metrics[1].count = 41;
  auto fewer = base;
  fewer.metrics[1].count = 39;
  EXPECT_TRUE(metrics::diff_snapshots(base, more, metrics::DiffThresholds{}).regression());
  EXPECT_TRUE(metrics::diff_snapshots(base, fewer, metrics::DiffThresholds{}).regression());
}

TEST(MetricsDiff, IgnoredFamiliesDoNotFail) {
  const auto base = timer_snapshot(1.0);
  const auto slow = timer_snapshot(2.0);
  metrics::DiffThresholds th;
  th.check_timers = false;
  th.check_rates = false;
  EXPECT_FALSE(metrics::diff_snapshots(base, slow, th).regression());
}

TEST(MetricsDiff, FasterTimerIsNotARegression) {
  const auto base = timer_snapshot(1.0);
  const auto fast = timer_snapshot(0.5);
  metrics::DiffThresholds th;
  th.check_rates = false;  // rate rose, not dropped — but isolate the timer here
  EXPECT_FALSE(metrics::diff_snapshots(base, fast, th).regression());
}

// --- lint passes ------------------------------------------------------------

TEST(MetricsLint, CleanSnapshotHasNoFindings) {
  const auto diags = analysis::lint_metrics(golden_snapshot(), "test");
  EXPECT_TRUE(diags.empty());
}

TEST(MetricsLint, DuplicateKindIsM001) {
  auto snap = golden_snapshot();
  metrics::MetricValue dup;
  dup.name = "alpha_total";  // same name as the counter, different kind
  dup.kind = metrics::Kind::Gauge;
  snap.metrics.push_back(dup);
  const auto diags = analysis::lint_metrics(snap, "test");
  EXPECT_TRUE(diags.has_code("M001"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(MetricsLint, BadCharsetIsM002) {
  auto snap = golden_snapshot();
  metrics::MetricValue bad;
  bad.name = "9bad-name";
  bad.kind = metrics::Kind::Counter;
  snap.metrics.push_back(bad);
  const auto diags = analysis::lint_metrics(snap, "test");
  EXPECT_TRUE(diags.has_code("M002"));
}

TEST(MetricsLint, NonFiniteValueIsM003) {
  auto snap = golden_snapshot();
  metrics::MetricValue nan_gauge;
  nan_gauge.name = "broken_hit_ratio";
  nan_gauge.kind = metrics::Kind::Gauge;
  nan_gauge.value = std::numeric_limits<double>::quiet_NaN();  // 0/0 before first query
  snap.metrics.push_back(nan_gauge);
  const auto diags = analysis::lint_metrics(snap, "test");
  EXPECT_TRUE(diags.has_code("M003"));
  EXPECT_TRUE(diags.has_errors());

  auto inf_snap = golden_snapshot();
  metrics::MetricValue inf_hist;
  inf_hist.name = "broken_seconds";
  inf_hist.kind = metrics::Kind::Histogram;
  inf_hist.hist.observe(1.0);
  inf_hist.hist.sum = std::numeric_limits<double>::infinity();
  inf_snap.metrics.push_back(inf_hist);
  EXPECT_TRUE(analysis::lint_metrics(inf_snap, "test").has_code("M003"));
}

TEST(MetricsLint, LiveRegistryNamesLintClean) {
  // Every name the instrumented layers register must satisfy M001/M002:
  // run a real training step to populate the registry, then lint it.
  ScopedMetricsState state;
  train::RealTrainConfig cfg;
  cfg.ranks = 2;
  cfg.batch_per_rank = 2;
  cfg.steps = 1;
  cfg.image_size = 6;
  (void)train::run_real_training(cfg);
  const auto diags = analysis::lint_metrics(metrics::snapshot(), "live registry");
  EXPECT_TRUE(diags.empty()) << util::render_text(diags);
}

// --- end-to-end: 2-rank requested-vs-issued parity --------------------------

TEST(MetricsTraining, TwoRankRequestedVsIssuedParity) {
  SKIP_IF_COMPILED_OUT();
  ScopedMetricsState state;
  train::RealTrainConfig cfg;
  cfg.ranks = 2;
  cfg.batch_per_rank = 2;
  cfg.steps = 3;
  cfg.image_size = 6;
  const auto result = train::run_real_training(cfg);
  const auto snap = metrics::snapshot();

  const auto& requested = require(snap, hvd::metric_names::kRequested);
  const auto& issued = require(snap, hvd::metric_names::kIssued);
  const auto& cycles = require(snap, hvd::metric_names::kCycles);
  // Registry counters aggregate over both ranks; CommStats is rank 0 only.
  EXPECT_EQ(requested.count, result.comm.framework_requests * cfg.ranks);
  EXPECT_EQ(issued.count, result.comm.data_allreduces * cfg.ranks);
  EXPECT_EQ(cycles.count, result.comm.engine_wakeups * cfg.ranks);
  // The paper's Sec. VIII fusion behaviour: every tensor is requested, but
  // fusion means strictly fewer data allreduces are issued.
  EXPECT_GT(requested.count, 0u);
  EXPECT_LE(issued.count, requested.count);
  // Per-step phase timers and the cycle-time histogram came along.
  EXPECT_EQ(require(snap, "train_step_forward_seconds").hist.count,
            static_cast<std::uint64_t>(cfg.steps) * cfg.ranks);
  EXPECT_GT(require(snap, hvd::metric_names::kCycleTime).hist.count, 0u);
  EXPECT_GT(require(snap, "train_images_total").count, 0u);
}

/// make_tiny_cnn's layers (no BN), kept so a test can run every layer's full
/// backward itself.
struct TinyCnn {
  ref::Network net;
  std::vector<ref::Layer*> layers;
};

TinyCnn tiny_cnn(ref::ThreadPool& pool) {
  util::Rng rng(11);
  TinyCnn t;
  t.layers = {&t.net.add<ref::Conv2dLayer>("conv1", 3, 8, 3, ref::ConvSpec{1, 1}, pool, rng),
              &t.net.add<ref::ReLULayer>("relu1", pool),
              &t.net.add<ref::MaxPoolLayer>("pool1", 2, 2, pool),
              &t.net.add<ref::Conv2dLayer>("conv2", 8, 16, 3, ref::ConvSpec{1, 1}, pool, rng),
              &t.net.add<ref::ReLULayer>("relu2", pool),
              &t.net.add<ref::GlobalAvgPoolLayer>("gap"),
              &t.net.add<ref::DenseLayer>("fc", 16, 10, pool, rng)};
  return t;
}

TEST(MetricsTraining, FirstLayerSkipsOnlyItsInputGradientGemms) {
  // Network::backward computes no input gradient for the first layer: one
  // step runs exactly one GEMM per image fewer (conv1's dX) than every
  // layer's full backward, and every parameter gradient is the same bits.
  SKIP_IF_COMPILED_OUT();
  ScopedMetricsState state;
  ref::ThreadPool pool(2);
  constexpr int kBatch = 4;
  const auto batch = ref::synthetic_batch(5, 0, 0, kBatch, 3, 8, 10, pool);
  const auto gemm_calls = [] { return require(metrics::snapshot(), "ref_gemm_calls_total").count; };

  TinyCnn skip = tiny_cnn(pool);
  ref::Tensor dlogits;
  (void)ref::softmax_xent(skip.net.forward(batch.images), batch.labels, dlogits);
  const std::uint64_t skip_start = gemm_calls();
  skip.net.backward(dlogits);
  const std::uint64_t skip_calls = gemm_calls() - skip_start;

  TinyCnn full = tiny_cnn(pool);
  (void)ref::softmax_xent(full.net.forward(batch.images), batch.labels, dlogits);
  const std::uint64_t full_start = gemm_calls();
  ref::Tensor grads[2];
  const ref::Tensor* cur = &dlogits;
  int next = 0;
  for (auto it = full.layers.rbegin(); it != full.layers.rend(); ++it, next ^= 1) {
    (*it)->backward(*cur, grads[next]);
    cur = &grads[next];
  }
  const std::uint64_t full_calls = gemm_calls() - full_start;

  EXPECT_EQ(full_calls - skip_calls, static_cast<std::uint64_t>(kBatch));
  const auto skip_params = skip.net.params();
  const auto full_params = full.net.params();
  ASSERT_EQ(skip_params.size(), full_params.size());
  for (std::size_t i = 0; i < skip_params.size(); ++i) {
    SCOPED_TRACE(skip_params[i].name);
    const auto a = skip_params[i].grad->flat();
    const auto b = full_params[i].grad->flat();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  }
}

TEST(MetricsTraining, NoCommSingleProcessRequestsNothing) {
  // A run with no Horovod engine must report zero framework requests: real
  // and simulated paths agree on this. SP and a one-rank MP run are the same
  // loop, which builds no engine and records no exchange phase.
  train::RealTrainConfig cfg;
  cfg.ranks = 1;
  cfg.batch_per_rank = 2;
  cfg.steps = 2;
  cfg.image_size = 6;
  for (const bool single : {true, false}) {
    SCOPED_TRACE(single ? "run_real_training_single" : "run_real_training");
    ScopedMetricsState state;
    const auto r = single ? train::run_real_training_single(cfg) : train::run_real_training(cfg);
    const auto* requested = metrics::snapshot().find(hvd::metric_names::kRequested);
    if (requested != nullptr) {
      EXPECT_EQ(requested->count, 0u);
    }
    EXPECT_EQ(r.comm.framework_requests, 0u);
    EXPECT_EQ(r.phases.exchange.count(), 0u);
    EXPECT_EQ(r.phases.step.count(), static_cast<std::size_t>(cfg.steps));
  }
}

TEST(MetricsTraining, PhaseHistogramsShareThePhaseTimesSample) {
  // Each phase reads the clock once and feeds that sample to both the
  // PhaseTimes stats and the registry histogram, so the two agree exactly.
  SKIP_IF_COMPILED_OUT();
  ScopedMetricsState state;
  train::RealTrainConfig cfg;
  cfg.ranks = 1;
  cfg.batch_per_rank = 4;
  cfg.steps = 3;
  cfg.image_size = 6;
  const auto r = train::run_real_training(cfg);
  const auto snap = metrics::snapshot();
  const std::pair<const char*, const util::RunStats*> phases[] = {
      {"train_step_input_seconds", &r.phases.input},
      {"train_step_forward_seconds", &r.phases.forward},
      {"train_step_backward_seconds", &r.phases.backward},
      {"train_step_optimizer_seconds", &r.phases.optimizer}};
  for (const auto& [name, stats] : phases) {
    SCOPED_TRACE(name);
    const auto& hist = require(snap, name).hist;
    ASSERT_EQ(hist.count, stats->count());
    EXPECT_NEAR(hist.sum, stats->mean() * static_cast<double>(stats->count()), 1e-12);
    EXPECT_EQ(hist.min, stats->min());
    EXPECT_EQ(hist.max, stats->max());
  }
  // One rank exchanges nothing, so no exchange sample is recorded.
  const auto* exchange = snap.find("train_step_exchange_seconds");
  if (exchange != nullptr) {
    EXPECT_EQ(exchange->hist.count, 0u);
  }
}

}  // namespace
}  // namespace dnnperf
