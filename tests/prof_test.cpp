// Profiler subsystem tests: the shared trace model, golden synthetic traces
// with known phase structure (breakdown, critical path, overlap, straggler
// attribution, verdicts), fresh real-engine and DES recordings profiled
// end-to-end, the predicted-vs-measured comparison, the T-family
// diagnostics, and the analytic sim-point classifier.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <sstream>
#include <string>

#include "hvd/timeline.hpp"
#include "hw/platforms.hpp"
#include "mpi/cost.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "prof/compare.hpp"
#include "prof/profile.hpp"
#include "prof/trace_model.hpp"
#include "train/real_trainer.hpp"
#include "util/diag.hpp"
#include "util/trace.hpp"

namespace dnnperf::prof {
namespace {

std::string trace_doc(const std::string& events) {
  return "{\"traceEvents\":[" + events + "]}";
}

std::string span(const char* name, int pid, int tid, double ts, double dur,
                 const std::string& args = {}) {
  std::string e = "{\"name\":\"" + std::string(name) + "\",\"ph\":\"X\",\"pid\":" +
                  std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
                  ",\"ts\":" + std::to_string(ts) + ",\"dur\":" + std::to_string(dur);
  if (!args.empty()) e += ",\"args\":{" + args + "}";
  return e + "}";
}

std::string thread_meta(int pid, int tid, const std::string& name) {
  return "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"ts\":0,\"args\":{\"name\":\"" + name + "\"}}";
}

/// One golden step on a real rank track (µs, offset by `t0`): step 1000 =
/// input 100 + forward 250 + backward 400 + exchange 200 + optimizer 50,
/// with the engine leaves nested inside exchange (comm busy 190, one 4 MiB
/// data allreduce).
std::string golden_step(int tid, double t0, double bwd_extra = 0.0) {
  const double bwd_end = t0 + 350 + 400 + bwd_extra;
  std::string e;
  e += span("step", 1, tid, t0, 1000 + bwd_extra) + ",";
  e += span("input", 1, tid, t0, 100) + ",";
  e += span("forward", 1, tid, t0 + 100, 250) + ",";
  e += span("backward", 1, tid, t0 + 350, 400 + bwd_extra) + ",";
  e += span("exchange", 1, tid, bwd_end, 200) + ",";
  e += span("engine.cycle", 1, tid, bwd_end, 190) + ",";
  e += span("negotiate", 1, tid, bwd_end, 50) + ",";
  e += span("fusion.pack", 1, tid, bwd_end + 50, 10) + ",";
  e += span("allreduce.data", 1, tid, bwd_end + 60, 120, "\"bytes\":4194304,\"tensors\":3") + ",";
  e += span("fusion.unpack", 1, tid, bwd_end + 180, 10) + ",";
  e += span("optimizer", 1, tid, bwd_end + 200, 50);
  return e;
}

/// Two symmetric ranks, two steps each: every share is known in closed form.
std::string golden_two_rank_trace() {
  std::string e = thread_meta(1, 10, "rank 0") + "," + thread_meta(1, 11, "rank 1");
  for (int s = 0; s < 2; ++s) {
    e += "," + golden_step(10, s * 1000.0);
    e += "," + golden_step(11, s * 1000.0);
  }
  return trace_doc(e);
}

ProfileReport profile(const std::string& text, const ProfileOptions& options = {}) {
  return profile_trace_text(text, "test-trace", options);
}

// ---------------------------------------------------------------------------
// Trace model
// ---------------------------------------------------------------------------

TEST(TraceModel, ParsesTracksNamesAndArgs) {
  const std::string text = trace_doc(
      thread_meta(1, 10, "rank 0") + "," + thread_meta(2, 7, "sim rank 3") + "," +
      span("step", 1, 10, 0, 100, "\"step\":2") + "," +
      span("allreduce.data", 1, 10, 10, 20, "\"bytes\":1024,\"tensors\":2") + "," +
      span("compute", 2, 7, 0, 50));
  util::Diagnostics diags;
  const TraceModel model = parse_trace(text, "t", diags);
  ASSERT_TRUE(diags.empty()) << util::render_text(diags);
  ASSERT_EQ(model.tracks.size(), 2u);
  EXPECT_EQ(model.tracks[0].thread_name, "rank 0");
  EXPECT_EQ(model.tracks[0].rank(), 0);
  EXPECT_FALSE(model.tracks[0].simulated());
  EXPECT_EQ(model.tracks[1].rank(), 3);
  EXPECT_TRUE(model.tracks[1].simulated());
  ASSERT_EQ(model.tracks[0].spans.size(), 2u);
  EXPECT_EQ(model.tracks[0].spans[0].name, "step");
  EXPECT_DOUBLE_EQ(model.tracks[0].spans[0].step, 2.0);
  EXPECT_DOUBLE_EQ(model.tracks[0].spans[1].bytes, 1024.0);
  EXPECT_DOUBLE_EQ(model.tracks[0].spans[1].tensors, 2.0);
}

TEST(TraceModel, SpansSortedParentBeforeChild) {
  // Same start: the longer (parent) span must come first.
  const std::string text =
      trace_doc(span("child", 1, 1, 0, 10) + "," + span("parent", 1, 1, 0, 100));
  util::Diagnostics diags;
  const TraceModel model = parse_trace(text, "t", diags);
  ASSERT_EQ(model.tracks.size(), 1u);
  ASSERT_EQ(model.tracks[0].spans.size(), 2u);
  EXPECT_EQ(model.tracks[0].spans[0].name, "parent");
}

TEST(TraceModel, MalformedDocumentsAreV101AndEmpty) {
  for (const char* bad : {"not json at all", "{}", "[1,2,3]"}) {
    util::Diagnostics diags;
    const TraceModel model = parse_trace(bad, "bad", diags);
    EXPECT_TRUE(diags.has_code("V101")) << bad;
    EXPECT_TRUE(model.empty()) << bad;
  }
}

TEST(TraceModel, UnreadableFileIsV101) {
  util::Diagnostics diags;
  const TraceModel model = parse_trace_file("/nonexistent/trace.json", diags);
  EXPECT_TRUE(diags.has_code("V101"));
  EXPECT_TRUE(model.empty());
}

// ---------------------------------------------------------------------------
// Golden synthetic traces
// ---------------------------------------------------------------------------

TEST(Profiler, GoldenPhaseBreakdown) {
  const ProfileReport r = profile(golden_two_rank_trace());
  EXPECT_FALSE(r.diags.has_errors()) << util::render_text(r.diags);
  EXPECT_FALSE(r.simulated);
  EXPECT_EQ(r.ranks, 2);
  EXPECT_EQ(r.steps, 2);
  EXPECT_NEAR(r.step_s, 1000e-6, 1e-9);
  ASSERT_EQ(r.phases.size(), 6u);  // five phases + "other"
  EXPECT_NEAR(r.input_s, 100e-6, 1e-9);
  EXPECT_NEAR(r.forward_s, 250e-6, 1e-9);
  EXPECT_NEAR(r.backward_s, 400e-6, 1e-9);
  EXPECT_NEAR(r.exchange_s, 200e-6, 1e-9);
  EXPECT_NEAR(r.optimizer_s, 50e-6, 1e-9);
  EXPECT_NEAR(r.unattributed_fraction, 0.0, 1e-9);
  EXPECT_EQ(r.verdict, Verdict::ComputeBound);  // compute 70% vs comm 20%
}

TEST(Profiler, GoldenCriticalPathDominatedByBackward) {
  const ProfileReport r = profile(golden_two_rank_trace());
  EXPECT_NEAR(r.critical_path_s, 1000e-6, 1e-9);
  ASSERT_FALSE(r.critical_path.empty());
  double backward_share = 0.0;
  for (const CriticalSegment& seg : r.critical_path)
    if (seg.phase == "backward") backward_share = seg.share;
  EXPECT_NEAR(backward_share, 0.4, 1e-6);
  EXPECT_NEAR(r.critical_path_share, 0.4, 1e-6);
  EXPECT_GE(r.critical_rank, 0);
}

TEST(Profiler, GoldenUtilizationAndZeroOverlap) {
  const ProfileReport r = profile(golden_two_rank_trace());
  ASSERT_EQ(r.utilization.size(), 2u);
  for (const RankUtilization& u : r.utilization) {
    EXPECT_NEAR(u.step_s, 2000e-6, 1e-9);      // two steps
    EXPECT_NEAR(u.compute_s, 1600e-6, 1e-9);   // (100+250+400+50) * 2
    EXPECT_NEAR(u.exposed_s, 400e-6, 1e-9);    // 200 * 2
    EXPECT_NEAR(u.comm_busy_s, 380e-6, 1e-9);  // 190 * 2 (engine.cycle excluded)
    EXPECT_NEAR(u.compute_fraction, 0.8, 1e-6);
  }
  // The real engine runs on the framework thread inside exchange — nothing
  // of its busy time can overlap the compute phases.
  EXPECT_NEAR(r.overlap_fraction, 0.0, 1e-9);
}

TEST(Profiler, SymmetricRanksHaveNoSkew) {
  const ProfileReport r = profile(golden_two_rank_trace());
  EXPECT_NEAR(r.skew_fraction, 0.0, 1e-9);
  EXPECT_NEAR(r.straggler_slack_p99_s, 0.0, 1e-9);
  EXPECT_FALSE(r.diags.has_code("T003"));
}

TEST(Profiler, InjectedStragglerIsAttributed) {
  // Three ranks; rank 2's backward runs 250 µs longer each step, so the
  // other ranks' exchange stretches to cover the wait. Skew = 250/1250 = 20%
  // of step time, above both the 10% floor and half the exposed-comm share.
  std::string e = thread_meta(1, 10, "rank 0") + "," + thread_meta(1, 11, "rank 1") + "," +
                  thread_meta(1, 12, "rank 2");
  for (int s = 0; s < 2; ++s) {
    const double t0 = s * 1250.0;
    // Fast ranks: same phase layout, exchange padded to the straggler's pace.
    for (int tid : {10, 11}) {
      const double bwd_end = t0 + 750;
      e += "," + span("step", 1, tid, t0, 1250);
      e += "," + span("input", 1, tid, t0, 100);
      e += "," + span("forward", 1, tid, t0 + 100, 250);
      e += "," + span("backward", 1, tid, t0 + 350, 400);
      e += "," + span("exchange", 1, tid, bwd_end, 450);
      e += "," + span("negotiate", 1, tid, bwd_end, 50);
      e += "," + span("allreduce.data", 1, tid, bwd_end + 300, 120, "\"bytes\":4194304");
      e += "," + span("optimizer", 1, tid, t0 + 1200, 50);
    }
    e += "," + golden_step(12, t0, 250.0);  // rank 2: backward 650, step 1250
  }
  const ProfileReport r = profile(trace_doc(e));
  EXPECT_EQ(r.verdict, Verdict::StragglerBound) << r.verdict_reason;
  EXPECT_EQ(r.straggler_rank, 2);
  EXPECT_EQ(r.critical_rank, 2);  // its backward bounds the dominant segment
  EXPECT_NEAR(r.skew_fraction, 250.0 / 1250.0, 1e-6);
  EXPECT_GT(r.straggler_slack_p99_s, 200e-6);
  EXPECT_TRUE(r.diags.has_code("T003")) << util::render_text(r.diags);
  // Fast ranks wait 250 µs/step on the straggler; the straggler waits 0.
  ASSERT_EQ(r.utilization.size(), 3u);
  EXPECT_NEAR(r.utilization[0].slack_mean_s, 250e-6, 1e-9);
  EXPECT_NEAR(r.utilization[2].slack_mean_s, 0.0, 1e-9);
}

TEST(Profiler, SimulatedTraceOverlapAgainstEngineTrack) {
  // DES-style document: the engine track runs concurrently with compute.
  // allreduce busy [0.5 s, 0.9 s) intersects the compute union
  // [0, 0.7) ∪ [0.95, 1.0) over [0.5, 0.7) → overlap = 0.2/0.4 = 50%.
  const std::string text = trace_doc(
      thread_meta(2, 1, "compute") + "," + thread_meta(2, 2, "hvd engine") + "," +
      span("step", 2, 1, 0, 1000000) + "," + span("forward", 2, 1, 0, 300000) + "," +
      span("backward", 2, 1, 300000, 400000) + "," +
      span("exchange", 2, 1, 700000, 250000) + "," +
      span("optimizer", 2, 1, 950000, 50000) + "," +
      span("allreduce.data", 2, 2, 500000, 400000, "\"bytes\":8388608"));
  const ProfileReport r = profile(text);
  EXPECT_TRUE(r.simulated);
  EXPECT_EQ(r.steps, 1);
  EXPECT_NEAR(r.overlap_fraction, 0.5, 1e-6);
  EXPECT_NEAR(r.step_s, 1.0, 1e-9);
  EXPECT_EQ(r.verdict, Verdict::ComputeBound);  // compute 75% vs exposed 25%
}

TEST(Profiler, UnattributedStepTimeFiresT001) {
  // Phases cover only 700 of 1000 µs — 30% of the step is unexplained.
  const std::string text = trace_doc(
      thread_meta(1, 10, "rank 0") + "," + span("step", 1, 10, 0, 1000) + "," +
      span("forward", 1, 10, 0, 400) + "," + span("backward", 1, 10, 400, 300));
  const ProfileReport r = profile(text);
  EXPECT_NEAR(r.unattributed_fraction, 0.3, 1e-6);
  EXPECT_TRUE(r.diags.has_code("T001")) << util::render_text(r.diags);
  EXPECT_FALSE(r.diags.has_errors());
}

TEST(Profiler, NoStepStructureIsT005Error) {
  const ProfileReport r =
      profile(trace_doc(span("gemm", 1, 1, 0, 100) + "," + span("gemm", 1, 1, 200, 100)));
  EXPECT_TRUE(r.diags.has_code("T005"));
  EXPECT_TRUE(r.diags.has_errors());
  EXPECT_EQ(r.steps, 0);
}

TEST(Profiler, AllreduceBucketsAgainstCostModel) {
  const mpi::CollectiveCostModel cost(
      net::Topology(1, 2, hw::FabricKind::InfiniBandEDR, net::shared_memory_params()));
  ProfileOptions options;
  options.cost = &cost;
  const ProfileReport r = profile(golden_two_rank_trace(), options);
  ASSERT_EQ(r.allreduce.size(), 1u);  // every span is 4 MiB → one bucket
  const AllreduceBucket& b = r.allreduce[0];
  EXPECT_DOUBLE_EQ(b.lo_bytes, 1024.0 * 1024);
  EXPECT_EQ(b.count, 4u);  // 2 ranks x 2 steps
  EXPECT_NEAR(b.busy_s, 480e-6, 1e-9);
  EXPECT_GT(b.achieved_gbs, 0.0);
  EXPECT_GT(b.model_s, 0.0);
  EXPECT_GT(b.efficiency, 0.0);
}

TEST(Profiler, GradEventsExtractedFromFirstStep) {
  const ProfileReport r = profile(golden_two_rank_trace());
  ASSERT_EQ(r.grad_events.size(), 1u);  // rank 0, step 0: one data allreduce
  EXPECT_NEAR(r.grad_events[0].time, 460e-6, 1e-9);  // vs backward start at 350
  EXPECT_DOUBLE_EQ(r.grad_events[0].bytes, 4194304.0);
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

TEST(Profiler, JsonEnvelopeAndTextReport) {
  const ProfileReport r = profile(golden_two_rank_trace());
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"schema\":\"dnnperf-profile-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"ComputeBound\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');
  const std::string text = to_text(r);
  EXPECT_NE(text.find("verdict: ComputeBound"), std::string::npos);
  EXPECT_NE(text.find("backward"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Predicted vs measured
// ---------------------------------------------------------------------------

TEST(CompareSim, ComputePhasesRoundTripExactly) {
  const mpi::CollectiveCostModel cost(
      net::Topology(1, 2, hw::FabricKind::InfiniBandEDR, net::shared_memory_params()));
  ProfileOptions options;
  options.cost = &cost;
  const ProfileReport r = profile(golden_two_rank_trace(), options);
  const hvd::FusionPolicy policy;
  const CompareReport c = compare_with_sim(r, policy, &cost);
  ASSERT_EQ(c.phases.size(), 5u);
  for (const PhaseError& row : c.phases) {
    if (row.phase == "forward" || row.phase == "backward" || row.phase == "optimizer") {
      EXPECT_NEAR(row.rel_error, 0.0, 1e-12) << row.phase;  // fed from the measurement
    }
    EXPECT_TRUE(std::isfinite(row.rel_error)) << row.phase;
    EXPECT_GT(row.predicted_s, 0.0) << row.phase;
  }
  EXPECT_EQ(c.phases.back().phase, "step");
  EXPECT_DOUBLE_EQ(c.step_rel_error, c.phases.back().rel_error);
  EXPECT_NE(to_json(c).find("\"step_rel_error\""), std::string::npos);
  EXPECT_NE(to_text(c).find("predicted vs measured"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fresh recordings (real engine + DES)
// ---------------------------------------------------------------------------

/// Every recording test starts and ends with a clean, disabled trace state.
class ProfileRecorded : public ::testing::Test {
 protected:
  void SetUp() override {
    util::trace::set_enabled(false);
    util::trace::reset();
  }
  void TearDown() override {
    util::trace::set_enabled(false);
    util::trace::reset();
  }

  static std::string dump() {
    std::ostringstream os;
    util::trace::write_json(os);
    return os.str();
  }
};

TEST_F(ProfileRecorded, FreshTwoRankTrainingTraceProfilesClean) {
  util::trace::set_enabled(true);
  train::RealTrainConfig cfg;
  cfg.ranks = 2;
  cfg.batch_per_rank = 2;
  cfg.steps = 3;
  (void)train::run_real_training(cfg);
  util::trace::set_enabled(false);

  const hvd::FusionPolicy policy;
  ProfileOptions options;
  options.policy = &policy;
  const ProfileReport r = profile_trace_text(dump(), "real-2rank", options);
  EXPECT_FALSE(r.diags.has_errors()) << util::render_text(r.diags);
  EXPECT_FALSE(r.simulated);
  EXPECT_EQ(r.ranks, 2);
  EXPECT_EQ(r.steps, 3);
  EXPECT_GT(r.step_s, 0.0);
  EXPECT_GT(r.forward_s, 0.0);
  EXPECT_GT(r.backward_s, 0.0);
  EXPECT_GT(r.critical_path_s, 0.0);
  EXPECT_LT(r.unattributed_fraction, 0.25);
  EXPECT_FALSE(r.grad_events.empty());
  EXPECT_FALSE(r.verdict_reason.empty());
}

TEST_F(ProfileRecorded, DesTimelineTraceProfilesAsSimulated) {
  util::trace::set_enabled(true);
  const mpi::CollectiveCostModel cost(net::Topology(4, 4, hw::FabricKind::InfiniBandEDR));
  hvd::TimelineInput in;
  in.fwd_time = 0.1;
  in.bwd_time = 0.2;
  in.optimizer_time = 0.01;
  in.iterations = 2;
  in.cost = &cost;
  for (int i = 0; i < 5; ++i) in.grad_events.push_back({0.02 * (i + 1), 1e6});
  const auto sim = hvd::simulate_training(in);
  util::trace::set_enabled(false);

  const ProfileReport r = profile_trace_text(dump(), "des-timeline", {});
  EXPECT_FALSE(r.diags.has_errors()) << util::render_text(r.diags);
  EXPECT_TRUE(r.simulated);
  EXPECT_EQ(r.steps, 2);
  EXPECT_NEAR(r.step_s, sim.per_iteration, 0.05 * sim.per_iteration + 2e-6);
  // The DES engine track runs concurrently with compute; with gradients
  // submitted early in a long backward pass, some busy time must overlap.
  EXPECT_GT(r.overlap_fraction, 0.0);
}

TEST_F(ProfileRecorded, ThousandRankPerRankDesTraceUnderWallBudget) {
  util::trace::set_enabled(true);
  const mpi::CollectiveCostModel cost(net::Topology(64, 16, hw::FabricKind::OmniPath));
  hvd::TimelineInput in;
  in.fwd_time = 0.05;
  in.bwd_time = 0.15;
  in.optimizer_time = 0.005;
  in.iterations = 2;
  in.cost = &cost;
  in.sim_ranks = 1024;
  in.per_rank_jitter_cv = 0.08;
  for (int i = 0; i < 8; ++i) in.grad_events.push_back({0.015 * (i + 1), 2e6});
  const auto t0 = std::chrono::steady_clock::now();
  (void)hvd::simulate_training(in);
  util::trace::set_enabled(false);

  const ProfileReport r = profile_trace_text(dump(), "des-1024", {});
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_FALSE(r.diags.has_errors()) << util::render_text(r.diags);
  EXPECT_TRUE(r.simulated);
  EXPECT_EQ(r.ranks, 1024);  // one "sim rank N" track per rank
  ASSERT_EQ(r.utilization.size(), 1024u);
  EXPECT_GE(r.straggler_rank, 0);  // jitter makes some rank trail
  EXPECT_LT(wall, 20.0) << "simulate + profile of a 1024-rank trace blew the wall budget";
}

// ---------------------------------------------------------------------------
// Sim-point classifier (advisor/scaling-curve attribution)
// ---------------------------------------------------------------------------

TEST(ClassifySimPoint, ComputeBoundWhenComputeDominates) {
  SimPointInputs in;
  in.step_s = 1.0;
  in.forward_s = 0.3;
  in.backward_s = 0.5;
  in.optimizer_s = 0.05;
  in.comm_exposed_fraction = 0.1;
  in.comm_busy_s = 0.2;
  const SimPointVerdict v = classify_sim_point(in);
  EXPECT_EQ(v.verdict, Verdict::ComputeBound);
  EXPECT_NEAR(v.compute_share, 0.85, 1e-9);
  // busy 0.2 s of which 0.1 s is exposed → half overlapped.
  EXPECT_NEAR(v.overlap_fraction, 0.5, 1e-9);
}

TEST(ClassifySimPoint, CommBoundWhenExposedExchangeDominates) {
  SimPointInputs in;
  in.step_s = 1.0;
  in.forward_s = 0.1;
  in.backward_s = 0.2;
  in.comm_exposed_fraction = 0.65;
  in.comm_busy_s = 0.7;
  const SimPointVerdict v = classify_sim_point(in);
  EXPECT_EQ(v.verdict, Verdict::CommBound) << v.reason;
}

TEST(ClassifySimPoint, StragglerStretchWinsOverComm) {
  SimPointInputs in;
  in.step_s = 1.0;
  in.forward_s = 0.2;
  in.backward_s = 0.4;
  in.comm_exposed_fraction = 0.3;
  in.comm_busy_s = 0.35;
  in.straggler_stretch = 1.4;  // skew share = 0.4 * 0.6 = 0.24 >= 0.5 * 0.3
  const SimPointVerdict v = classify_sim_point(in);
  EXPECT_EQ(v.verdict, Verdict::StragglerBound) << v.reason;
  EXPECT_NEAR(v.straggler_share, 0.24, 1e-9);
}

TEST(ClassifySimPoint, ZeroStepTimeIsInert) {
  const SimPointVerdict v = classify_sim_point({});
  EXPECT_EQ(v.verdict, Verdict::ComputeBound);
  EXPECT_EQ(v.reason, "zero step time");
}

}  // namespace
}  // namespace dnnperf::prof
