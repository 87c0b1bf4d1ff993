// dnnperf_bench: the repository benchmark. Four seeded, closed-loop
// workloads call the program's public entry points, time those calls, check
// the outputs, and report either the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). README.md next to this file documents the
// workloads, the layer-to-end-to-end map and the calibration behind the
// bounds in BENCHMARK.json.
//
//   dnnperf_bench --workload train_exchange --seed 7 --seconds 25 --trace 0
//   dnnperf_bench --workload des_scale --seed 7 --seconds 25 --trace 1 --trace-out t.json
//   dnnperf_bench --smoke                        # every workload, tiny, every check
//   dnnperf_bench --agree results/A results/B    # do two result sets agree?
//
// A workload run prints one line per metric and ends with the JSON result
// {"correct", "attempted", "failed", "metrics"} as its last stdout line.
// Work per call is fixed in code; --seconds bounds how many calls are
// measured; --seed changes only data, query order and fault placement.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyze.hpp"
#include "analysis/verify/trace_verifier.hpp"
#include "core/advisor_service.hpp"
#include "core/eval_cache.hpp"
#include "core/scenario.hpp"
#include "dnn/models.hpp"
#include "exec/cpu_model.hpp"
#include "exec/placement.hpp"
#include "hw/platforms.hpp"
#include "mpi/collectives.hpp"
#include "mpi/world.hpp"
#include "prof/profile.hpp"
#include "prof/trace_model.hpp"
#include "ref/conv_fast.hpp"
#include "ref/kernels.hpp"
#include "ref/threadpool.hpp"
#include "train/real_trainer.hpp"
#include "train/trainer.hpp"
#include "util/cli.hpp"
#include "util/diag.hpp"
#include "util/jsonlite.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace {

using namespace dnnperf;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- metric catalogue --------------------------------------------------------
//
// BENCHMARK.json declares the same names and units; --smoke fails when the
// two drift apart. Per-layer metrics a workload does not exercise read 0.

struct MetricDef {
  const char* name;
  const char* unit;
  bool exact = false;  ///< repeats bit-for-bit across runs of one seed (--agree)
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"host.probe_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"ref.conv_fwd_gemm_share", "ratio"},
    {"ref.conv_bwd_gemm_share", "ratio"},
    {"ref.gemm_share", "ratio"},
    {"ref.gemm_at_share", "ratio"},
    {"ref.im2col_share", "ratio"},
    {"ref.maxpool_fwd_share", "ratio"},
    {"ref.dense_fwd_share", "ratio"},
    {"ref.pool_chunks_per_step", "count", true},
    {"ref.conv_fwd_gflops", "GFLOP/s"},
    {"ref.conv_bwd_gflops", "GFLOP/s"},
    {"ref.rn50_conv3x3_256_gflops", "GFLOP/s"},
    {"ref.rn50_conv1x1_1024_gflops", "GFLOP/s"},
    {"ref.rn50_stem_gflops", "GFLOP/s"},
    {"train.input_share", "ratio"},
    {"train.forward_share", "ratio"},
    {"train.backward_share", "ratio"},
    {"train.exchange_share", "ratio"},
    {"train.optimizer_share", "ratio"},
    {"train.unattributed_share", "ratio"},
    {"train.sp_images_per_s", "1/s"},
    {"train.loss_final", "loss", true},
    {"hvd.requested_per_step", "count", true},
    {"hvd.issued_per_step", "count", true},
    {"hvd.cycles_per_step", "count", true},
    {"hvd.cycle_share", "ratio"},
    {"hvd.negotiate_share", "ratio"},
    {"hvd.allreduce_data_share", "ratio"},
    {"hvd.fusion_pack_share", "ratio"},
    {"hvd.exchange_wait_ratio", "ratio"},
    {"hvd.timeline_ms", "ms"},
    {"mpi.allreduce_1f_us", "us"},
    {"mpi.allreduce_grad_us", "us"},
    {"mpi.allreduce_hier_grad_us", "us"},
    {"prof.overlap_ratio", "ratio"},
    {"prof.unattributed_ratio", "ratio"},
    {"prof.skew_ratio", "ratio"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.dedup_ratio", "ratio"},
    {"core.novel_latency_ratio", "ratio"},
    {"core.grid_points", "count", true},
    {"core.cold_evaluations", "count", true},
    {"core.warm_evaluations", "count", true},
    {"core.plan_grid_us", "us"},
    {"core.eval_ms", "ms"},
    {"dnn.build_model_ms", "ms"},
    {"exec.price_ms", "ms"},
    {"sim.events_per_call", "count", true},
    {"sim.pool_slots", "count", true},
    {"sim.virtual_step_s", "sim_s", true},
    {"sim.fault_call_ratio", "ratio"},
};

const char* const kWorkloads[] = {"train_compute", "train_exchange", "advisor_mix", "des_scale"};

// ---- run bookkeeping -----------------------------------------------------------

struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string trace_out;

  std::uint64_t attempted = 0;  ///< operations issued plus checks made
  std::uint64_t failed = 0;     ///< operations that threw plus checks that failed
  std::vector<std::string> problems;
  std::map<std::string, double> values;
  std::map<std::string, std::string> notes;  ///< printed beside the value

  void ops(std::uint64_t n, std::uint64_t bad = 0) {
    attempted += n;
    failed += bad;
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problems.push_back(what);
    }
  }
  void fail(const std::string& what) {
    ++failed;
    problems.push_back(what);
  }
  void set(const std::string& name, double value, std::string note = {}) {
    values[name] = value;
    if (!note.empty()) notes[name] = std::move(note);
  }
};

using util::median;

std::string samples_note(std::size_t n) { return "n=" + std::to_string(n); }

/// The e2e latency pair: the median and the workload's tail percentile (the
/// highest one with at least ten samples beyond it at the calibrated rates).
void set_latency(Run& run, const std::vector<double>& ms, double tail_p) {
  run.set("latency_p50_ms", util::percentile(ms, 0.5), samples_note(ms.size()));
  const int pct = static_cast<int>(std::lround(tail_p * 100));
  run.set("latency_tail_ms", util::percentile(ms, tail_p),
          "p" + std::to_string(pct) + ", " + samples_note(ms.size()));
}

/// Moves the calling thread round-robin over the CPUs the process may use,
/// and restores the full set when destroyed. On a shared VM the vCPUs run
/// at different speeds (1.5x apart on a 4-vCPU Xeon guest, changing as
/// neighbours come and go), and a single-threaded measurement left to the
/// scheduler stays on whichever one it started on; rotating makes every
/// run sample all of them alike. Threads created while pinned inherit the
/// pin, so rotate only around single-threaded calls. Without permission to
/// set affinity it does nothing.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the k-th allowed CPU, modulo their count.
  void pin(std::size_t k) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// A fixed single-thread integer loop: its time moves with the host, never
/// with the program, so a slow run can be told apart from slow code.
std::atomic<std::uint64_t> g_probe_sink{0};

double host_probe_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_probe_sink.store(x, std::memory_order_relaxed);
  return since(t0) * 1e3;
}

// ---- benchmark-side spans -----------------------------------------------------
//
// Spans around the public calls, kept in memory while program tracing is
// off and emitted at the end on the recording thread's own track.

struct BenchSpan {
  std::string name;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
};

using SpanLog = std::vector<BenchSpan>;

/// Times fn(); appends a span to `log` when one is given. Returns seconds.
template <typename Fn>
double timed(SpanLog* log, const char* name, Fn&& fn) {
  const std::uint64_t ts = util::trace::now_us();
  const auto t0 = Clock::now();
  fn();
  const double s = since(t0);
  if (log != nullptr) log->push_back({name, ts, util::trace::now_us() - ts});
  return s;
}

void emit_spans(const SpanLog& log, const std::string& track) {
  util::trace::set_thread_name(track);
  for (const BenchSpan& s : log) util::trace::emit_complete(s.name, "bench", s.ts_us, s.dur_us);
}

/// Verifies a trace document (no V10x findings allowed) and writes it to
/// --trace-out when asked.
void finish_trace(Run& run, const std::string& text) {
  const util::Diagnostics diags = analysis::verify_trace_text(text, run.workload + " trace");
  std::string codes;
  for (const auto& d : diags.items())
    if (d.code.starts_with("V1")) codes += " " + d.code;
  run.check(codes.empty(), "trace verifier findings:" + codes);
  if (!run.trace_out.empty()) {
    std::ofstream out(run.trace_out);
    run.check(static_cast<bool>(out << text << std::flush), "cannot write " + run.trace_out);
  }
}

std::string recorded_trace() {
  std::ostringstream os;
  util::trace::write_json(os);
  return os.str();
}

/// Writes benchmark spans from the main thread and from one short-lived
/// thread per client log (each gets its own track), then verifies.
void finish_bench_trace(Run& run, const SpanLog& main_log, const std::vector<SpanLog>& clients) {
  util::trace::set_enabled(true);
  emit_spans(main_log, "bench main");
  for (std::size_t c = 0; c < clients.size(); ++c)
    std::thread([&, c] { emit_spans(clients[c], "bench client " + std::to_string(c)); }).join();
  util::trace::set_enabled(false);
  finish_trace(run, recorded_trace());
}

// ---- per-layer probes -----------------------------------------------------------
//
// Fixed calls into the layers every traced run makes, so each time-valued
// per-layer metric is measured on every workload.

struct DesPlan {
  int nodes = 64;  ///< x 16 ppn = 1024 ranks: enough calls per run for a p95
  int ppn = 16;
  int iterations = 3;
  int scenarios = 8;  ///< distinct seeded crash+rejoin schedules
};

train::TrainConfig des_config(const DesPlan& plan) {
  train::TrainConfig cfg;
  cfg.cluster = hw::stampede2();
  cfg.cluster.max_nodes = std::max(cfg.cluster.max_nodes, plan.nodes);
  cfg.model = dnn::ModelId::ResNet50;
  cfg.framework = exec::Framework::TensorFlow;
  cfg.nodes = plan.nodes;
  cfg.ppn = plan.ppn;
  cfg.iterations = plan.iterations;
  cfg.use_horovod = true;
  cfg.per_rank_sim = true;
  cfg.hierarchy = train::CommHierarchy::TwoLevel;
  return cfg;
}

/// GFLOP/s of conv2d_forward_gemm (and, when `backward`, conv2d_backward_gemm,
/// whose two GEMMs do twice the forward's work) on one intra-op thread.
std::pair<double, double> conv_gflops(int n, int c, int hw, int oc, int k, ref::ConvSpec spec,
                                      int reps, bool backward) {
  util::Rng rng(11);
  const ref::Tensor x = ref::Tensor::randn({n, c, hw, hw}, rng);
  const ref::Tensor w = ref::Tensor::randn({oc, c, k, k}, rng, 0.1f);
  const ref::Tensor b = ref::Tensor::zeros({oc});
  ref::ThreadPool pool(1);
  const int out = (hw + 2 * spec.pad - k) / spec.stride + 1;
  const double flops = 2.0 * n * out * out * oc * c * k * k;
  std::vector<double> fwd, bwd;
  ref::Tensor y, dx, dw, db;
  for (int r = 0; r < reps; ++r) {
    fwd.push_back(timed(nullptr, "", [&] { y = ref::conv2d_forward_gemm(x, w, b, spec, pool); }));
    if (backward)
      bwd.push_back(timed(nullptr, "", [&] {
        ref::conv2d_backward_gemm(x, w, y, spec, dx, dw, db, pool);
      }));
  }
  return {flops / median(fwd) / 1e9, backward ? 2.0 * flops / median(bwd) / 1e9 : 0.0};
}

void probe_ref(Run& run, int reps) {
  // The train_compute network's second convolution (8->16, 3x3 @ 16x16,
  // batch 32), checked against the direct kernel, then the three ResNet-50
  // shapes the exec model prices.
  {
    util::Rng rng(5);
    const ref::Tensor x = ref::Tensor::randn({32, 8, 16, 16}, rng);
    const ref::Tensor w = ref::Tensor::randn({16, 8, 3, 3}, rng, 0.1f);
    const ref::Tensor b = ref::Tensor::zeros({16});
    ref::ThreadPool pool(1);
    const float err = ref::max_abs_diff(ref::conv2d_forward_gemm(x, w, b, {1, 1}, pool),
                                        ref::conv2d_forward(x, w, b, {1, 1}, pool));
    run.check(err <= 1e-4f, "conv2d_forward_gemm deviates from the direct kernel by " +
                                std::to_string(err));
  }
  const auto [fwd, bwd] = conv_gflops(32, 8, 16, 16, 3, {1, 1}, reps * 4, true);
  run.set("ref.conv_fwd_gflops", fwd);
  run.set("ref.conv_bwd_gflops", bwd);
  run.set("ref.rn50_conv3x3_256_gflops", conv_gflops(1, 256, 14, 256, 3, {1, 1}, reps, false).first);
  run.set("ref.rn50_conv1x1_1024_gflops",
          conv_gflops(1, 256, 14, 1024, 1, {1, 0}, reps, false).first);
  run.set("ref.rn50_stem_gflops", conv_gflops(1, 3, 224, 64, 7, {2, 3}, reps, false).first);
}

/// Per-op time of three collectives on `ranks` rank threads: one float, the
/// train workloads' 1460-float gradient flat, and the same gradient through
/// the staged hierarchical allreduce with groups of two.
void probe_mpi(Run& run, int ranks, int reps) {
  constexpr std::size_t kGradFloats = 1460;
  std::vector<double> one_us, grad_us, hier_us;
  bool sums_ok = true;
  mpi::World::run(ranks, [&](mpi::Comm& comm) {
    std::vector<float> one(1), grad(kGradFloats);
    const int groups[] = {2};
    auto time_op = [&](std::vector<float>& buf, std::vector<double>& out, auto&& op) {
      comm.barrier();
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) {
        std::fill(buf.begin(), buf.end(), 1.0f);
        op();
      }
      if (comm.rank() == 0) {
        out.push_back(since(t0) / reps * 1e6);
        sums_ok = sums_ok && buf.front() == static_cast<float>(ranks) &&
                  buf.back() == static_cast<float>(ranks);
      }
    };
    for (int round = 0; round < 5; ++round) {
      time_op(one, one_us, [&] { mpi::allreduce(comm, std::span<float>(one), mpi::ReduceOp::Sum); });
      time_op(grad, grad_us,
              [&] { mpi::allreduce(comm, std::span<float>(grad), mpi::ReduceOp::Sum); });
      time_op(grad, hier_us, [&] {
        mpi::allreduce_hierarchical_stages(comm, std::span<float>(grad), mpi::ReduceOp::Sum,
                                           std::span<const int>(groups));
      });
    }
  });
  run.check(sums_ok, "mpi probe allreduce produced a wrong sum");
  run.set("mpi.allreduce_1f_us", median(one_us), std::to_string(ranks) + " ranks");
  run.set("mpi.allreduce_grad_us", median(grad_us), std::to_string(ranks) + " ranks");
  run.set("mpi.allreduce_hier_grad_us", median(hier_us), std::to_string(ranks) + " ranks");
}

/// Splits one des_scale call into graph build, exec-model pricing and the
/// rest (the Horovod timeline DES), and prices one advisor grid point.
void probe_des_and_advisor(Run& run, const DesPlan& des, int reps, SpanLog* log) {
  const train::TrainConfig cfg = des_config(des);
  std::vector<double> build_ms, price_ms, call_ms;
  std::optional<dnn::Graph> built;
  for (int r = 0; r < reps; ++r)
    build_ms.push_back(
        timed(log, "probe.dnn.build_model", [&] { built.emplace(dnn::build_model(cfg.model)); }) *
        1e3);
  const dnn::Graph& graph = *built;

  const train::ThreadConfig threads = train::resolve_thread_config(cfg);
  exec::ExecConfig ec;
  ec.framework = cfg.framework;
  ec.intra_threads = threads.intra;
  ec.inter_threads = threads.inter;
  ec.batch = cfg.batch_per_rank;
  ec.horovod_thread = true;
  const exec::Placement placement = exec::place_rank(cfg.cluster.node.cpu, cfg.ppn, threads.intra);
  const exec::CpuExecModel model(cfg.cluster.node.cpu);
  double priced = 0.0;
  for (int r = 0; r < reps; ++r)
    price_ms.push_back(timed(log, "probe.exec.price", [&] {
                         priced = model.forward(graph, ec, placement).duration +
                                  model.backward(graph, ec, placement).duration;
                       }) * 1e3);
  run.check(priced > 0.0 && std::isfinite(priced), "exec model priced a non-positive pass");

  train::TrainResult result;
  for (int r = 0; r < reps; ++r)
    call_ms.push_back(
        timed(log, "probe.train.run_training", [&] { result = train::run_training(cfg); }) * 1e3);
  run.set("dnn.build_model_ms", median(build_ms));
  run.set("exec.price_ms", median(price_ms));
  run.set("hvd.timeline_ms", median(call_ms) - median(build_ms) - median(price_ms),
          std::to_string(des.nodes * des.ppn) + "-rank call minus build and price");
  run.set("sim.events_per_call", static_cast<double>(result.sim_events));
  run.set("sim.pool_slots", static_cast<double>(result.sim_pool_slots));
  run.set("sim.virtual_step_s", result.per_iteration_s);
  run.check(result.sim_events > 0 && std::isfinite(result.per_iteration_s),
            "des probe produced no events");

  // One advisor request's grid: planning cost and per-point evaluation.
  core::AdvisorRequest req;
  req.cluster = hw::stampede2();
  req.nodes = 4;
  std::vector<train::TrainConfig> grid;
  std::vector<double> plan_us, eval_ms;
  for (int r = 0; r < reps * 10; ++r)
    plan_us.push_back(timed(nullptr, "", [&] { grid = core::AdvisorService::plan_grid(req); }) * 1e6);
  for (const auto& point : grid)
    eval_ms.push_back(timed(log, "probe.core.eval", [&] { train::run_training(point); }) * 1e3);
  run.set("core.plan_grid_us", median(plan_us), std::to_string(grid.size()) + " points");
  run.set("core.eval_ms", median(eval_ms), samples_note(eval_ms.size()));
}

void probe_layers(Run& run, int mpi_ranks, SpanLog* log) {
  const int reps = run.smoke ? 1 : 3;
  DesPlan des;
  if (run.smoke) des.nodes = 8;
  probe_ref(run, reps);
  probe_mpi(run, mpi_ranks, run.smoke ? 20 : 200);
  probe_des_and_advisor(run, des, reps, log);
}

// ---- trace tally (train workloads) -----------------------------------------------

/// Self and inclusive time per span name over the rank tracks of recorded
/// traces. Pool "chunk" spans are counted but treated as transparent: a
/// kernel's self time includes the chunks its calling thread ran.
struct TraceTally {
  std::map<std::string, double> self_us;
  std::map<std::string, double> total_us;
  double step_us = 0.0;
  double chunks = 0.0;
  int steps = 0;
  double overlap = 0.0, unattributed = 0.0, skew = 0.0;
  int traces = 0;
};

void tally_trace(Run& run, const std::string& text, TraceTally& tally) {
  util::Diagnostics diags;
  const prof::TraceModel model = prof::parse_trace(text, run.workload, diags);
  run.check(!model.empty(), "recorded trace does not parse");
  for (const prof::Track& track : model.tracks) {
    struct Open {
      const prof::Span* span;
      double child_us;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      tally.self_us[o.span->name] += std::max(0.0, o.span->duration() - o.child_us);
      tally.total_us[o.span->name] += o.span->duration();
    };
    for (const prof::Span& s : track.spans) {
      if (s.name == "chunk") {
        ++tally.chunks;
        continue;
      }
      if (track.rank() < 0) continue;
      while (!stack.empty() && stack.back().span->end <= s.start) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_us += s.duration();
      stack.push_back({&s, 0.0});
      if (s.name == "step") {
        tally.step_us += s.duration();
        if (track.rank() == 0) ++tally.steps;
      }
    }
    for (const Open& o : stack) close(o);
  }
  const prof::ProfileReport report = prof::profile_trace(model, run.workload);
  tally.overlap += report.overlap_fraction;
  tally.unattributed += report.unattributed_fraction;
  tally.skew += report.skew_fraction;
  ++tally.traces;
  finish_trace(run, text);
}

// ---- train_compute / train_exchange ----------------------------------------------

struct TrainPlan {
  int ranks = 2;
  int threads = 2;
  int ranks_per_node = 0;
  int batch = 32;
  int image = 32;
  int steps_per_call = 2;  ///< one latency sample = the mean step of one call
  int traced_steps = 24;   ///< steps per traced call (bounds the trace size)
  double tail_p = 0.95;
};

TrainPlan train_plan(bool exchange, bool smoke) {
  TrainPlan p;
  if (exchange) {
    // Tiny images and one image per rank: the engine and the mailbox do the
    // work, hierarchically (two ranks per node).
    p = {4, 1, 2, 1, 8, 50, 400, 0.99};
    if (smoke) p.steps_per_call = 5, p.traced_steps = 20;
  } else if (smoke) {
    p.batch = 4;
    p.image = 8;
    p.traced_steps = 4;
  }
  return p;
}

train::RealTrainConfig train_config(const TrainPlan& plan, std::uint64_t seed, int steps) {
  train::RealTrainConfig cfg;
  cfg.ranks = plan.ranks;
  cfg.threads_per_rank = plan.threads;
  cfg.ranks_per_node = plan.ranks_per_node;
  cfg.batch_per_rank = plan.batch;
  cfg.image_size = plan.image;
  cfg.steps = steps;
  cfg.seed = seed;
  return cfg;
}

std::uint64_t nonfinite_losses(const train::RealTrainResult& r) {
  return static_cast<std::uint64_t>(
      std::count_if(r.losses.begin(), r.losses.end(), [](float l) { return !std::isfinite(l); }));
}

/// Data-parallel training must match single-process training on the
/// combined batch: a 4-step prefix, BN off, parameters within 1e-5.
void check_mp_equals_sp(Run& run, const TrainPlan& plan) {
  const auto cfg = train_config(plan, run.seed, 4);
  const train::RealTrainResult mp = train::run_real_training(cfg);
  const train::RealTrainResult sp = train::run_real_training_single(cfg);
  float worst = mp.final_params.size() == sp.final_params.size() ? 0.0f : INFINITY;
  for (std::size_t i = 0; i < mp.final_params.size() && std::isfinite(worst); ++i)
    worst = std::max(worst, std::fabs(mp.final_params[i] - sp.final_params[i]));
  run.check(worst <= 1e-5f, "MP vs SP parameters differ by " + std::to_string(worst));
  run.check(nonfinite_losses(mp) + nonfinite_losses(sp) == 0 && !mp.losses.empty(),
            "non-finite loss in the MP/SP prefix");
  run.set("train.loss_final", mp.losses.empty() ? 0.0 : mp.losses.back(), "step 4");
}

void train_end_to_end(Run& run, const TrainPlan& plan) {
  const auto cfg = train_config(plan, run.seed, plan.steps_per_call);
  const double global_batch = static_cast<double>(plan.ranks) * plan.batch;
  std::vector<double> step_ms, setup_s;
  double images = 0.0, train_s = 0.0;
  const auto start = Clock::now();
  while (since(start) < run.seconds) {
    try {
      const auto t0 = Clock::now();
      const train::RealTrainResult r = train::run_real_training(cfg);
      const double wall = since(t0);
      const std::uint64_t bad = nonfinite_losses(r);
      run.ops(static_cast<std::uint64_t>(cfg.steps), bad);
      if (bad > 0) run.problems.push_back("non-finite loss");
      step_ms.push_back(r.wall_seconds / cfg.steps * 1e3);
      setup_s.push_back(wall - r.wall_seconds);
      images += global_batch * cfg.steps;
      train_s += r.wall_seconds;
    } catch (const std::exception& e) {
      run.ops(static_cast<std::uint64_t>(cfg.steps), static_cast<std::uint64_t>(cfg.steps));
      run.problems.push_back(std::string("run_real_training threw: ") + e.what());
    }
  }
  if (step_ms.empty()) throw std::runtime_error("no training call completed");
  run.set("setup_s", median(setup_s), "per call, " + samples_note(setup_s.size()));
  run.set("throughput_per_s", images / train_s, "images/s");
  set_latency(run, step_ms, plan.tail_p);
}

void train_traced(Run& run, const TrainPlan& plan, Clock::time_point start) {
  const auto cfg = train_config(plan, run.seed, plan.traced_steps);
  TraceTally tally;
  std::vector<double> overhead;
  double phase[5] = {}, step_s = 0.0;
  hvd::CommStats comm;
  // Untraced and traced calls alternate so host drift hits both alike.
  do {
    const train::RealTrainResult plain = train::run_real_training(cfg);
    const util::RunStats* ph[] = {&plain.phases.input, &plain.phases.forward,
                                  &plain.phases.backward, &plain.phases.exchange,
                                  &plain.phases.optimizer};
    for (int i = 0; i < 5; ++i) phase[i] += ph[i]->mean() * static_cast<double>(ph[i]->count());
    step_s += plain.phases.step.mean() * static_cast<double>(plain.phases.step.count());

    util::trace::reset();
    util::trace::set_enabled(true);
    util::trace::set_thread_name("bench main");
    train::RealTrainResult traced;
    {
      util::trace::Span span("bench", "train.run_real_training");
      traced = train::run_real_training(cfg);
    }
    util::trace::set_enabled(false);
    tally_trace(run, recorded_trace(), tally);
    overhead.push_back(traced.wall_seconds / plain.wall_seconds - 1.0);
    comm = traced.comm;
    run.ops(2 * static_cast<std::uint64_t>(cfg.steps),
            nonfinite_losses(plain) + nonfinite_losses(traced));
  } while (since(start) < run.seconds);

  const double steps = cfg.steps;
  const char* phase_names[] = {"train.input_share", "train.forward_share", "train.backward_share",
                               "train.exchange_share", "train.optimizer_share"};
  double attributed = 0.0;
  for (int i = 0; i < 5; ++i) {
    run.set(phase_names[i], phase[i] / step_s);
    attributed += phase[i];
  }
  run.set("train.unattributed_share", 1.0 - attributed / step_s);

  auto share = [&](const char* name, const std::map<std::string, double>& by_name) {
    const auto it = by_name.find(name);
    return it == by_name.end() || tally.step_us <= 0.0 ? 0.0 : it->second / tally.step_us;
  };
  run.set("ref.conv_fwd_gemm_share", share("conv2d_fwd_gemm", tally.self_us), "self time");
  run.set("ref.conv_bwd_gemm_share", share("conv2d_bwd_gemm", tally.self_us), "self time");
  run.set("ref.gemm_share", share("gemm", tally.self_us), "self time");
  run.set("ref.gemm_at_share", share("gemm_at", tally.self_us), "self time");
  run.set("ref.im2col_share", share("im2col", tally.self_us), "self time");
  run.set("ref.maxpool_fwd_share", share("maxpool_fwd", tally.self_us), "self time");
  run.set("ref.dense_fwd_share", share("dense_fwd", tally.self_us), "self time");
  run.set("ref.pool_chunks_per_step", tally.steps > 0 ? tally.chunks / tally.steps : 0.0);
  run.set("hvd.cycle_share", share("engine.cycle", tally.total_us));
  run.set("hvd.negotiate_share", share("negotiate", tally.total_us));
  run.set("hvd.allreduce_data_share", share("allreduce.data", tally.total_us));
  run.set("hvd.fusion_pack_share", share("fusion.pack", tally.total_us));
  const double exchange_us = tally.total_us["exchange"];
  run.set("hvd.exchange_wait_ratio",
          exchange_us > 0.0 ? 1.0 - tally.total_us["engine.cycle"] / exchange_us : 0.0);
  run.set("hvd.requested_per_step", static_cast<double>(comm.framework_requests) / steps);
  run.set("hvd.issued_per_step", static_cast<double>(comm.data_allreduces) / steps);
  run.set("hvd.cycles_per_step", static_cast<double>(comm.engine_wakeups) / steps);
  run.set("prof.overlap_ratio", tally.overlap / tally.traces);
  run.set("prof.unattributed_ratio", tally.unattributed / tally.traces);
  run.set("prof.skew_ratio", tally.skew / tally.traces);
  run.set("trace.overhead_ratio", median(overhead), samples_note(overhead.size()) + " call pairs");

  const train::RealTrainResult sp = train::run_real_training_single(cfg);
  run.ops(static_cast<std::uint64_t>(cfg.steps), nonfinite_losses(sp));
  run.set("train.sp_images_per_s", sp.images_per_sec, "same global batch, one worker");
}

void run_train(Run& run, bool exchange) {
  const auto start = Clock::now();
  const TrainPlan plan = train_plan(exchange, run.smoke);
  check_mp_equals_sp(run, plan);
  if (run.traced) {
    probe_layers(run, plan.ranks, nullptr);
    train_traced(run, plan, start);
  } else {
    train_end_to_end(run, plan);
  }
}

// ---- advisor_mix -------------------------------------------------------------------

struct AdvisorPlan {
  int clients = 2;
  std::size_t batch = 4;
  int pool = 4;
  int setups = 3;           ///< fresh service + cold phase, timed each
  int novel_every = 50;     ///< one request in this many is novel
  int traced_calls = 1500;  ///< ask_many calls per client in the traced segment
  std::size_t novel_checks = 200;
  std::vector<int> nodes{1, 2, 4, 8};
};

std::vector<core::AdvisorRequest> distinct_requests(const AdvisorPlan& plan) {
  std::vector<core::AdvisorRequest> out;
  for (const auto model : {dnn::ModelId::ResNet50, dnn::ModelId::ResNet101,
                           dnn::ModelId::ResNet152, dnn::ModelId::InceptionV3})
    for (const auto fw : {exec::Framework::TensorFlow, exec::Framework::PyTorch})
      for (const int nodes : plan.nodes) {
        core::AdvisorRequest req;
        req.cluster = hw::stampede2();
        req.model = model;
        req.framework = fw;
        req.nodes = nodes;
        out.push_back(std::move(req));
      }
  return out;
}

/// A request no earlier query asked: ResNet-50 with one rank per core (a
/// one- or two-point grid, small enough that ask_many evaluates it on the
/// calling thread), a fresh batch size and a fresh fusion threshold. One
/// model keeps the cost of a miss unimodal (about 5 ms on a 2.1 GHz Xeon
/// vCPU; ResNet-152 costs three times as much), so the tail percentile sits
/// inside one mode.
core::AdvisorRequest novel_request(const core::AdvisorRequest& base, util::Rng& rng) {
  core::AdvisorRequest req = base;
  req.model = dnn::ModelId::ResNet50;
  req.ppn_candidates = {req.cluster.node.cpu.total_cores()};
  req.batch_candidates = {static_cast<int>(rng.uniform_int(8, 128))};
  req.policy.fusion_threshold_bytes = static_cast<double>(rng.uniform_int(1 << 20, 128 << 20));
  return req;
}

struct ColdReply {
  double objective = 0.0;
  std::uint64_t best_key = 0;
};

struct ClientLog {
  std::vector<double> ms;        ///< every ask_many call
  std::vector<double> novel_ms;  ///< calls whose batch held a novel request
  std::vector<double> plain_ms;  ///< calls with only repeated requests
  std::vector<std::pair<core::AdvisorRequest, double>> novel;  ///< request, objective
  std::uint64_t requests = 0, mismatches = 0, failures = 0;
  std::size_t grid_points = 0, deduplicated = 0, evaluated = 0;
  SpanLog spans;
};

/// One closed-loop client: build a seeded batch, ask, check every reply of
/// a repeated request against its cold reply bit for bit; stop at the
/// deadline or after `calls` calls.
void advisor_client(core::AdvisorService& service,
                    const std::vector<core::AdvisorRequest>& distinct,
                    const std::vector<ColdReply>& cold, const AdvisorPlan& plan,
                    std::uint64_t stream, Clock::time_point deadline, int calls, bool spans,
                    ClientLog& log) {
  util::Rng rng(stream);
  std::vector<core::AdvisorRequest> batch;
  std::vector<int> index;  ///< distinct index, -1 for a novel request
  for (int call = 0; calls <= 0 || call < calls; ++call) {
    if (calls <= 0 && Clock::now() >= deadline) break;
    batch.clear();
    index.clear();
    bool has_novel = false;
    for (std::size_t b = 0; b < plan.batch; ++b) {
      const auto i = static_cast<int>(rng.uniform_int(0, static_cast<std::int64_t>(distinct.size()) - 1));
      if (rng.uniform_int(0, plan.novel_every - 1) == 0) {
        batch.push_back(novel_request(distinct[static_cast<std::size_t>(i)], rng));
        index.push_back(-1);
        has_novel = true;
      } else {
        batch.push_back(distinct[static_cast<std::size_t>(i)]);
        index.push_back(i);
      }
    }
    std::vector<core::AdvisorReply> replies;
    double s = 0.0;
    try {
      s = timed(spans ? &log.spans : nullptr, "advisor.ask_many",
                [&] { replies = service.ask_many(batch); });
    } catch (const std::exception&) {
      log.failures += batch.size();
      log.requests += batch.size();
      continue;
    }
    log.requests += batch.size();
    log.ms.push_back(s * 1e3);
    (has_novel ? log.novel_ms : log.plain_ms).push_back(s * 1e3);
    for (std::size_t b = 0; b < replies.size(); ++b) {
      const core::AdvisorReply& r = replies[b];
      log.grid_points += r.grid_points;
      log.deduplicated += r.deduplicated;
      log.evaluated += r.evaluated;
      if (index[b] < 0) {
        log.novel.emplace_back(batch[b], r.objective_value);
      } else {
        const ColdReply& c = cold[static_cast<std::size_t>(index[b])];
        if (r.objective_value != c.objective ||
            core::config_key(r.recommendation.best) != c.best_key)
          ++log.mismatches;
      }
    }
  }
}

/// Runs the clients to the deadline (calls <= 0) or for `calls` calls each.
std::vector<ClientLog> advisor_clients(core::AdvisorService& service,
                                       const std::vector<core::AdvisorRequest>& distinct,
                                       const std::vector<ColdReply>& cold,
                                       const AdvisorPlan& plan, std::uint64_t stream,
                                       double seconds, int calls, bool spans) {
  std::vector<ClientLog> logs(static_cast<std::size_t>(plan.clients));
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < plan.clients; ++c)
    threads.emplace_back([&, c] {
      advisor_client(service, distinct, cold, plan, stream * 1000003 + static_cast<std::uint64_t>(c),
                     deadline, calls, spans, logs[static_cast<std::size_t>(c)]);
    });
  for (auto& t : threads) t.join();
  return logs;
}

/// Replies must match their cold replies; a seeded sample of the novel
/// requests is re-priced by calling run_training on each planned point.
void check_advisor(Run& run, const std::vector<ClientLog>& logs, const AdvisorPlan& plan) {
  std::vector<const std::pair<core::AdvisorRequest, double>*> novel;
  for (const ClientLog& log : logs) {
    run.ops(log.requests, log.failures);
    run.check(log.mismatches == 0,
              std::to_string(log.mismatches) + " warm replies differ from their cold reply");
    for (const auto& n : log.novel) novel.push_back(&n);
  }
  const std::size_t stride = std::max<std::size_t>(1, novel.size() / plan.novel_checks);
  for (std::size_t i = 0; i < novel.size(); i += stride) {
    double best = 0.0;
    for (const auto& cfg : core::AdvisorService::plan_grid(novel[i]->first))
      best = std::max(best, train::run_training(cfg).images_per_sec);
    run.check(best == novel[i]->second, "novel reply differs from a direct run_training");
  }
}

void run_advisor(Run& run) {
  const auto start = Clock::now();
  AdvisorPlan plan;
  if (run.smoke) {
    plan.nodes = {1, 2};
    plan.setups = 1;
    plan.traced_calls = 50;
    plan.novel_every = 5;
    plan.novel_checks = 10;
  }
  SpanLog main_spans;
  SpanLog* log = run.traced ? &main_spans : nullptr;
  if (run.traced) probe_layers(run, 4, log);

  const auto distinct = distinct_requests(plan);
  core::AdvisorServiceOptions options;
  options.threads = plan.pool;
  std::unique_ptr<core::AdvisorService> service;
  std::vector<ColdReply> cold, first_cold;
  std::vector<double> setup_s;
  std::size_t grid_points = 0, cold_evaluated = 0;
  const int setups = run.traced ? 1 : plan.setups;
  for (int s = 0; s < setups; ++s) {
    service.reset();
    cold.clear();
    grid_points = cold_evaluated = 0;
    setup_s.push_back(timed(log, "advisor.setup", [&] {
      service = std::make_unique<core::AdvisorService>(options);
      for (const auto& req : distinct) {
        const core::AdvisorReply r = service->ask(req);
        cold.push_back({r.objective_value, core::config_key(r.recommendation.best)});
        grid_points += r.grid_points;
        cold_evaluated += r.evaluated;
      }
    }));
    run.ops(distinct.size());
    if (s == 0) first_cold = cold;
    run.check(cold.size() == first_cold.size() &&
                  std::equal(cold.begin(), cold.end(), first_cold.begin(),
                             [](const ColdReply& a, const ColdReply& b) {
                               return a.objective == b.objective && a.best_key == b.best_key;
                             }),
              "cold replies differ between fresh services");
  }

  if (!run.traced) {
    const auto t0 = Clock::now();
    const auto logs = advisor_clients(*service, distinct, cold, plan, run.seed, run.seconds, 0, false);
    const double window = since(t0);
    std::vector<double> ms;
    std::uint64_t requests = 0;
    for (const auto& l : logs) {
      ms.insert(ms.end(), l.ms.begin(), l.ms.end());
      requests += l.requests - l.failures;
    }
    check_advisor(run, logs, plan);
    run.set("setup_s", median(setup_s),
            "service + cold phase (" + std::to_string(distinct.size()) + " requests), " +
                samples_note(setup_s.size()));
    run.set("throughput_per_s", static_cast<double>(requests) / window, "requests/s");
    set_latency(run, ms, 0.99);
    return;
  }

  // Traced: a fixed number of calls per client with benchmark spans on,
  // straight after the cold phase so its counts repeat exactly for one
  // seed, then untraced calls for the rest of the time.
  const core::EvalCacheStats before = service->cache().stats();
  const auto traced = advisor_clients(*service, distinct, cold, plan, run.seed ^ 0x5bd1e995u, 0.0,
                                      plan.traced_calls, true);
  const core::EvalCacheStats after = service->cache().stats();
  const auto plain = advisor_clients(*service, distinct, cold, plan, run.seed,
                                     std::max(0.1, run.seconds - since(start)), 0, false);

  std::vector<double> plain_ms, traced_ms, novel_ms, repeat_ms;
  std::size_t grid = 0, dedup = 0, evaluated = 0;
  for (const auto& l : plain) {
    plain_ms.insert(plain_ms.end(), l.ms.begin(), l.ms.end());
    novel_ms.insert(novel_ms.end(), l.novel_ms.begin(), l.novel_ms.end());
    repeat_ms.insert(repeat_ms.end(), l.plain_ms.begin(), l.plain_ms.end());
  }
  std::vector<SpanLog> client_spans;
  for (const auto& l : traced) {
    traced_ms.insert(traced_ms.end(), l.ms.begin(), l.ms.end());
    novel_ms.insert(novel_ms.end(), l.novel_ms.begin(), l.novel_ms.end());
    repeat_ms.insert(repeat_ms.end(), l.plain_ms.begin(), l.plain_ms.end());
    grid += l.grid_points;
    dedup += l.deduplicated;
    evaluated += l.evaluated;
    client_spans.push_back(l.spans);
  }
  check_advisor(run, plain, plan);
  check_advisor(run, traced, plan);
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t lookups = hits + (after.misses - before.misses);
  run.set("core.cache_hit_ratio", lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
          "traced segment");
  run.set("core.dedup_ratio", grid > 0 ? static_cast<double>(dedup) / grid : 0.0, "traced segment");
  run.set("core.novel_latency_ratio",
          novel_ms.empty() || repeat_ms.empty() ? 0.0 : median(novel_ms) / median(repeat_ms),
          "p50 call with a novel request / p50 call without");
  run.set("core.grid_points", static_cast<double>(grid_points), "cold phase");
  run.set("core.cold_evaluations", static_cast<double>(cold_evaluated));
  run.set("core.warm_evaluations", static_cast<double>(evaluated), "traced segment");
  run.set("trace.overhead_ratio", median(traced_ms) / median(plain_ms) - 1.0);
  finish_bench_trace(run, main_spans, client_spans);
}

// ---- des_scale -----------------------------------------------------------------------

std::string scenario_text(int k, int rank, int crash, int rejoin) {
  return "{\"name\": \"crash-rejoin-" + std::to_string(k) + "\", \"fault_budget\": 2, " +
         "\"crashes\": [{\"rank\": " + std::to_string(rank) + ", \"step\": " +
         std::to_string(crash) + "}], \"rejoins\": [{\"rank\": " + std::to_string(rank) +
         ", \"step\": " + std::to_string(rejoin) + "}]}";
}

void run_des(Run& run) {
  const auto start = Clock::now();
  DesPlan plan;
  if (run.smoke) plan.nodes = 8, plan.scenarios = 2;
  SpanLog spans;
  SpanLog* log = run.traced ? &spans : nullptr;
  if (run.traced) probe_layers(run, 4, log);

  // Set-up: turn each seeded fault schedule into a checked config — parse
  // the scenario JSON, F-lint it, stamp it on the base config and run the
  // full config lint (with the elastic model check) a scenario run is gated on.
  const train::TrainConfig healthy = des_config(plan);
  const int world = plan.nodes * plan.ppn;
  util::Rng rng(run.seed);
  std::vector<train::TrainConfig> faulted;
  std::vector<double> setup_s;
  const CpuRotation cpus;
  for (int k = 0; k < plan.scenarios; ++k) {
    cpus.pin(static_cast<std::size_t>(k));
    const int rank = static_cast<int>(rng.uniform_int(0, world - 1));
    // A crash before the first iteration is no membership change: the
    // world simply starts smaller.
    const int crash = static_cast<int>(rng.uniform_int(1, plan.iterations - 2));
    const int rejoin = static_cast<int>(rng.uniform_int(crash + 1, plan.iterations - 1));
    const std::string text = scenario_text(k, rank, crash, rejoin);
    util::Diagnostics lint;
    setup_s.push_back(timed(log, "des.setup", [&] {
      const core::Scenario scenario = core::parse_scenario_text(text);
      lint = core::lint_scenario(scenario, healthy);
      faulted.push_back(core::apply_scenario(scenario, healthy));
      lint.merge(analysis::lint_config(faulted.back()));
    }));
    run.check(!lint.has_errors(), "scenario " + std::to_string(k) + " fails lint: " +
                                      util::render_text(lint));
  }

  std::vector<double> healthy_ms, fault_ms, all_ms;
  double reference_step = -1.0;
  int iterations = 0;
  auto call = [&](int i, SpanLog* span_log) {
    // One call in four is faulted: the median stays inside the healthy
    // mode and the tail inside the faulted one. Each group of four runs on
    // the next CPU.
    const bool faulty = i % 4 == 3;
    cpus.pin(static_cast<std::size_t>(i / 4));
    const train::TrainConfig& cfg =
        faulty ? faulted[static_cast<std::size_t>(i / 4 % plan.scenarios)] : healthy;
    train::TrainResult r;
    double s = 0.0;
    try {
      s = timed(span_log, faulty ? "des.call.faulted" : "des.call.healthy",
                [&] { r = train::run_training(cfg); });
    } catch (const std::exception& e) {
      run.ops(1, 1);
      run.problems.push_back(std::string("run_training threw: ") + e.what());
      return;
    }
    run.ops(1);
    (faulty ? fault_ms : healthy_ms).push_back(s * 1e3);
    all_ms.push_back(s * 1e3);
    iterations += cfg.iterations;
    if (faulty) {
      if (!(r.membership_changes == 2 && r.alive_rank_fraction < 1.0 && r.sim_events > 0))
        run.fail("faulted call " + std::to_string(i) + " shows no crash+rejoin");
    } else {
      if (reference_step < 0.0) reference_step = r.per_iteration_s;
      if (r.per_iteration_s != reference_step)
        run.fail("healthy per_iteration_s changed between calls");
    }
  };

  if (!run.traced) {
    const auto t0 = Clock::now();
    for (int i = 0; i == 0 || since(t0) < run.seconds; ++i) call(i, nullptr);
    const double window = since(t0);
    run.set("setup_s", median(setup_s),
            "scenario parse + lint, " + samples_note(setup_s.size()));
    run.set("throughput_per_s", iterations / window, "simulated iterations/s");
    set_latency(run, all_ms, 0.95);
    return;
  }

  // Untraced calls for half the remaining time, then calls with benchmark
  // spans on for the rest.
  const double half = std::max(0.0, run.seconds - since(start)) / 2;
  const auto t0 = Clock::now();
  int i = 0;
  for (; i < 4 || since(t0) < half; ++i) call(i, nullptr);
  const double plain_p50 = median(all_ms);
  const std::size_t plain_calls = all_ms.size();
  for (const int first = i; i < first + 4 || since(t0) < 2 * half; ++i) call(i, log);
  const std::vector<double> traced_ms(all_ms.begin() + static_cast<std::ptrdiff_t>(plain_calls),
                                      all_ms.end());
  run.set("trace.overhead_ratio", median(traced_ms) / plain_p50 - 1.0);
  run.set("sim.fault_call_ratio", median(fault_ms) / median(healthy_ms),
          "p50 faulted call / p50 healthy call");
  finish_bench_trace(run, spans, {});
}

// ---- output --------------------------------------------------------------------------

std::string json_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// Prints one line per metric of the run's mode and returns the JSON result.
std::string report(Run& run) {
  std::span<const MetricDef> defs = run.traced ? std::span<const MetricDef>(kPerLayer)
                                               : std::span<const MetricDef>(kEndToEnd);
  std::string metrics;
  for (const MetricDef& def : defs) {
    const auto it = run.values.find(def.name);
    if (!run.traced && it == run.values.end())
      throw std::logic_error(std::string("end-to-end metric not measured: ") + def.name);
    double value = it == run.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      run.fail(std::string("non-finite metric ") + def.name);
      value = 0.0;
    }
    const auto note = run.notes.find(def.name);
    std::printf("%-30s %16.6g %-8s %s\n", def.name, value, def.unit,
                note == run.notes.end() ? "" : note->second.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(def.name) + "\": {\"value\": " + json_number(value) +
               ", \"unit\": \"" + def.unit + "\"}";
  }
  for (const std::string& p : run.problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  return "{\"correct\": " + std::string(run.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(run.attempted) +
         ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {" + metrics + "}}";
}

std::string run_workload(Run& run) {
  const double probe_start = host_probe_ms();
  if (run.workload == "train_compute" || run.workload == "train_exchange")
    run_train(run, run.workload == "train_exchange");
  else if (run.workload == "advisor_mix")
    run_advisor(run);
  else if (run.workload == "des_scale")
    run_des(run);
  else
    throw std::invalid_argument("unknown --workload '" + run.workload + "'");
  const double probe_end = host_probe_ms();
  run.set("host.probe_ms", median({probe_start, probe_end}));
  run.set("peak_rss_mb", peak_rss_mb());
  std::printf("host probe: %.3f ms at start, %.3f ms at end\n", probe_start, probe_end);
  return report(run);
}

// ---- --smoke and --agree ---------------------------------------------------------------

util::jsonlite::Value load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return util::jsonlite::parse(ss.str(), path);
}

/// BENCHMARK.json must declare exactly the workloads and metrics this
/// binary produces, with the same units.
std::vector<std::string> catalogue_mismatches(const util::jsonlite::Value& bench) {
  std::vector<std::string> out;
  auto compare = [&](const char* key, std::span<const MetricDef> defs) {
    std::map<std::string, std::string> declared;
    for (const auto& m : bench.at(key).array) declared[m.at("name").string] = m.at("unit").string;
    std::map<std::string, std::string> produced;
    for (const MetricDef& d : defs) produced[d.name] = d.unit;
    if (declared != produced) out.push_back(std::string(key) + " differs from the binary's metrics");
  };
  compare("end_to_end", kEndToEnd);
  compare("per_layer", kPerLayer);
  std::vector<std::string> names;
  for (const auto& w : bench.at("workloads").array) names.push_back(w.at("name").string);
  if (!std::equal(names.begin(), names.end(), std::begin(kWorkloads), std::end(kWorkloads)))
    out.push_back("workloads differ from the binary's");
  return out;
}

int smoke(const std::string& bench_path) {
  const auto t0 = Clock::now();
  std::vector<std::string> problems = catalogue_mismatches(load_json(bench_path));
  for (const char* workload : kWorkloads) {
    for (const bool traced : {false, true}) {
      Run run;
      run.workload = workload;
      run.smoke = true;
      run.traced = traced;
      run.seconds = traced ? 0.3 : 0.2;
      run_workload(run);
      for (const auto& p : run.problems) problems.push_back(run.workload + ": " + p);
      if (run.failed > 0 && run.problems.empty()) problems.push_back(run.workload + ": failed");
    }
  }
  for (const auto& p : problems) std::fprintf(stderr, "smoke: %s\n", p.c_str());
  std::printf("smoke %s in %.1f s\n", problems.empty() ? "ok" : "FAILED", since(t0));
  return problems.empty() ? 0 : 1;
}

/// Result files in `dir` by workload (the file name up to its first '.');
/// each file's last non-empty line is one run's JSON result.
std::map<std::string, std::map<std::string, util::jsonlite::Value>> load_results(
    const std::string& dir) {
  std::map<std::string, std::map<std::string, util::jsonlite::Value>> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::string line, last;
    while (std::getline(in, line))
      if (line.find_first_not_of(" \t\r") != std::string::npos) last = line;
    const std::string file = entry.path().filename().string();
    out[file.substr(0, file.find('.'))][file] = util::jsonlite::parse(last, file);
  }
  return out;
}

/// Compares two result sets (A = reference, B = candidate) workload by
/// workload: each end-to-end median must lie within its bound of A's, every
/// run must pass its checks, and exact counts must repeat between results
/// of the same file name. Same-named files are also counted as A/B pairs:
/// "B wins k/n" is the pair count the gain rule in README.md uses.
int agree(const std::string& bench_path, const std::vector<std::string>& dirs) {
  if (dirs.size() != 2) throw std::invalid_argument("--agree takes two result directories");
  struct Bound {
    double share;
    bool higher_is_better;
  };
  std::map<std::string, Bound> bounds;
  const util::jsonlite::Value bench = load_json(bench_path);
  for (const auto& m : bench.at("end_to_end").array)
    bounds[m.at("name").string] = {m.at("bound").number, m.at("better").string == "higher"};
  const auto a = load_results(dirs[0]);
  const auto b = load_results(dirs[1]);
  bool ok = true;
  auto disagree = [&](const std::string& what) {
    std::printf("DISAGREE %s\n", what.c_str());
    ok = false;
  };
  std::set<std::string> workloads;
  for (const auto& [w, files] : a) workloads.insert(w);
  for (const auto& [w, files] : b) workloads.insert(w);
  for (const std::string& w : workloads) {
    if (!a.contains(w) || !b.contains(w)) {
      disagree(w + ": results on one side only");
      continue;
    }
    const auto& fa = a.at(w);
    const auto& fb = b.at(w);
    for (const auto* side : {&fa, &fb})
      for (const auto& [file, result] : *side)
        if (!result.at("correct").boolean || result.at("failed").number != 0)
          disagree(w + ": " + file + " reports failed checks");
    auto value = [](const util::jsonlite::Value& result, const std::string& name) {
      const auto* m = result.at("metrics").get(name);
      return m == nullptr ? std::optional<double>() : m->at("value").number;
    };
    for (const auto& [name, bound] : bounds) {
      std::vector<double> va, vb;
      int wins = 0, pairs = 0;
      for (const auto& [file, result] : fa)
        if (const auto v = value(result, name)) va.push_back(*v);
      for (const auto& [file, result] : fb) {
        const auto v = value(result, name);
        if (!v) continue;
        vb.push_back(*v);
        const auto it = fa.find(file);
        const auto ref = it == fa.end() ? std::nullopt : value(it->second, name);
        if (!ref) continue;
        ++pairs;
        if (bound.higher_is_better ? *v > *ref : *v < *ref) ++wins;
      }
      if (va.empty() && vb.empty()) continue;
      if (va.empty() || vb.empty()) {
        disagree(w + " " + name + ": measured on one side only");
        continue;
      }
      const double ma = median(va), mb = median(vb);
      const double rel = std::fabs(mb - ma) / ma;
      std::printf(
          "%-15s %-17s A %11.6g (n=%zu)  B %11.6g (n=%zu)  %+7.2f%%  bound %2.0f%%  B wins %d/%d  %s\n",
          w.c_str(), name.c_str(), ma, va.size(), mb, vb.size(), 100.0 * (mb - ma) / ma,
          100.0 * bound.share, wins, pairs, rel <= bound.share ? "ok" : "OUT");
      if (rel > bound.share) ok = false;
    }
    for (const auto& [file, ra] : fa) {
      const auto it = fb.find(file);
      if (it == fb.end()) continue;
      for (const MetricDef& d : kPerLayer) {
        const auto va = value(ra, d.name), vb = value(it->second, d.name);
        if (d.exact && va && vb && *va != *vb)
          disagree(w + " " + file + " " + d.name + ": exact count differs");
      }
    }
  }
  std::printf("%s\n", ok ? "agree" : "disagree");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("dnnperf_bench",
                      "repository benchmark: one seeded workload per run, end-to-end metrics "
                      "(--trace 0) or per-layer metrics from a traced run (--trace 1)");
  cli.add_string("workload", "train_compute|train_exchange|advisor_mix|des_scale", "");
  cli.add_int("seed", "workload seed: data, query order and fault placement", 1);
  cli.add_double("seconds", "measured time per run", 10.0);
  cli.add_int("trace", "0: untraced end-to-end run; 1: traced per-layer run", 0);
  cli.add_string("trace-out", "with --trace 1: write the recorded trace here", "");
  cli.add_string("benchmark", "BENCHMARK.json for --smoke and --agree", "BENCHMARK.json");
  cli.add_flag("smoke", "run every workload at a tiny size with every check", false);
  cli.add_flag("agree", "compare two result directories (positional arguments)", false);
  try {
    if (!cli.parse(argc, argv)) return 0;
    if (cli.get_flag("smoke")) return smoke(cli.get_string("benchmark"));
    if (cli.get_flag("agree")) return agree(cli.get_string("benchmark"), cli.positional());

    Run run;
    run.workload = cli.get_string("workload");
    run.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    run.seconds = cli.get_double("seconds");
    run.trace_out = cli.get_string("trace-out");
    const std::int64_t trace = cli.get_int("trace");
    if (trace != 0 && trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
    if (!(run.seconds > 0.0 && run.seconds <= 600.0))
      throw std::invalid_argument("--seconds must be in (0, 600]");
    run.traced = trace == 1;
    std::printf("%s\n", run_workload(run).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dnnperf_bench: %s\n", e.what());
    return 2;
  }
}
