// opt_fusion: measured-vs-predicted payoff of the verified conv+BN fusion
// (§6.8). Two legs over the same small conv net:
//
//   measured  — the refdnn executable network, once as conv-bn-relu and once
//               with the BN folded into the conv weights via opt::fold_bn
//               (calibrated on the benchmark batch, so batch statistics and
//               folded statistics coincide); outputs are checked numerically
//               equivalent, then both forward paths are timed;
//   predicted — the same network as a dnn::Graph, run through the graph
//               optimizer at O0 vs O2 and priced by exec::CpuExecModel.
//
// Publishes opt_fusion_measured_speedup / opt_fusion_predicted_speedup /
// opt_fusion_prediction_error gauges plus the opt_fusion_forward_seconds
// timer pair so --metrics-out snapshots feed BENCH_metrics.json. --check
// exits 1 when the fused output diverges from the reference, when fusion
// fails to speed up the measured forward pass, or when the optimized exec
// estimate is not tighter than the unoptimized one.
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "dnn/graph.hpp"
#include "exec/config.hpp"
#include "exec/cpu_model.hpp"
#include "exec/placement.hpp"
#include "hw/platforms.hpp"
#include "opt/fold.hpp"
#include "opt/passes.hpp"
#include "ref/layers.hpp"
#include "ref/network.hpp"
#include "ref/threadpool.hpp"
#include "util/cli.hpp"
#include "util/diag.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace dnnperf;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Channels {
  std::vector<float> mean;
  std::vector<float> var;  ///< biased, matching ref::batchnorm_forward
};

/// Per-channel batch statistics of a [N,C,H,W] activation tensor.
Channels channel_stats(const ref::Tensor& x) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const float m = static_cast<float>(n * h * w);
  Channels stats;
  stats.mean.assign(static_cast<std::size_t>(c), 0.0f);
  stats.var.assign(static_cast<std::size_t>(c), 0.0f);
  for (int ci = 0; ci < c; ++ci) {
    float mean = 0.0f;
    for (int ni = 0; ni < n; ++ni)
      for (int hy = 0; hy < h; ++hy)
        for (int wx = 0; wx < w; ++wx) mean += x.at4(ni, ci, hy, wx);
    mean /= m;
    float var = 0.0f;
    for (int ni = 0; ni < n; ++ni)
      for (int hy = 0; hy < h; ++hy)
        for (int wx = 0; wx < w; ++wx) {
          const float d = x.at4(ni, ci, hy, wx) - mean;
          var += d * d;
        }
    stats.mean[static_cast<std::size_t>(ci)] = mean;
    stats.var[static_cast<std::size_t>(ci)] = var / m;
  }
  return stats;
}

/// Mean forward-pass seconds over `iters` runs after `warmup` runs.
double time_forward(ref::Network& net, const ref::Tensor& x, int warmup, int iters) {
  for (int i = 0; i < warmup; ++i) net.forward(x);
  const double start = now_s();
  for (int i = 0; i < iters; ++i) net.forward(x);
  return (now_s() - start) / iters;
}

/// The benchmark network as a dnn::Graph, for the exec-model leg.
dnn::Graph make_graph(int channels, int size, int classes) {
  dnn::Graph g("opt-fusion-bench");
  const int in = g.input(3, size, size);
  const int conv = g.conv2d("conv1", in, channels, 3, 3, 1, 1, 1, 1, /*bias=*/true);
  const int bn = g.batch_norm("conv1/bn", conv);
  const int act = g.relu("conv1/relu", bn);
  const int pool = g.max_pool("pool1", act, 2, 2);
  g.matmul("fc", pool, classes);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("opt_fusion",
                      "measured (refdnn) vs predicted (exec model) payoff of the verified "
                      "conv+BN fusion");
  cli.add_int("batch", "benchmark batch size", 16);
  cli.add_int("size", "input spatial size", 32);
  cli.add_int("channels", "conv output channels", 32);
  cli.add_int("classes", "dense-head outputs", 10);
  cli.add_int("iters", "timed forward passes per leg", 30);
  cli.add_int("warmup", "untimed forward passes per leg", 5);
  cli.add_int("threads", "refdnn pool threads", 2);
  cli.add_string("cluster", "platform for the exec-model leg", "Stampede2");
  cli.add_string("metrics-out", "write a metrics snapshot JSON here", "");
  cli.add_flag("check",
               "exit 1 unless the fused net matches numerically, fusion speeds up the "
               "measured forward pass, and the O2 exec estimate is tighter",
               false);

  try {
    if (!cli.parse(argc, argv)) return 0;
    util::metrics::set_enabled(true);

    const int batch = static_cast<int>(cli.get_int("batch"));
    const int size = static_cast<int>(cli.get_int("size"));
    const int channels = static_cast<int>(cli.get_int("channels"));
    const int classes = static_cast<int>(cli.get_int("classes"));
    const int iters = std::max(1, static_cast<int>(cli.get_int("iters")));
    const int warmup = static_cast<int>(cli.get_int("warmup"));
    const float eps = 1e-5f;

    ref::ThreadPool pool(static_cast<int>(cli.get_int("threads")));
    util::Rng rng(2019);

    // ---- reference network: conv -> bn -> relu -> pool -> dense ----------
    ref::Network net;
    auto& conv = net.add<ref::Conv2dLayer>("conv1", 3, channels, 3, ref::ConvSpec{1, 1},
                                           pool, rng);
    auto& bn = net.add<ref::BatchNormLayer>("conv1/bn", channels, eps);
    net.add<ref::ReLULayer>("conv1/relu", pool);
    net.add<ref::MaxPoolLayer>("pool1", 2, 2, pool);
    net.add<ref::FlattenLayer>("flat");
    auto& fc = net.add<ref::DenseLayer>("fc", channels * (size / 2) * (size / 2), classes,
                                        pool, rng);
    // Non-trivial BN parameters so the fold actually rescales and shifts.
    for (int c = 0; c < channels; ++c) {
      bn.gamma[static_cast<std::size_t>(c)] = 0.8f + 0.05f * static_cast<float>(c % 7);
      bn.beta[static_cast<std::size_t>(c)] = 0.1f * static_cast<float>(c % 5) - 0.2f;
    }

    const ref::SyntheticBatch data = ref::synthetic_batch(2019, 0, 0, batch, 3, size, classes, pool);

    // ---- fold BN into the conv, calibrated on the benchmark batch --------
    // BN normalizes with the batch's own statistics, so calibrating on the
    // timed batch makes folded and live statistics coincide and the two
    // networks numerically equivalent on it.
    const ref::Tensor conv_out = conv.forward(data.images);
    const Channels stats = channel_stats(conv_out);

    ref::Network fused;
    auto& fconv = fused.add<ref::Conv2dLayer>("conv1", 3, channels, 3, ref::ConvSpec{1, 1},
                                              pool, rng);
    fused.add<ref::ReLULayer>("conv1/relu", pool);
    fused.add<ref::MaxPoolLayer>("pool1", 2, 2, pool);
    fused.add<ref::FlattenLayer>("flat");
    auto& ffc = fused.add<ref::DenseLayer>("fc", channels * (size / 2) * (size / 2), classes,
                                           pool, rng);
    const int fan = 3 * 3 * 3;  // in_c * kh * kw elements per output channel
    for (int o = 0; o < channels; ++o) {
      const opt::BnFold fold = opt::fold_bn(
          bn.gamma[static_cast<std::size_t>(o)], bn.beta[static_cast<std::size_t>(o)],
          stats.mean[static_cast<std::size_t>(o)], stats.var[static_cast<std::size_t>(o)],
          eps, conv.bias[static_cast<std::size_t>(o)]);
      for (int i = 0; i < fan; ++i)
        fconv.weight[static_cast<std::size_t>(o * fan + i)] =
            static_cast<float>(fold.scale) * conv.weight[static_cast<std::size_t>(o * fan + i)];
      fconv.bias[static_cast<std::size_t>(o)] = static_cast<float>(fold.bias);
    }
    ffc.weight = fc.weight;
    ffc.bias = fc.bias;

    // ---- numeric equivalence before timing anything ----------------------
    const ref::Tensor y_ref = net.forward(data.images);
    const ref::Tensor y_fused = fused.forward(data.images);
    float y_max = 0.0f;
    for (const float v : y_ref.flat()) y_max = std::max(y_max, std::abs(v));
    const float diff = ref::max_abs_diff(y_ref, y_fused);
    const bool equivalent = diff <= 1e-3f * std::max(1.0f, y_max);

    // ---- measured leg -----------------------------------------------------
    const double t_ref = time_forward(net, data.images, warmup, iters);
    const double t_fused = time_forward(fused, data.images, warmup, iters);
    const double measured = t_fused > 0.0 ? t_ref / t_fused : 0.0;

    // ---- predicted leg: same net as a dnn::Graph through O0 vs O2 --------
    const dnn::Graph g0 = make_graph(channels, size, classes);
    opt::OptOptions oo;
    oo.level = 2;
    const opt::OptResult opt_result = opt::optimize(g0, oo);
    if (!opt_result.ok()) {
      std::cerr << "opt_fusion: optimizer rejected its own rewrite\n"
                << util::render_text(opt_result.diags);
      return 1;
    }
    const auto cluster = hw::cluster_by_name(cli.get_string("cluster"));
    const exec::CpuExecModel model(cluster.node.cpu);
    exec::ExecConfig ec;
    ec.batch = batch;
    ec.intra_threads = static_cast<int>(cli.get_int("threads"));
    const exec::Placement placement = exec::place_rank(cluster.node.cpu, 1, ec.intra_threads);
    const double p_ref = model.forward(g0, ec, placement).duration;
    const double p_fused = model.forward(opt_result.graph, ec, placement).duration;
    const double predicted = p_fused > 0.0 ? p_ref / p_fused : 0.0;
    const double prediction_error =
        measured > 0.0 ? std::abs(predicted - measured) / measured : 0.0;

    // ---- report -----------------------------------------------------------
    util::TextTable table({"leg", "unfused", "fused", "speedup"});
    table.add_row({"measured fwd (ms)", std::to_string(t_ref * 1e3),
                   std::to_string(t_fused * 1e3), std::to_string(measured)});
    table.add_row({"predicted fwd (ms)", std::to_string(p_ref * 1e3),
                   std::to_string(p_fused * 1e3), std::to_string(predicted)});
    std::cout << table.to_text();
    std::cout << "rewrites applied: " << opt_result.log.rewrites.size()
              << " (ops " << opt_result.log.ops_before << " -> " << opt_result.log.ops_after
              << "), max |y_ref - y_fused| = " << diff
              << (equivalent ? " (equivalent)" : " (DIVERGED)") << "\n";
    std::cout << "prediction error vs measured: " << prediction_error * 100.0 << "%\n";

    static const auto measured_gauge = util::metrics::gauge(
        "opt_fusion_measured_speedup",
        "Measured refdnn forward speedup from the verified conv+BN fold");
    static const auto predicted_gauge = util::metrics::gauge(
        "opt_fusion_predicted_speedup",
        "Exec-model forward speedup predicted for the same fusion (O0 vs O2)");
    static const auto error_gauge = util::metrics::gauge(
        "opt_fusion_prediction_error",
        "Relative disagreement between predicted and measured fusion speedup");
    static const auto diff_gauge = util::metrics::gauge(
        "opt_fusion_max_abs_diff",
        "Max element difference between the fused and reference outputs");
    static const auto timer = util::metrics::histogram(
        "opt_fusion_forward_seconds", "Measured refdnn forward-pass time, both legs");
    measured_gauge.set(measured);
    predicted_gauge.set(predicted);
    error_gauge.set(prediction_error);
    diff_gauge.set(diff);
    timer.observe(t_ref);
    timer.observe(t_fused);

    if (const std::string& out = cli.get_string("metrics-out"); !out.empty()) {
      util::metrics::Snapshot snap = util::metrics::snapshot();
      snap.label = "opt_fusion batch=" + std::to_string(batch) +
                   " channels=" + std::to_string(channels);
      util::metrics::write_json_file(snap, out);
      std::cout << "metrics snapshot -> " << out << "\n";
    }

    if (cli.get_flag("check")) {
      if (!equivalent) {
        std::cerr << "opt_fusion: fused output diverged (" << diff << ")\n";
        return 1;
      }
      if (measured <= 1.0) {
        std::cerr << "opt_fusion: fusion did not speed up the measured forward pass ("
                  << measured << "x)\n";
        return 1;
      }
      if (predicted <= 1.0) {
        std::cerr << "opt_fusion: O2 exec estimate is not tighter than O0 (" << predicted
                  << "x)\n";
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "opt_fusion: " << e.what() << "\n";
    return 1;
  }
}
