// Real (not simulated) data-parallel training: rank threads exchanging
// actual gradients through the Horovod-style fusion engine over minimpi,
// with real conv/batchnorm/SGD numerics from refdnn — then a side-by-side
// check that the multi-process run matches single-process training on the
// combined batch (the equivalence every experiment in the paper relies on).
//
//   ./real_training --ranks 4 --batch-per-rank 4 --steps 6
//   ./real_training --trace-out=train.trace.json    # open in ui.perfetto.dev
//   ./real_training --metrics-out=train.metrics.json  # dnnperf_metrics check/diff
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "dnn/report.hpp"
#include "prof/profile.hpp"
#include "train/real_trainer.hpp"
#include "util/cli.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

int main(int argc, char** argv) {
  using namespace dnnperf;
  util::CliParser cli("real_training", "actual data-parallel SGD over minimpi + Horovod engine");
  cli.add_int("ranks", "data-parallel workers", 4);
  cli.add_int("batch-per-rank", "images per rank per step", 4);
  cli.add_int("steps", "training steps", 6);
  cli.add_flag("batch-norm", "include BatchNorm layers (breaks exact SP==MP)", false);
  cli.add_string("trace-out", "write a Chrome trace-event JSON timeline here", "");
  cli.add_string("profile-out", "profile the recorded trace and write a dnnperf-profile-v1 "
                 "JSON report here (implies tracing)", "");
  cli.add_string("metrics-out", "write a metrics snapshot here (see --metrics-format)", "");
  cli.add_string("metrics-format", "snapshot format: json|prometheus|csv", "json");

  try {
    if (!cli.parse(argc, argv)) return 0;
    train::RealTrainConfig cfg;
    cfg.ranks = static_cast<int>(cli.get_int("ranks"));
    cfg.batch_per_rank = static_cast<int>(cli.get_int("batch-per-rank"));
    cfg.steps = static_cast<int>(cli.get_int("steps"));
    cfg.batch_norm = cli.get_flag("batch-norm");
    const std::string trace_out = cli.get_string("trace-out");
    const std::string profile_out = cli.get_string("profile-out");
    if (!trace_out.empty() || !profile_out.empty()) util::trace::set_enabled(true);
    const std::string metrics_out = cli.get_string("metrics-out");
    const std::string metrics_format = cli.get_string("metrics-format");
    if (metrics_format != "json" && metrics_format != "prometheus" && metrics_format != "csv")
      throw std::invalid_argument("--metrics-format must be json|prometheus|csv");
    if (!metrics_out.empty()) util::metrics::set_enabled(true);

    std::cout << "training a small CNN on synthetic data: " << cfg.ranks << " ranks x batch "
              << cfg.batch_per_rank << " (effective " << cfg.ranks * cfg.batch_per_rank
              << "), " << cfg.steps << " steps\n\n";

    const auto mp = train::run_real_training(cfg);
    // The SP reference is a one-rank run whose thread is also named "rank 0";
    // keep it out of the trace so the recorded timeline is the MP run alone.
    const bool tracing = util::trace::enabled();
    util::trace::set_enabled(false);
    const auto sp = train::run_real_training_single(cfg);
    util::trace::set_enabled(tracing);

    util::TextTable table({"step", "MP loss", "SP loss (combined batch)"});
    for (std::size_t s = 0; s < mp.losses.size(); ++s)
      table.add_row({std::to_string(s + 1), util::TextTable::num(mp.losses[s], 5),
                     util::TextTable::num(sp.losses[s], 5)});
    std::cout << table.to_text();

    float max_diff = 0.0f;
    for (std::size_t i = 0; i < mp.final_params.size(); ++i)
      max_diff = std::max(max_diff, std::fabs(mp.final_params[i] - sp.final_params[i]));
    std::cout << "\nmodel parameters: " << mp.parameters
              << "\nmax |MP - SP| over all parameters after training: " << max_diff;
    if (cfg.batch_norm)
      std::cout << "  (BatchNorm statistics are per-shard, so exact equality is not expected)";
    std::cout << "\nHorovod engine: " << mp.comm.framework_requests << " tensor submissions, "
              << mp.comm.data_allreduces << " fused data allreduces, "
              << mp.comm.engine_wakeups << " engine cycles"
              << "\nMP throughput: " << util::TextTable::num(mp.images_per_sec, 1)
              << " images/sec over " << util::TextTable::num(mp.wall_seconds, 3) << " s\n";

    std::cout << '\n'
              << dnn::stats_table({{"input", &mp.phases.input},
                                   {"forward", &mp.phases.forward},
                                   {"backward", &mp.phases.backward},
                                   {"exchange", &mp.phases.exchange},
                                   {"optimizer", &mp.phases.optimizer},
                                   {"step", &mp.phases.step}},
                                  /*unit_scale=*/1e3, "ms")
                     .to_text();

    if (!trace_out.empty()) {
      util::trace::write_json_file(trace_out);
      std::cout << "\nwrote " << util::trace::event_count() << " trace events to " << trace_out
                << " (load in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (!profile_out.empty()) {
      // Profile the trace we just recorded: where did the step time go, and
      // what bounds it? (Same analytics as tools/dnnperf_profile.)
      std::ostringstream trace_doc;
      util::trace::write_json(trace_doc);
      prof::ProfileOptions popt;
      popt.policy = &cfg.policy;
      const prof::ProfileReport report =
          prof::profile_trace_text(trace_doc.str(), "real_training", popt);
      std::ofstream out(profile_out);
      if (!out) throw std::runtime_error("cannot open " + profile_out);
      out << prof::to_json(report) << '\n';
      std::cout << "\nprofile: " << prof::to_string(report.verdict)
                << " (overlap " << util::TextTable::num(100.0 * report.overlap_fraction, 1)
                << "%, critical-path share "
                << util::TextTable::num(100.0 * report.critical_path_share, 1)
                << "%) -> " << profile_out << "\n";
    }
    if (!metrics_out.empty()) {
      util::metrics::Snapshot snap = util::metrics::snapshot();
      snap.label = "real_training ranks=" + std::to_string(cfg.ranks) +
                   " batch=" + std::to_string(cfg.batch_per_rank) +
                   " steps=" + std::to_string(cfg.steps);
      if (metrics_format == "json") {
        util::metrics::write_json_file(snap, metrics_out);
      } else {
        std::ofstream out(metrics_out);
        if (!out) throw std::runtime_error("cannot open " + metrics_out);
        out << (metrics_format == "prometheus" ? util::metrics::to_prometheus(snap)
                                               : util::metrics::to_csv(snap));
      }
      std::cout << "\nwrote " << snap.metrics.size() << " metrics to " << metrics_out
                << " (validate with dnnperf_metrics check)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
