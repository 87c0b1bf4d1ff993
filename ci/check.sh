#!/usr/bin/env bash
# Tier-1 CI gate: build and test the default preset, then the sanitizer
# presets (ASan+UBSan, TSan, standalone UBSan with no recovery), then the
# `native` leg (the release-native preset: -O3 -march=native). The ASan and
# TSan runs use the preset filters in CMakePresets.json — deterministic
# unit/integration suites, not the timing-sensitive benches; the ubsan leg
# runs the full suite and aborts on the first finding. The native leg runs
# the full suite too: its golden tables (RealTrainer.*, PerRankGolden.*) and
# GemmMicroKernel.Avx2MatchesPortableBitForBit must hold bit for bit in a
# build whose compiler may use every instruction the host has. After the default
# preset, an advisor smoke step drives a short deterministic advisor_load run
# (fails unless the warm cache hit and qps > 0), a sim-scale smoke simulates
# a 1024-rank step (per-rank jitter, the slowest alive rank's submission
# chain on the pooled event engine) under a wall-clock budget,
# an optimizer smoke step runs the verified graph-rewrite passes over every
# shipped model (any equivalence-checker O-code fails as a GitHub
# annotation) and gates the measured-vs-predicted conv+BN fusion payoff,
# a profile smoke step records a 2-rank training trace and runs the
# dnnperf_profile trace analytics over it (bottleneck verdict + DES
# comparison; Error-severity findings fail), a metrics smoke step records a
# 2-rank training snapshot plus the advisor_load, sim_scale, opt_fusion, and
# profile snapshots, lints all five, merges them, and diffs the merged
# counters against the committed BENCH_metrics.json baseline (timers and
# rates are machine-dependent and ignored; counter drift fails), and a
# verify smoke step model-checks the shipped presets' engine protocol and
# runs the happens-before verifier over a freshly recorded 2-rank trace
# (findings surface as GitHub annotations in the CI log), and an elastic
# verify smoke step model-checks crash/rejoin interleavings for every
# shipped preset and prices a canned crash+rejoin scenario through the
# advisor's survivability query.
# Run from the repo root:
#
#   ci/check.sh            # all five legs
#   ci/check.sh default    # just one
#   ci/check.sh native     # the release-native preset
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan tsan ubsan native)
fi

# Short deterministic advisor_load run: fixed pool width and query counts so
# every advisor/pool/sim counter lands on the same totals on any machine.
# --check exits non-zero unless the warm cache actually hit and qps > 0.
advisor_smoke() {
  local build=build
  echo "=== [default] advisor smoke ==="
  "$build/bench/advisor_load" --queries=200 --serial-queries=2 --clients=2 --batch=4 \
      --pool-threads=4 --check --metrics-out="$build/metrics_smoke_advisor.json"
}

# 1k-rank per-rank-DES smoke: every rank's jitter and membership resolved
# explicitly, the slowest alive rank's submission chain run through the slab
# event pool, gated on wall clock (the acceptance budget is 10 s at 4k ranks;
# a 1k-rank step takes milliseconds, so only a regression to per-rank chains
# or per-event allocation comes near it).
sim_scale_smoke() {
  local build=build
  echo "=== [default] sim scale smoke ==="
  "$build/bench/sim_scale" --ranks=1024 --ppn=16 --hierarchy=two --check --budget-s=10 \
      --metrics-out="$build/metrics_smoke_sim.json"
}

# Verified graph-rewrite smoke: every shipped model must optimize
# checker-clean at O2 (O-codes annotate the CI log), and the conv+BN fusion
# must hold up numerically and pay off in both the measured refdnn forward
# pass and the exec-model estimate.
optimizer_smoke() {
  local build=build
  echo "=== [default] optimizer smoke ==="
  "$build/tools/dnnperf_lint" --optimize --format=github
  "$build/bench/opt_fusion" --check --metrics-out="$build/metrics_smoke_opt.json"
}

# Trace-analytics smoke: profile a freshly recorded 2-rank training trace
# (utilization, critical path, straggler attribution, verdict) and run the
# predicted-vs-measured DES comparison. dnnperf_profile exits non-zero only
# on Error-severity findings (e.g. no step structure); the JSON report must
# carry a verdict. Also publishes the prof_* gauges for the metrics merge.
profile_smoke() {
  local build=build
  local trace="$build/profile_smoke.trace.json"
  local report="$build/profile_smoke.json"
  echo "=== [default] profile smoke ==="
  "$build/examples/real_training" --ranks=2 --steps=2 --trace-out="$trace" > /dev/null
  "$build/tools/dnnperf_profile" "$trace" --compare-sim --format=json --out="$report" \
      --metrics-out="$build/metrics_smoke_profile.json"
  grep -q '"verdict"' "$report"
  grep -q '"compare_sim"' "$report"
  # One track per MP rank: the example's SP reference must stay untraced.
  grep -q '"ranks":2' "$report"
}

metrics_smoke() {
  local build=build
  local train_snap="$build/metrics_smoke_training.json"
  local advisor_snap="$build/metrics_smoke_advisor.json"  # from advisor_smoke
  local sim_snap="$build/metrics_smoke_sim.json"          # from sim_scale_smoke
  local opt_snap="$build/metrics_smoke_opt.json"          # from optimizer_smoke
  local prof_snap="$build/metrics_smoke_profile.json"     # from profile_smoke
  local merged="$build/metrics_smoke.json"
  echo "=== [default] metrics smoke ==="
  "$build/examples/real_training" --ranks=2 --steps=2 --metrics-out="$train_snap" > /dev/null
  "$build/tools/dnnperf_metrics" check "$train_snap"
  "$build/tools/dnnperf_metrics" check "$advisor_snap"
  "$build/tools/dnnperf_metrics" check "$sim_snap"
  "$build/tools/dnnperf_metrics" check "$opt_snap"
  "$build/tools/dnnperf_metrics" check "$prof_snap"
  "$build/tools/dnnperf_metrics" merge "$train_snap" "$advisor_snap" "$sim_snap" "$opt_snap" \
      "$prof_snap" \
      --label="ci smoke: real_training + advisor_load + sim_scale + opt_fusion + profile" \
      --bench-out="$merged"
  "$build/tools/dnnperf_metrics" diff BENCH_metrics.json "$merged" \
      --timers=ignore --rates=ignore
}

verify_smoke() {
  local build=build
  local trace="$build/verify_smoke.trace.json"
  echo "=== [default] verify smoke ==="
  "$build/tools/dnnperf_lint" --verify-engine --format=github
  "$build/examples/real_training" --ranks=2 --steps=2 --trace-out="$trace" > /dev/null
  "$build/tools/dnnperf_lint" --verify-trace="$trace" --format=github
}

# Elastic verify smoke: model-check every shipped preset's crash/rejoin
# handling (V2xx annotate the CI log), then price one canned crash+rejoin
# scenario through the advisor's survivability query. --check fails unless
# the reply is sane (healthy throughput > 0, retention in (0, 1]).
elastic_verify_smoke() {
  local build=build
  echo "=== [default] elastic verify smoke ==="
  "$build/tools/dnnperf_lint" --verify-elastic --format=github
  "$build/tools/dnnperf_lint" --scenario=examples/scenarios/crash_rejoin.json \
      --cluster=Stampede2 --model=resnet50 --nodes=2 --check
}

for leg in "${presets[@]}"; do
  preset="$leg"
  if [ "$leg" = native ]; then
    preset=release-native
  fi
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "=== [$preset] ctest ==="
  ctest --preset "$preset"
  if [ "$preset" = default ]; then
    advisor_smoke
    sim_scale_smoke
    optimizer_smoke
    profile_smoke
    metrics_smoke
    verify_smoke
    elastic_verify_smoke
  fi
done

echo "=== all presets passed: ${presets[*]} ==="
