// Deterministic pseudo-random number generation.
//
// All stochastic pieces of dnnperf (compute jitter, synthetic data, property
// tests) draw from SplitMix64-seeded xoshiro256** generators so that every
// experiment is exactly reproducible from its seed.
#pragma once

#include <cstdint>

namespace dnnperf::util {

/// The output of one SplitMix64 step from state `x`: a bijective 64-bit mix.
/// Folding counters through it derives unrelated seeds, e.g. one per
/// (step, sample).
std::uint64_t mix64(std::uint64_t x);

/// xoshiro256** generator with SplitMix64 seeding. Satisfies
/// UniformRandomBitGenerator so it can drive <random> distributions too.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  std::uint64_t operator()() { return next_u64(); }

  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double next_double();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (no cached spare; stateless per call pair).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Derives an independent child generator (e.g. one per simulated rank).
  Rng fork();

 private:
  std::uint64_t state_[4];
};

}  // namespace dnnperf::util
