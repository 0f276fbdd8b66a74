// Deterministic random number generation.
//
// All stochastic parts of the library (workload sampling, Monte-Carlo EM
// studies, property tests) draw from this generator so that every run of a
// bench or test is reproducible from a single seed.
#pragma once

#include <cstdint>
#include <vector>

namespace vstack {

/// splitmix64: advance `state` by the golden-ratio increment and return a
/// well-mixed 64-bit output.  Expands Rng seeds; also a deterministic hash
/// mixer on its own.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** PRNG.  Small, fast, high-quality; deterministic across
/// platforms (unlike std::default_random_engine) which matters because the
/// benches print numbers that EXPERIMENTS.md records.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal deviate (Box-Muller with caching).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Lognormal deviate: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Beta(alpha, beta) deviate via Johnk/gamma method; used for bounded
  /// activity factors in the workload model.
  double beta(double alpha, double beta);

  /// Shuffle a vector in place (Fisher-Yates).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  double gamma(double shape);

  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace vstack
