// Deterministic, splittable random number generation.
//
// All stochastic components of the library (generators, Gibbs samplers,
// EM initialization) draw from ss::Rng so that every experiment is
// reproducible from a single 64-bit seed. The engine is PCG32 (O'Neill,
// "PCG: A Family of Simple Fast Space-Efficient Statistically Good
// Algorithms for Random Number Generation"), implemented here directly so
// the library has no dependency on any external RNG package and produces
// identical streams on every platform.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace ss {

// PCG32: 64-bit state / 32-bit output permuted congruential generator.
// Satisfies std::uniform_random_bit_generator so it can also drive
// standard <random> distributions when convenient.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  // Seeds the generator. `stream` selects one of 2^63 independent
  // sequences; two generators with different streams never correlate.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

  // Advances the generator by `delta` steps in O(log delta).
  void advance(std::uint64_t delta);

 private:
  std::uint64_t state_;
  std::uint64_t inc_;  // odd; encodes the stream id
};

// Convenience wrapper bundling a Pcg32 with the distributions the library
// actually uses. Methods are deliberately explicit (no std::distribution
// state) so results are identical across standard-library implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1, std::uint64_t stream = 0);

  // Derives an independent child generator; children with distinct `key`
  // values are statistically independent of each other and of the parent.
  // Used to give each experiment repetition / worker its own stream.
  Rng split(std::uint64_t key) const;

  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint32_t uniform_u32(std::uint32_t n);
  // Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);
  // True with probability p (clamped to [0,1]).
  bool bernoulli(double p);
  // Standard normal via Box-Muller (no cached spare: stateless per call
  // pair is wasteful but keeps split()/replay semantics trivial).
  double normal();
  double normal(double mean, double stddev);
  // Index drawn proportionally to `weights` (non-negative; at least one
  // strictly positive). Returns weights.size()-1 on accumulated-roundoff
  // overflow of the final bin.
  std::size_t categorical(const std::vector<double>& weights);
  // Exponential waiting time with the given mean (> 0), via inverse CDF.
  double exponential(double mean);
  // Zipf-distributed integer in [0, n) with exponent s >= 0, via inverse
  // CDF on precomputed weights is avoided; uses rejection-free cumulative
  // method suitable for the modest n used in the Twitter simulator.
  std::size_t zipf(std::size_t n, double s);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_u32(static_cast<std::uint32_t>(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  // k distinct indices sampled uniformly from [0, n). k <= n.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  Pcg32& engine() { return engine_; }
  std::uint64_t seed() const { return seed_; }

 private:
  Pcg32 engine_;
  std::uint64_t seed_;
  std::uint64_t stream_;
};

// SplitMix64: used to whiten user-provided seeds and derive child keys.
std::uint64_t splitmix64(std::uint64_t x);

}  // namespace ss
