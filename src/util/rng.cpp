#include "util/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ss {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream) {
  inc_ = (stream << 1u) | 1u;
  state_ = 0;
  (*this)();
  state_ += seed;
  (*this)();
}

Pcg32::result_type Pcg32::operator()() {
  std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

void Pcg32::advance(std::uint64_t delta) {
  // Brown, "Random Number Generation with Arbitrary Strides".
  std::uint64_t cur_mult = 6364136223846793005ULL;
  std::uint64_t cur_plus = inc_;
  std::uint64_t acc_mult = 1;
  std::uint64_t acc_plus = 0;
  while (delta > 0) {
    if (delta & 1u) {
      acc_mult *= cur_mult;
      acc_plus = acc_plus * cur_mult + cur_plus;
    }
    cur_plus = (cur_mult + 1) * cur_plus;
    cur_mult *= cur_mult;
    delta >>= 1u;
  }
  state_ = acc_mult * state_ + acc_plus;
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : engine_(splitmix64(seed), splitmix64(stream ^ 0xabcdef1234567890ULL)),
      seed_(seed),
      stream_(stream) {}

Rng Rng::split(std::uint64_t key) const {
  return Rng(splitmix64(seed_ ^ splitmix64(key)),
             splitmix64(stream_ + 0x9e3779b97f4a7c15ULL * (key + 1)));
}

double Rng::uniform() {
  // 53-bit mantissa from two 32-bit draws for full double resolution.
  std::uint64_t hi = engine_();
  std::uint64_t lo = engine_();
  std::uint64_t bits = (hi << 21) ^ (lo >> 11);
  return static_cast<double>(bits & ((1ULL << 53) - 1)) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint32_t Rng::uniform_u32(std::uint32_t n) {
  assert(n > 0);
  // Lemire-style rejection to remove modulo bias.
  std::uint32_t threshold = (-n) % n;
  for (;;) {
    std::uint32_t r = engine_();
    std::uint64_t m = static_cast<std::uint64_t>(r) * n;
    if (static_cast<std::uint32_t>(m) >= threshold) {
      return static_cast<std::uint32_t>(m >> 32);
    }
  }
}

int Rng::uniform_int(int lo, int hi) {
  assert(lo <= hi);
  return lo + static_cast<int>(
                  uniform_u32(static_cast<std::uint32_t>(hi - lo + 1)));
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() {
  double u1 = uniform();
  double u2 = uniform();
  // Guard against log(0).
  if (u1 < 1e-300) u1 = 1e-300;
  // ss-analyze: allow(raw-log-exp): Box-Muller transform of a uniform variate, not a probability
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("categorical: all weights are zero");
  }
  double r = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  // Inverse CDF; uniform() < 1 keeps the log argument > 0.
  // ss-analyze: allow(raw-log-exp): exponential inversion on a uniform variate, not a probability
  return -mean * std::log(1.0 - uniform());
}

std::size_t Rng::zipf(std::size_t n, double s) {
  assert(n > 0);
  // Cumulative inverse method; n is small (<= a few hundred thousand) in
  // all library uses, and callers cache datasets, so O(n) is acceptable.
  double total = 0.0;
  for (std::size_t k = 1; k <= n; ++k) total += 1.0 / std::pow(k, s);
  double r = uniform() * total;
  double acc = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(k, s);
    if (r < acc) return k - 1;
  }
  return n - 1;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  assert(k <= n);
  // Floyd's algorithm would avoid the O(n) init, but n is modest and this
  // is simpler to reason about.
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j =
        i + uniform_u32(static_cast<std::uint32_t>(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace ss
