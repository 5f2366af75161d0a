#include "bounds/column_model.h"

#include <stdexcept>

#include "math/logprob.h"
#include "util/rng.h"

namespace ss {

bool ColumnModel::valid() const {
  // Written as "inside [0, 1]" so that NaN fails it.
  auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (p_claim_true.size() != p_claim_false.size()) return false;
  if (!probability(z)) return false;
  for (double p : p_claim_true) {
    if (!probability(p)) return false;
  }
  for (double p : p_claim_false) {
    if (!probability(p)) return false;
  }
  return true;
}

ColumnModel make_column_model(const ModelParams& params,
                              const DependencyIndicators& dep,
                              std::size_t assertion, double clamp_eps) {
  if (dep.source_count() != params.source_count()) {
    throw std::invalid_argument(
        "make_column_model: params/dependency source mismatch");
  }
  return make_column_model(params, dep.exposed_sources(assertion),
                           clamp_eps);
}

ColumnModel make_column_model(
    const ModelParams& params,
    std::span<const std::uint32_t> exposed_sources, double clamp_eps) {
  std::size_t n = params.source_count();
  ColumnModel model;
  model.z = clamp_prob(params.z, clamp_eps);
  model.p_claim_true.resize(n);
  model.p_claim_false.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SourceParams& s = params.source[i];
    model.p_claim_true[i] = clamp_prob(s.a, clamp_eps);
    model.p_claim_false[i] = clamp_prob(s.b, clamp_eps);
  }
  for (std::uint32_t i : exposed_sources) {
    if (i >= n) {
      throw std::invalid_argument(
          "make_column_model: exposed source out of range");
    }
    const SourceParams& s = params.source[i];
    model.p_claim_true[i] = clamp_prob(s.f, clamp_eps);
    model.p_claim_false[i] = clamp_prob(s.g, clamp_eps);
  }
  return model;
}

ColumnModel make_column_model(const ModelParams& params,
                              const std::vector<bool>& exposed,
                              double clamp_eps) {
  std::size_t n = params.source_count();
  if (exposed.size() != n) {
    throw std::invalid_argument(
        "make_column_model: params/mask source mismatch");
  }
  ColumnModel model;
  model.z = clamp_prob(params.z, clamp_eps);
  model.p_claim_true.resize(n);
  model.p_claim_false.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SourceParams& s = params.source[i];
    model.p_claim_true[i] = clamp_prob(exposed[i] ? s.f : s.a, clamp_eps);
    model.p_claim_false[i] = clamp_prob(exposed[i] ? s.g : s.b, clamp_eps);
  }
  return model;
}

std::uint64_t exposure_pattern_key(const DependencyIndicators& dep,
                                   std::size_t assertion) {
  return exposure_pattern_key(dep.exposed_sources(assertion));
}

std::uint64_t exposure_pattern_key(
    std::span<const std::uint32_t> exposed_sources) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i : exposed_sources) {
    h = splitmix64(h ^ (i + 0x100000001b3ULL));
  }
  return h;
}

}  // namespace ss
