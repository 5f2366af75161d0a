#include "simgen/procedural_gen.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace ss {
namespace {

// Mutable per-source candidate tracking: which assertions this source has
// not claimed yet, maintained as a flat "claimed" bitmap (m is small in
// the simulation experiments, so linear scans over candidates are fine).
struct PickContext {
  const std::vector<Label>* truth;
  std::vector<char> claimed_by_me;

  // Picks uniformly an assertion from `candidates` whose truth label
  // matches `want_true` and which this source has not claimed yet.
  // Returns m (invalid) when no candidate qualifies.
  std::size_t pick(std::span<const std::uint32_t> candidates,
                   bool want_true, Rng& rng) const {
    std::vector<std::uint32_t> eligible;
    for (std::uint32_t j : candidates) {
      bool is_true = (*truth)[j] == Label::kTrue;
      if (is_true == want_true && !claimed_by_me[j]) {
        eligible.push_back(j);
      }
    }
    if (eligible.empty()) return truth->size();
    return eligible[rng.uniform_u32(
        static_cast<std::uint32_t>(eligible.size()))];
  }
};

}  // namespace

SimInstance generate_procedural(const SimKnobs& knobs, Rng& rng) {
  std::size_t n = knobs.sources;
  std::size_t m = knobs.assertions;
  std::size_t opportunities =
      knobs.opportunities > 0 ? knobs.opportunities : m / 2;

  SimInstance inst;
  inst.tau = knobs.sample_tau(rng);
  inst.d = knobs.d.sample(rng);
  inst.forest = make_level_two_forest(n, inst.tau, rng);

  std::size_t true_count = static_cast<std::size_t>(
      std::lround(inst.d * static_cast<double>(m)));
  true_count = std::min(true_count, m);
  std::vector<Label> truth(m, Label::kFalse);
  for (std::size_t j = 0; j < true_count; ++j) truth[j] = Label::kTrue;
  rng.shuffle(truth);

  std::vector<std::uint32_t> all_assertions(m);
  for (std::size_t j = 0; j < m; ++j) {
    all_assertions[j] = static_cast<std::uint32_t>(j);
  }

  std::vector<Claim> claims;
  double clock = 0.0;  // strictly increasing claim timestamps

  // Phase 1: roots make independent claims.
  for (std::size_t r : inst.forest.roots) {
    double p_on = knobs.p_on.sample(rng);
    double p_it = knobs.p_indep_true.sample(rng);
    PickContext ctx{&truth, std::vector<char>(m, 0)};
    for (std::size_t k = 0; k < opportunities; ++k) {
      if (!rng.bernoulli(p_on)) continue;
      bool want_true = rng.bernoulli(p_it);
      std::size_t j = ctx.pick(all_assertions, want_true, rng);
      if (j >= m) j = ctx.pick(all_assertions, !want_true, rng);
      if (j >= m) continue;  // source exhausted every assertion
      ctx.claimed_by_me[j] = 1;
      clock += 1.0;
      claims.push_back({static_cast<std::uint32_t>(r),
                        static_cast<std::uint32_t>(j), clock});
    }
  }

  // Root claims define each leaf's dependent candidate subset.
  SourceClaimMatrix root_claims(n, m, claims);

  // Phase 2: leaves claim, mixing dependent and independent picks.
  for (std::size_t i = 0; i < n; ++i) {
    if (inst.forest.is_root(i)) continue;
    std::size_t r = inst.forest.root_of[i];
    std::span<const std::uint32_t> dep_candidates = root_claims.claims_of(r);
    std::vector<std::uint32_t> indep_candidates;
    for (std::uint32_t j : all_assertions) {
      if (!root_claims.has_claim(r, j)) indep_candidates.push_back(j);
    }

    double p_on = knobs.p_on.sample(rng);
    double p_dep = knobs.p_dep.sample(rng);
    double p_it = knobs.p_indep_true.sample(rng);
    double p_dt = knobs.p_dep_true.sample(rng);
    PickContext ctx{&truth, std::vector<char>(m, 0)};
    for (std::size_t k = 0; k < opportunities; ++k) {
      if (!rng.bernoulli(p_on)) continue;
      bool dependent_branch = rng.bernoulli(p_dep);
      std::size_t j = m;
      if (dependent_branch) {
        bool want_true = rng.bernoulli(p_dt);
        j = ctx.pick(dep_candidates, want_true, rng);
        if (j >= m) j = ctx.pick(dep_candidates, !want_true, rng);
      }
      if (j >= m) {
        bool want_true = rng.bernoulli(p_it);
        j = ctx.pick(indep_candidates, want_true, rng);
        if (j >= m) j = ctx.pick(indep_candidates, !want_true, rng);
      }
      if (j >= m) continue;
      ctx.claimed_by_me[j] = 1;
      clock += 1.0;
      claims.push_back({static_cast<std::uint32_t>(i),
                        static_cast<std::uint32_t>(j), clock});
    }
  }

  inst.dataset.name = "procedural";
  inst.dataset.claims = SourceClaimMatrix(n, m, claims);
  inst.dataset.dependency =
      DependencyIndicators::from_forest(inst.dataset.claims, inst.forest);
  inst.dataset.truth = std::move(truth);
  inst.dataset.validate();
  return inst;
}

}  // namespace ss
