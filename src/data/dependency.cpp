#include "data/dependency.h"

#include <stdexcept>

namespace ss {

DependencyIndicators DependencyIndicators::from_graph(
    const SourceClaimMatrix& sc, const Digraph& follows,
    ExposureScope scope) {
  if (follows.node_count() != sc.source_count()) {
    throw std::invalid_argument(
        "DependencyIndicators::from_graph: graph/matrix source mismatch");
  }
  std::vector<Incidence::Cell> cells;
  auto expose = [&](std::size_t u, std::uint32_t j, double tv) {
    // u is exposed when it never claimed j, or claimed it strictly
    // after the influencer's time tv.
    bool exposed =
        sc.has_claim(u, j) ? tv < sc.claim_time(u, j) : true;
    if (exposed) cells.emplace_back(static_cast<std::uint32_t>(u), j);
  };

  if (scope == ExposureScope::kDirect) {
    // For every claim (v, j, t) the direct followers of v are exposure
    // candidates.
    for (std::size_t j = 0; j < sc.assertion_count(); ++j) {
      std::span<const std::uint32_t> claimants = sc.claimants_of(j);
      std::span<const double> times = sc.claimant_times_of(j);
      for (std::size_t k = 0; k < claimants.size(); ++k) {
        for (std::size_t u : follows.followers(claimants[k])) {
          expose(u, static_cast<std::uint32_t>(j), times[k]);
        }
      }
    }
  } else {
    // Transitive: every ancestor's claim can influence u. One BFS per
    // source — O(V (V + E)) worst case, intended for analysis-scale
    // graphs, not Paris-Attack-scale ingestion.
    for (std::size_t u = 0; u < sc.source_count(); ++u) {
      std::vector<char> mask = follows.ancestor_mask(u);
      for (std::size_t v = 0; v < mask.size(); ++v) {
        if (!mask[v]) continue;
        std::span<const std::uint32_t> claims = sc.claims_of(v);
        std::span<const double> times = sc.claim_times_of(v);
        for (std::size_t k = 0; k < claims.size(); ++k) {
          expose(u, claims[k], times[k]);
        }
      }
    }
  }
  return DependencyIndicators(
      Incidence(sc.source_count(), sc.assertion_count(), cells));
}

DependencyIndicators DependencyIndicators::from_forest(
    const SourceClaimMatrix& sc, const DependencyForest& forest) {
  if (forest.source_count() != sc.source_count()) {
    throw std::invalid_argument(
        "DependencyIndicators::from_forest: forest/matrix source mismatch");
  }
  std::vector<Incidence::Cell> cells;
  for (std::size_t i = 0; i < sc.source_count(); ++i) {
    if (forest.is_root(i)) continue;
    for (std::uint32_t j : sc.claims_of(forest.root_of[i])) {
      cells.emplace_back(static_cast<std::uint32_t>(i), j);
    }
  }
  return DependencyIndicators(
      Incidence(sc.source_count(), sc.assertion_count(), cells));
}

DependencyIndicators DependencyIndicators::from_cells(
    std::size_t sources, std::size_t assertions,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& cells) {
  return DependencyIndicators(Incidence(sources, assertions, cells));
}

std::size_t count_original_claims(const SourceClaimMatrix& sc,
                                  const DependencyIndicators& dep) {
  if (dep.source_count() != sc.source_count() ||
      dep.assertion_count() != sc.assertion_count()) {
    throw std::invalid_argument(
        "count_original_claims: dependency/matrix shape mismatch");
  }
  std::size_t original = 0;
  for (std::size_t i = 0; i < sc.source_count(); ++i) {
    split_claims(sc.claims_of(i), dep.exposed_assertions(i),
                 [&](std::uint32_t, bool dependent) {
                   original += dependent ? 0 : 1;
                 });
  }
  return original;
}

}  // namespace ss
