// Dependency indicators D (Section II-A), generalized to *exposure*.
//
// The paper defines D_ij = 1 when source i's claim of assertion j is
// "dependent": some ancestor of i (a source i follows) asserted j earlier.
// The EM-Ext M-step (Eq. 10-14) also sums over *unclaimed* cells split by
// D_ij, so D must be defined for every (i, j) pair, not just claims. The
// natural extension — and the only one under which those sums are
// well-formed — is exposure: D_ij = 1 iff some ancestor of i asserted j
// before i's claim (or at any time, when i never claimed j). See DESIGN.md
// §5.
//
// Exposure is stored sparsely, because exposed cells are rare in
// realistic data: the untimed Incidence layout of SC
// (data/source_claim_matrix.h), per-source assertion lists and
// per-assertion source lists, both ascending.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "data/source_claim_matrix.h"
#include "graph/digraph.h"
#include "graph/forest.h"

namespace ss {

// Which sources count as a claim's potential influencers. The paper's
// Figure-1 walkthrough uses direct followees; its prose definition says
// "ancestors", which reads as transitive reachability. Both are
// supported; kDirect is the default (and the cheaper one — transitive
// closure on a celebrity graph explodes).
enum class ExposureScope { kDirect, kTransitive };

class DependencyIndicators {
 public:
  DependencyIndicators() = default;

  // Computes exposure from a follows-graph: source u is exposed to
  // assertion j iff some followee (direct, or any ancestor under
  // kTransitive) v of u claimed j, and (when u itself claimed j) v's
  // claim strictly precedes u's.
  static DependencyIndicators from_graph(
      const SourceClaimMatrix& sc, const Digraph& follows,
      ExposureScope scope = ExposureScope::kDirect);

  // Forest shortcut: leaves are exposed to exactly the assertions their
  // root claimed (roots always claim "first" in the generators).
  static DependencyIndicators from_forest(const SourceClaimMatrix& sc,
                                          const DependencyForest& forest);

  // Builds directly from explicit exposed cells (tests, file IO), in any
  // order; repeats collapse. Throws like the Incidence builder.
  static DependencyIndicators from_cells(
      std::size_t sources, std::size_t assertions,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& cells);

  std::size_t source_count() const { return cells_.row_count(); }
  std::size_t assertion_count() const { return cells_.col_count(); }
  std::size_t exposed_cell_count() const { return cells_.cell_count(); }

  // D_ij. O(log deg).
  bool dependent(std::size_t source, std::size_t assertion) const {
    return cells_.find(source, assertion) < exposed_assertions(source).size();
  }

  // Assertions source i is exposed to, ascending.
  std::span<const std::uint32_t> exposed_assertions(
      std::size_t source) const {
    return cells_.row(source);
  }
  // Sources exposed to assertion j, ascending.
  std::span<const std::uint32_t> exposed_sources(
      std::size_t assertion) const {
    return cells_.col(assertion);
  }

 private:
  explicit DependencyIndicators(Incidence cells) : cells_(std::move(cells)) {}

  Incidence cells_;
};

// D_ij for every claim of one claim list, by a linear merge: calls
// visit(id, dependent) for each id of `claims` in order, where
// `exposed` is the exposure list of the same row or column —
// claims_of(i) with exposed_assertions(i), or claimants_of(j) with
// exposed_sources(j). Both lists must be ascending. This is the one
// place the claims are split by D_ij: the shard fill, LikelihoodTable's
// flags, the streaming M-step, EM-Social's view and
// count_original_claims all call it.
template <typename Visit>
void split_claims(std::span<const std::uint32_t> claims,
                  std::span<const std::uint32_t> exposed, Visit&& visit) {
  std::size_t e = 0;
  for (std::uint32_t id : claims) {
    while (e < exposed.size() && exposed[e] < id) ++e;
    visit(id, e < exposed.size() && exposed[e] == id);
  }
}

// Counts claims with D_ij == 0, the paper's "#Original Claims" column in
// Table III.
std::size_t count_original_claims(const SourceClaimMatrix& sc,
                                  const DependencyIndicators& dep);

}  // namespace ss
