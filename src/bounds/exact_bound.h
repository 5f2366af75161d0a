// Exact Bayes-risk error bound (Section III, Eq. 3).
//
// For one assertion the optimal estimator errs with probability
//   Err = sum over all 2^n claim combinations SC_j of
//         min{ z * P(SC_j | C=1), (1-z) * P(SC_j | C=0) }
//
// Algorithm (meet in the middle). Given C the sources are independent,
// so "decide true iff z * P1 >= (1-z) * P0" is a threshold on
// LLR_A + LLR_B, where A = sources [0, n/2), B = the rest and
// LLR = log P1 - log P0 over a half. Each half's claim vectors are
// enumerated once, kept sorted by LLR as they are built (each source
// merges the list's silent and claimed shifted copies, Horowitz-Sahni),
// and one two-pointer sweep per error side pairs every A vector with
// the suffix of B it is decided true against. Cost is O(2^ceil(n/2))
// time per call, single-threaded, so results do not depend on a pool.
//
// Ties. The rule is "decide true when z * P1 >= (1-z) * P0", evaluated
// as fl(LLR_A + LLR_B) >= log(1-z) - log(z). At an exact mathematical
// tie (say, mirrored sources at z = 0.5) rounding picks the side, so a
// tied vector's weight may land in false_positive or in false_negative;
// `error` does not depend on that, since min() takes the same value on
// either side.
//
// Degenerate rates. Rates of 0 or 1 and z in {0, 1} are exact: a claim
// vector with P1 = 0 or P0 = 0 adds min(...) = 0, so the outcomes that
// produce it are never enumerated and every LLR stays finite.
//
// Memory. Scratch is two arrays of 24-byte states, 2^floor(n/2) and
// 2^ceil(n/2) long (fewer when a rate is 0 or 1): tens of KB at n = 20,
// 48 MB at n = 40. exact_dataset_bound runs one pattern per pool worker,
// so at n = 40 its peak is about 48 MB times the worker count.
#pragma once

#include <cstddef>

#include "bounds/column_model.h"

namespace ss {

struct BoundResult {
  // Total expected error probability of the optimal estimator.
  double error = 0.0;
  // Portion from declaring false assertions true (paper: "false positive
  // bound") and true assertions false ("false negative bound").
  // error == false_positive + false_negative.
  double false_positive = 0.0;
  double false_negative = 0.0;

  double optimal_accuracy() const { return 1.0 - error; }
};

// Largest n exact_bound accepts (about 0.1 s and 48 MB per call at
// n = 40; the cost doubles every two sources). Beyond it the Gibbs
// approximation is the supported tool.
inline constexpr std::size_t kExactBoundMaxSources = 40;

// Throws std::invalid_argument when !model.valid() or when
// model.source_count() exceeds kExactBoundMaxSources.
BoundResult exact_bound(const ColumnModel& model);

// Eq. 3 applied to an *explicit* joint distribution over claim
// combinations: joint_true[k] = P(SC_j = k-th combination | C_j = 1) and
// likewise joint_false. Used for walkthroughs like the paper's Table I,
// whose joint does not factor into per-source rates. The two vectors
// must be equal-length; each should sum to ~1.
BoundResult bound_from_joint(const std::vector<double>& joint_true,
                             const std::vector<double>& joint_false,
                             double z);

}  // namespace ss
