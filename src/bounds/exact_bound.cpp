#include "bounds/exact_bound.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "math/logprob.h"

namespace ss {
namespace {

// One claim vector of a half of the sources.
struct HalfState {
  double llr;  // log P1 - log P0, summed one source at a time
  double p1;   // P(the half's claims | C = 1)
  double p0;   // P(the half's claims | C = 0)
};

// One outcome of a source (silent or claimed): the factors it puts on
// P1 and P0 and the LLR shift. A branch with a zero factor is dead:
// every claim vector through it has P1 = 0 or P0 = 0, so it adds
// min(z * P1, (1 - z) * P0) = 0 to the bound and is never enumerated.
// That keeps every enumerated LLR finite.
struct Branch {
  double q1 = 0.0;
  double q0 = 0.0;
  double shift = 0.0;

  bool live() const { return q1 > 0.0 && q0 > 0.0; }
  HalfState extend(const HalfState& s) const {
    return {s.llr + shift, s.p1 * q1, s.p0 * q0};
  }
};

// The silent and claimed branches of a source with these rates.
std::pair<Branch, Branch> branches(double p1, double p0) {
  Branch silent{1.0 - p1, 1.0 - p0};
  Branch claimed{p1, p0};
  if (silent.live()) silent.shift = safe_log1m(p1) - safe_log1m(p0);
  if (claimed.live()) claimed.shift = safe_log(p1) - safe_log(p0);
  return {silent, claimed};
}

// All live claim vectors of sources [lo, hi), sorted by LLR. Each
// source with two live branches doubles the list by merging its silent
// and claimed copies, which are each sorted because rounded addition
// is monotone (Horowitz–Sahni); no comparison sort runs. The merge runs
// from the back: the slot it writes lies above every entry either copy
// has yet to read, so the list doubles in place.
std::vector<HalfState> enumerate_half(const ColumnModel& model,
                                      std::size_t lo, std::size_t hi) {
  const std::vector<double>& p1 = model.p_claim_true;
  const std::vector<double>& p0 = model.p_claim_false;
  std::size_t size = 1;
  for (std::size_t i = lo; i < hi; ++i) {
    auto [silent, claimed] = branches(p1[i], p0[i]);
    if (!silent.live() && !claimed.live()) return {};
    if (silent.live() && claimed.live()) size *= 2;
  }
  std::vector<HalfState> states(size);
  states[0] = {0.0, 1.0, 1.0};
  std::size_t len = 1;
  for (std::size_t i = lo; i < hi; ++i) {
    auto [silent, claimed] = branches(p1[i], p0[i]);
    if (!silent.live() || !claimed.live()) {
      const Branch& only = silent.live() ? silent : claimed;
      for (std::size_t k = 0; k < len; ++k) {
        states[k] = only.extend(states[k]);
      }
      continue;
    }
    // Unread entries are [0, s) of the silent copy and [0, c) of the
    // claimed copy; the next slot written is s + c - 1. Equal LLRs put
    // the claimed copy above the silent one.
    std::size_t s = len;
    std::size_t c = len;
    for (std::size_t out = 2 * len; out-- > 0;) {
      bool take_claimed =
          s == 0 || (c > 0 && states[c - 1].llr + claimed.shift >=
                                  states[s - 1].llr + silent.shift);
      states[out] = take_claimed ? claimed.extend(states[--c])
                                 : silent.extend(states[--s]);
    }
    len *= 2;
  }
  return states;
}

}  // namespace

BoundResult exact_bound(const ColumnModel& model) {
  if (!model.valid()) {
    throw std::invalid_argument(
        "exact_bound: rates and z must lie in [0, 1], one rate pair per "
        "source");
  }
  std::size_t n = model.source_count();
  if (n > kExactBoundMaxSources) {
    throw std::invalid_argument(
        "exact_bound: too many sources for exact enumeration; use the "
        "Gibbs approximation");
  }
  const double z = model.z;
  std::vector<HalfState> a = enumerate_half(model, 0, n / 2);
  std::vector<HalfState> b = enumerate_half(model, n / 2, n);

  // A claim vector is the pair (x in a, y in b) and is decided true when
  // z * P1 >= (1 - z) * P0, i.e. when fl(x.llr + y.llr) >= tau. For a
  // fixed x the y decided true form a suffix b[k(x), end), and k(x)
  // falls as x.llr grows, so each sum below is one two-pointer sweep.
  // The running sums grow away from the pointer's start, never by
  // subtraction.
  const double tau = safe_log1m(z) - safe_log(z);
  auto decided_true = [tau](const HalfState& x, const HalfState& y) {
    return x.llr + y.llr >= tau;
  };
  // False negatives: z * P1(x) * P1(b[0, k(x))), x by descending LLR.
  double fn = 0.0;
  double p1_below = 0.0;
  std::size_t k = 0;
  for (std::size_t i = a.size(); i-- > 0;) {
    while (k < b.size() && !decided_true(a[i], b[k])) p1_below += b[k++].p1;
    fn += a[i].p1 * p1_below;
  }
  // False positives: (1 - z) * P0(x) * P0(b[k(x), end)), ascending LLR.
  double fp = 0.0;
  double p0_above = 0.0;
  k = b.size();
  for (const HalfState& x : a) {
    while (k > 0 && decided_true(x, b[k - 1])) p0_above += b[--k].p0;
    fp += x.p0 * p0_above;
  }

  BoundResult result;
  result.false_positive = (1.0 - z) * fp;
  result.false_negative = z * fn;
  result.error = result.false_positive + result.false_negative;
  return result;
}

BoundResult bound_from_joint(const std::vector<double>& joint_true,
                             const std::vector<double>& joint_false,
                             double z) {
  if (joint_true.size() != joint_false.size()) {
    throw std::invalid_argument("bound_from_joint: size mismatch");
  }
  BoundResult result;
  for (std::size_t k = 0; k < joint_true.size(); ++k) {
    double weight_true = z * joint_true[k];
    double weight_false = (1.0 - z) * joint_false[k];
    if (weight_true >= weight_false) {
      result.false_positive += weight_false;
    } else {
      result.false_negative += weight_true;
    }
  }
  result.error = result.false_positive + result.false_negative;
  return result;
}

}  // namespace ss
