// Hoisted log-parameter kernels for the inference hot loops.
//
// Every estimator in this codebase spends its inner loops summing
// per-source log-likelihood terms over sparse incidence lists (CSR spans
// from SourceClaimMatrix / DependencyIndicators and the shards). The
// terms themselves are iteration-constant: they change only when the
// parameters change, i.e. once per EM iteration or once per Gibbs run —
// never per incidence.
// This header is the one place where those terms are hoisted into
// contiguous structure-of-arrays buffers and where the per-incidence
// work is reduced to pure adds:
//
//  * LogPair / ExtLogTable — per-source log terms for the true and
//    false hypotheses, stored *interleaved* so one cache line feeds
//    both accumulators of a gather (the pre-kernel code kept six
//    parallel arrays and paid two cache misses per incidence);
//  * gather_add / gather_add_select — the branch-free incidence loops
//    (select replaces the per-claim D_ij branch with an index into a
//    two-pointer table);
//  * finalize_column / finalize_pair — the per-column epilogue with the
//    shared exp: sigmoid(d) and logsumexp(lt, lf) both reduce to
//    exp(-|d|), so one transcendental yields posterior, log-odds and
//    the column log-likelihood (the pre-kernel path paid two);
//  * SweepWeights — the Gibbs sampler's per-source log weights, hoisted
//    out of the sweep loop (the pre-kernel sampler recomputed four
//    transcendentals per source per sweep);
//  * gather_sum / gather_mass — the M-step's posterior-mass gathers.
//
// Backends. Four entry points resolve at runtime to one of two
// implementations (docs/MODEL.md §12); every other kernel, the gathers
// included, runs its scalar loop on both backends:
//
//  * scalar — the loops written inline here. Bit-identity contract:
//    every scalar kernel performs exactly the additions of the
//    per-element loop it replaces, in the same order, on the same
//    values — hoisting moves computations, it never reorders floating
//    point. The *_reference functions are the pre-kernel loops kept as
//    the executable specification; tests/test_kernels.cpp asserts
//    scalar == reference bitwise (ctest label `kernels`) and golden
//    FNV-1a hashes lock EM-Ext, the streaming estimator, Gibbs,
//    Truth-Finder and Average.Log to the pre-kernel bits (EM-Social
//    and EM (IPSN'12) were re-pinned once, when they became data views
//    on the EM-Ext engine).
//    The one sanctioned identity beyond "same expression" is IEEE
//    antisymmetry of subtraction under round-to-nearest, fl(b - a) ==
//    -fl(a - b), which lets finalize_* feed sigmoid and logsumexp from
//    a single difference; the reference comparison locks it in.
//  * avx2 — vectorized implementations in simd/kernels_avx2.cpp
//    (AVX2+FMA, selected by CPUID dispatch or SS_KERNEL_BACKEND; see
//    math/simd/dispatch.h) of the four kernels whose scalar loop
//    measurably slows a benchmark workload: the ExtLogTable row build,
//    finalize_columns, SweepWeightsTable's packed refresh and
//    finalize_params. finalize_params is exact. The other three
//    evaluate exp/log/log1p by polynomial or split a sum into partial
//    chains, so their results differ from scalar at the ULP level: the
//    contract is accuracy, not identity. tests/test_simd.cpp bounds the
//    per-kernel ULP distance against the scalar reference (ctest label
//    `simd`), and tests/test_perf_smoke.cpp checks the agreement on
//    Twitter-scale inputs through a whole EM-Ext fit (label
//    `perf-smoke`).
//
// To add a new estimator on the kernel layer: hoist its per-source log
// terms into a table rebuilt once per iteration (reuse the buffers —
// build() only allocates when the source count grows), express the
// inner loops as gathers over the incidence spans, and keep one
// accumulator per term of the original loop so the addition order is
// preserved. See docs/MODEL.md §10 and — before adding an AVX2
// counterpart, which needs a measured end-to-end win — §12.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "math/logprob.h"
#include "math/simd/dispatch.h"
#include "util/thread_pool.h"

namespace ss {
namespace kernels {

// ---------------------------------------------------------------------
// Deterministic fixed-shape tree reduction (docs/MODEL.md §16).
//
// The reduction tree's shape is a pure function of the element count:
// [0, count) splits into ceil(count / kTreeReduceBlock) fixed blocks,
// each block is summed serially in element order, and the per-block
// partials are folded pairwise (p[i] = p[2i] (+) p[2i+1], odd tail
// carried) until one value remains. Thread count, shard layout and
// arrival order never enter the shape, so the result is bit-identical
// whether the block partials were computed serially or by
// parallel_for_chunks on any pool — and a count <= kTreeReduceBlock
// reduction degenerates to the plain serial left fold it replaces.
// ---------------------------------------------------------------------

// Block size of the reduction tree. Chosen so per-block sums amortize
// scheduling and the combine tree stays tiny (10^6 elements -> 245
// partials -> 8 pairwise rounds).
inline constexpr std::size_t kTreeReduceBlock = 4096;

// Sources per chunk of the per-source passes that write one slot per
// source (ExtLogTable rows, the streaming M-step). Fixed, so a
// source's slot is written by the same chunk for any pool;
// n <= kSourceChunk is one chunk, run inline.
inline constexpr std::size_t kSourceChunk = 4096;

// Number of leaf blocks the tree has for `count` elements.
inline std::size_t tree_block_count(std::size_t count) {
  return (count + kTreeReduceBlock - 1) / kTreeReduceBlock;
}

// Folds `partials` pairwise in place until one value remains and
// returns it. The fold shape depends only on partials.size().
template <typename T, typename CombineFn>
T tree_combine(std::vector<T>& partials, CombineFn&& combine) {
  std::size_t width = partials.size();
  while (width > 1) {
    std::size_t half = width / 2;
    for (std::size_t i = 0; i < half; ++i) {
      partials[i] = combine(partials[2 * i], partials[2 * i + 1]);
    }
    if (width % 2 != 0) partials[half] = partials[width - 1];
    width = (width + 1) / 2;
  }
  return partials[0];
}

// Runs body(chunk, begin, end) over the fixed `grain`-element chunks of
// [0, count): through `pool` when one is given and there is more than
// one chunk, inline in chunk order otherwise. Chunk boundaries depend
// only on (count, grain), so a body that writes disjoint slots produces
// the same bits either way — the inline path is the same chunks, not a
// serial twin of the parallel one.
template <typename Body>
void for_each_chunk(ThreadPool* pool, std::size_t count, std::size_t grain,
                    Body&& body) {
  if (pool != nullptr && count > grain) {
    pool->parallel_for_chunks(count, grain, body);
    return;
  }
  for (std::size_t c = 0, b = 0; b < count; ++c, b += grain) {
    body(c, b, std::min(count, b + grain));
  }
}

// Tree reduction over [0, count): block_fn(begin, end) -> T computes one
// leaf partial (serially, in element order), combine(a, b) -> T merges
// two. Leaves are evaluated through `pool` when given (each leaf writes
// its own slot — parallel-safe), serially otherwise; the combine rounds
// run on the calling thread. Identical bits either way.
template <typename T, typename BlockFn, typename CombineFn>
T tree_reduce(ThreadPool* pool, std::size_t count, T zero,
              BlockFn&& block_fn, CombineFn&& combine) {
  std::size_t blocks = tree_block_count(count);
  if (blocks == 0) return zero;
  if (blocks == 1) return block_fn(std::size_t{0}, count);
  std::vector<T> partials(blocks);
  for_each_chunk(pool, count, kTreeReduceBlock,
                 [&](std::size_t c, std::size_t b, std::size_t e) {
                   partials[c] = block_fn(b, e);
                 });
  return tree_combine(partials, combine);
}

// Tree sum of values[0..n): the deterministic replacement for the
// serial `for (double v : xs) acc += v` folds on the column
// log-likelihood and M-step pooling paths. Bit-identical for any
// thread count; equal to the serial left fold whenever
// n <= kTreeReduceBlock.
double tree_sum(ThreadPool* pool, const double* values, std::size_t n);

// ---------------------------------------------------------------------
// Value types shared by both backends.
// ---------------------------------------------------------------------

// One per-source log term under both hypotheses, interleaved so a
// single gather touches one cache line instead of two.
struct LogPair {
  double t = 0.0;  // true-hypothesis term
  double f = 0.0;  // false-hypothesis term
};

// Posterior mass pair over a claim list (M-step accumulators).
struct MassPair {
  double z = 0.0;
  double y = 0.0;
};

// Everything the fused E-step needs from one column, given the two
// prior-weighted log-likelihoods la = lt + log z, lb = lf + log(1-z).
struct ColumnStats {
  double posterior = 0.5;       // Eq. 9
  double log_odds = 0.0;        // la - lb (unsaturated ranking score)
  double log_likelihood = 0.0;  // logsumexp(la, lb) (Eq. 7 summand)
};

// Posterior + log-odds only (estimators that do not track the data
// log-likelihood).
struct PairStats {
  double posterior = 0.5;
  double log_odds = 0.0;
};

// The Gibbs sampler's per-source log weights — constant over an entire
// chain, recomputed four-transcendentals-per-source-per-sweep by the
// pre-kernel sampler. One contiguous record per source keeps the sweep
// loop a sequential walk.
struct SweepWeights {
  double log_t1 = 0.0;   // log p(claim | C=1)
  double log_t1n = 0.0;  // log(1 - p(claim | C=1))
  double log_f1 = 0.0;   // log p(claim | C=0)
  double log_f1n = 0.0;  // log(1 - p(claim | C=0))
};

}  // namespace kernels

// ---------------------------------------------------------------------
// AVX2 backend entry points, implemented in simd/kernels_avx2.cpp
// (the only translation unit built with -mavx2 -mfma, and the only
// place intrinsics are allowed — lint rule R7). The signatures are
// intrinsic-free on purpose so including this header never drags in
// <immintrin.h>. Callers never use these directly: the kernels::
// wrappers below dispatch to them when the avx2 backend is active.
// ---------------------------------------------------------------------
namespace simd {

// Batch epilogues; aliasing contract documented on the kernels::
// wrappers below.
void finalize_columns_avx2(const double* la, const double* lb,
                           std::size_t n, double* posterior,
                           double* log_odds, double* column_ll);
// Ext table rows for n sources: `rates` holds {a, b, f, g} per source,
// contiguously (the SourceParams memory layout). With `clamp` the
// kernel applies the canonical clamp_prob clamp in-register before the
// row math, replicating std::clamp's branch semantics with ordered
// compare + blend — a NaN rate survives the clamp and takes the scalar
// degenerate row, exactly like clamp_prob(NaN). `silent` receives each
// source's all-silent pair [log(1-a), log(1-b)]; the caller sums the
// pairs in source order (ExtLogTable::base).
void ext_table_rows_avx2(std::size_t n, const double* rates, bool clamp,
                         kernels::LogPair* exposed_silent,
                         kernels::LogPair* claim_indep,
                         kernels::LogPair* claim_dep,
                         kernels::LogPair* silent);
// Masked contiguous sums over the packed (SoA) sweep-weight layout:
// returns { sum_{bits[i]} delta_t[i], sum_{bits[i]} delta_f[i] } — the
// caller adds the all-silent base sums (see SweepWeightsTable).
kernels::LogPair sum_packed_state_logs_avx2(std::span<const char> bits,
                                            const double* delta_t,
                                            const double* delta_f);
// In-place M-step parameter finalize; EXACT contract (not ULP): every
// operation used (add, div, compare/blend, max/min clamp, 0.5*(f+g)
// tie, |diff|) is correctly rounded and the kernel is written without
// FMA contraction, so its bits equal the scalar loop's for all inputs
// including NaN/inf stats. See kernels::finalize_params.
std::size_t finalize_params_avx2(std::size_t n, const double* stats6,
                                 double total_z, double total_y,
                                 const double* cells, const double* cmu,
                                 double lo, double hi, bool tie_fg,
                                 double* params4, double* delta_max);

}  // namespace simd

namespace kernels {

// ---------------------------------------------------------------------
// Backend validation helper: ordered-integer ULP distance. 0 for
// bitwise-equal values (and for +0.0 vs -0.0, which are adjacent in
// the ordering but equal as reals — callers that care about the sign
// of zero should compare bits directly). NaN against anything is
// "infinitely far". Used by tests/test_simd.cpp; not a hot-path
// function.
// ---------------------------------------------------------------------
inline std::uint64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return (std::isnan(a) && std::isnan(b))
               ? 0
               : std::numeric_limits<std::uint64_t>::max();
  }
  auto ordered = [](double x) {
    std::int64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    if (bits < 0) bits = std::numeric_limits<std::int64_t>::min() - bits;
    // Shift the sign-symmetric ordering into unsigned space so the
    // distance below cannot overflow.
    return static_cast<std::uint64_t>(bits) + 0x8000000000000000ull;
  };
  std::uint64_t ua = ordered(a);
  std::uint64_t ub = ordered(b);
  return ua > ub ? ua - ub : ub - ua;
}

// ---------------------------------------------------------------------
// Gather kernels: pure adds over incidence spans, in element order on
// every backend.
// ---------------------------------------------------------------------

// acc += sum_{u in idx} terms[u], both hypotheses per element.
inline LogPair gather_add(LogPair acc, std::span<const std::uint32_t> idx,
                          const LogPair* terms) {
  double at = acc.t;
  double af = acc.f;
  for (std::uint32_t u : idx) {
    const LogPair& p = terms[u];
    at += p.t;
    af += p.f;
  }
  return {at, af};
}

// acc += sum_k table(flags[k])[idx[k]] where table(0) = indep and
// table(1) = dep. `flags` is aligned with `idx` (the D_ij flags that
// split_claims computes for a claimant list). The two-pointer select
// compiles to a conditional move — the per-claim D_ij branch of the
// pre-kernel loop is gone, but the element order (and therefore the
// floating-point result) is exactly the branchy loop's.
inline LogPair gather_add_select(LogPair acc,
                                 std::span<const std::uint32_t> idx,
                                 std::span<const char> flags,
                                 const LogPair* indep,
                                 const LogPair* dep) {
  const LogPair* const sel[2] = {indep, dep};
  double at = acc.t;
  double af = acc.f;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const LogPair& p = sel[flags[k] != 0][idx[k]];
    at += p.t;
    af += p.f;
  }
  return {at, af};
}

// sum_{j in idx} values[j] (TruthFinder's claim-weight sums,
// Average.Log's belief/trust sums, the M-step's exposed-mass sums).
inline double gather_sum(std::span<const std::uint32_t> idx,
                         const double* values) {
  double acc = 0.0;
  for (std::uint32_t j : idx) acc += values[j];
  return acc;
}

// Posterior mass pair over a claim list: z += Z_j, y += 1 - Z_j, in
// list order with one accumulator each — exactly the M-step loop it
// replaces.
inline MassPair gather_mass(std::span<const std::uint32_t> idx,
                            const double* posterior) {
  MassPair acc;
  for (std::uint32_t j : idx) {
    acc.z += posterior[j];
    acc.y += 1.0 - posterior[j];
  }
  return acc;
}

// ---------------------------------------------------------------------
// Column epilogues: one exp instead of two.
// ---------------------------------------------------------------------

// Bit-identical fusion of {normalize_log_pair(la, lb), la - lb,
// logsumexp(la, lb)}: with d = la - lb, sigmoid needs exp(-|d|) and
// logsumexp needs exp(lo - hi) == exp(-|d|) (IEEE subtraction is
// antisymmetric under round-to-nearest), so one exp serves both.
// -inf inputs delegate to the reference forms to keep their exact
// degenerate-case semantics. Always scalar: single-column callers are
// not worth a dispatch; the batch form below is the vectorized shape.
inline ColumnStats finalize_column(double la, double lb) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  double d = la - lb;
  if (la == kNegInf || lb == kNegInf) {
    return {normalize_log_pair(la, lb), d, logsumexp(la, lb)};
  }
  if (d >= 0.0) {
    double e = std::exp(-d);
    return {1.0 / (1.0 + e), d, la + std::log1p(e)};
  }
  double e = std::exp(d);
  return {e / (1.0 + e), d, lb + std::log1p(e)};
}

inline PairStats finalize_pair(double la, double lb) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  double d = la - lb;
  if (la == kNegInf || lb == kNegInf) {
    return {normalize_log_pair(la, lb), d};
  }
  if (d >= 0.0) {
    double e = std::exp(-d);
    return {1.0 / (1.0 + e), d};
  }
  double e = std::exp(d);
  return {e / (1.0 + e), d};
}

// Batch epilogues over n columns — the dispatched form the fused
// E-step uses. Scalar backend: exactly finalize_column per column,
// ascending j. AVX2 backend: four columns per iteration with
// polynomial exp/log1p (±inf/NaN lanes fall back to the scalar form
// for exact degenerate semantics).
//
// Aliasing contract: the output arrays may alias the inputs
// elementwise — posterior.cpp passes log_odds == la and column_ll ==
// lb (the E-step parks its intermediates in the output buffers). Any
// backend must therefore read la[j]/lb[j] (or the whole vector block)
// before writing the corresponding outputs. Beyond elementwise
// aliasing the arrays must not overlap.
void finalize_columns(const double* la, const double* lb, std::size_t n,
                      double* posterior, double* log_odds,
                      double* column_ll);

// Fused M-step parameter finalize over n sources, in place. `stats6`
// is n rows of 6 doubles laid out as em_detail::SourceMStatsPacked —
// nums {claim_indep_z, claim_indep_y, claim_dep_z, claim_dep_y}, then
// {exposed_z, exposed_count}. The four update denominators, aligned
// lane-for-lane with the `params4` rows {a, b, f, g}, are derived per
// row from the exposure pair and the loop constants total_z / total_y
// with this exact operation order (each a single correctly-rounded
// subtraction, so the derived values are bitwise the historical
// fill-time denom fields):
//   t1 = exposed_count - exposed_z;
//   denom = {total_z - exposed_z, total_y - t1, exposed_z, t1}.
// `cells` and `cmu` hold the four loop-constant MAP
// terms cells_x = shrinkage / max(mu_x, 1e-9) and cmu_x = cells_x *
// mu_x. Per lane, in this exact order:
//   d = denom + cells; raw = d > 0 ? (num + cmu) / d : prev;
//   clamped = min(hi, max(lo, raw))   [NaN-propagating operand order];
//   if clamped is NaN -> prev, counted as sanitized;
//   if tie_fg        -> f = g = 0.5 * (f + g);
//   delta_max accumulates |new - prev| (plus |new - prev| of every
//   other lane; max is order-independent).
// Returns the sanitized-lane count. Unlike the ULP-contract kernels,
// the AVX2 backend of this epilogue is EXACT: div/add/max/min/blend
// are correctly rounded, cmu is precomputed so no FMA opportunity
// exists, and tests/test_simd.cpp asserts bitwise equality — so the
// dispatch never perturbs the golden hashes.
std::size_t finalize_params(std::size_t n, const double* stats6,
                            double total_z, double total_y,
                            const double* cells, const double* cmu,
                            double lo, double hi, bool tie_fg,
                            double* params4, double* delta_max);

// ---------------------------------------------------------------------
// Log-parameter tables: per-source terms hoisted once per iteration.
// ---------------------------------------------------------------------

// Four-rate table for the dependency-aware model (Table II): baseline
// "everyone silent and unexposed" sums plus the three correction pairs
// LikelihoodTable applies per column. Both builds run the same row
// pass: the scalar backend performs exactly the eight transcendentals
// per source of the pre-kernel constructor, the avx2 backend evaluates
// all four log/log1p pairs of a source as one vector
// (simd::ext_table_rows_avx2), and buffers are reallocated only when
// the source count changes.
//
// Parallel build. Rows are computed in fixed kSourceChunk-source
// chunks, on the pool when one is given. Each source's all-silent pair
// [log(1-a), log(1-b)] is stored rather than added to a running sum,
// and base() is then summed serially over the stored pairs in source
// order — the same additions, on the same values, that a running sum
// inside the row loop makes — so the table is bit-identical for any
// pool, including none.
class ExtLogTable {
 public:
  // `rates(i)` must return the already-clamped {a, b, f, g} for source
  // i. Packs the rates into a scratch row per source, then builds
  // serially (tests; the EM engines use build_from_rows).
  template <typename Rates>
  void build(std::size_t n, double z, Rates&& rates) {
    if (rate_scratch_.size() < 4 * n) rate_scratch_.resize(4 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto r = rates(i);  // {a, b, f, g}, clamped by the caller
      rate_scratch_[4 * i + 0] = r[0];
      rate_scratch_[4 * i + 1] = r[1];
      rate_scratch_[4 * i + 2] = r[2];
      rate_scratch_[4 * i + 3] = r[3];
    }
    build_rows(n, z, rate_scratch_.data(), /*clamp=*/false, nullptr);
  }

  // Builds straight from n contiguous *unclamped* {a, b, f, g} rate
  // rows (the SourceParams memory layout; callers static_assert the
  // 4-double layout at the reinterpret_cast site), applying the
  // default clamp_prob per rate in flight. Bit-identical to build()
  // over clamp_prob-wrapped rates, without the per-iteration 4n-double
  // scratch pack — a 32 MB write + read per EM iteration at 10^6
  // sources. Rows run on `pool` (nullptr = inline, same chunks).
  void build_from_rows(std::size_t n, double z, const double* rates4,
                       ThreadPool* pool = nullptr) {
    build_rows(n, z, rates4, /*clamp=*/true, pool);
  }

  std::size_t source_count() const { return exposed_silent_.size(); }
  LogPair base() const { return base_; }
  double log_z() const { return log_z_; }
  double log_1mz() const { return log_1mz_; }
  // Correction term arrays, indexed by source:
  //   exposed_silent: log(1-f)-log(1-a) | log(1-g)-log(1-b)
  //   claim_indep:    log(a)-log(1-a)   | log(b)-log(1-b)
  //   claim_dep:      log(f)-log(1-f)   | log(g)-log(1-g)
  const LogPair* exposed_silent() const { return exposed_silent_.data(); }
  const LogPair* claim_indep() const { return claim_indep_.data(); }
  const LogPair* claim_dep() const { return claim_dep_.data(); }

 private:
  // The row pass both builds share (kernels.cpp): rows in kSourceChunk
  // chunks on `pool`, then the serial source-order base sum.
  void build_rows(std::size_t n, double z, const double* rates4, bool clamp,
                  ThreadPool* pool);

  std::vector<LogPair> exposed_silent_;
  std::vector<LogPair> claim_indep_;
  std::vector<LogPair> claim_dep_;
  std::vector<LogPair> silent_;  // log(1-a) | log(1-b), summed into base_
  std::vector<double> rate_scratch_;  // build() input, {a,b,f,g} rows
  LogPair base_;
  double log_z_ = 0.0;
  double log_1mz_ = 0.0;
};

// ---------------------------------------------------------------------
// Gibbs sweep weights.
// ---------------------------------------------------------------------

// Fills `out` (resized to match) from the clamped claim probabilities,
// with libm's log/log1p on every backend.
void build_sweep_weights(std::span<const double> p_claim_true,
                         std::span<const double> p_claim_false,
                         std::vector<SweepWeights>& out);

// Full-state log-likelihood refresh: sum over sources of the selected
// weight per bit, in source order (the drift-cancelling resync the
// sampler runs once per sweep).
inline LogPair sum_state_logs(std::span<const char> bits,
                              const SweepWeights* w) {
  double lt = 0.0;
  double lf = 0.0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    lt += bits[i] ? w[i].log_t1 : w[i].log_t1n;
    lf += bits[i] ? w[i].log_f1 : w[i].log_f1n;
  }
  return {lt, lf};
}

// Chain-constant sweep weights with a backend-matched refresh layout.
//
// The AoS records are exact on every backend: sum_state_logs() over
// them reproduces the pre-kernel sampler bit-for-bit, and the per-flip
// leave-one-out updates read them directly. When the AVX2 backend is
// active at build() time the table additionally packs a delta/base
// (SoA) companion — delta_t[i] = log_t1 - log_t1n, delta_f[i] =
// log_f1 - log_f1n, plus the all-silent base sums (source order) —
// which turns the full-state refresh into two masked contiguous sums
//   lt = base_t + sum_{bits[i]} delta_t[i]
// at half the memory traffic of the AoS walk, with no per-lane
// shuffles. Each delta rounds once and the sum reassociates, so the
// packed refresh lives under the AVX2 ULP contract; the scalar backend
// never uses it.
class SweepWeightsTable {
 public:
  // Rebuilds from clamped claim probabilities (the records come from
  // build_sweep_weights; the packed companion is derived from the
  // records, so both layouts always describe the same table).
  void build(std::span<const double> p_claim_true,
             std::span<const double> p_claim_false);

  std::size_t size() const { return records_.size(); }
  const SweepWeights* data() const { return records_.data(); }
  const SweepWeights& operator[](std::size_t i) const {
    return records_[i];
  }

  // Full-state refresh: the packed AVX2 sum when the companion exists
  // and the backend is active, the scalar AoS walk otherwise.
  LogPair sum_state_logs(std::span<const char> bits) const {
    if (packed_ && bits.size() >= 8 && simd::avx2_active()) {
      LogPair d = simd::sum_packed_state_logs_avx2(
          bits, delta_t_.data(), delta_f_.data());
      return {silent_base_.t + d.t, silent_base_.f + d.f};
    }
    return kernels::sum_state_logs(bits, records_.data());
  }

 private:
  std::vector<SweepWeights> records_;
  std::vector<double> delta_t_, delta_f_;  // avx2 companion
  LogPair silent_base_;
  bool packed_ = false;
};

// ---------------------------------------------------------------------
// Reference kernels: the pre-kernel per-element loops, kept as the
// executable specification for the property tests. Deliberately
// structured like the code they replaced — separate per-hypothesis
// arrays, a branch per claim, two transcendentals per column epilogue.
// ---------------------------------------------------------------------

inline void gather_add_reference(double& lt, double& lf,
                                 std::span<const std::uint32_t> idx,
                                 const double* t_terms,
                                 const double* f_terms) {
  for (std::uint32_t u : idx) {
    lt += t_terms[u];
    lf += f_terms[u];
  }
}

inline void gather_add_select_reference(
    double& lt, double& lf, std::span<const std::uint32_t> idx,
    std::span<const char> flags, const double* indep_t,
    const double* indep_f, const double* dep_t, const double* dep_f) {
  for (std::size_t k = 0; k < idx.size(); ++k) {
    std::uint32_t v = idx[k];
    if (flags[k]) {
      lt += dep_t[v];
      lf += dep_f[v];
    } else {
      lt += indep_t[v];
      lf += indep_f[v];
    }
  }
}

inline ColumnStats finalize_column_reference(double la, double lb) {
  return {normalize_log_pair(la, lb), la - lb, logsumexp(la, lb)};
}

inline PairStats finalize_pair_reference(double la, double lb) {
  return {normalize_log_pair(la, lb), la - lb};
}

}  // namespace kernels
}  // namespace ss
