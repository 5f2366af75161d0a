// Likelihood machinery for the dependency-aware model (Table II and
// Eq. 4/5 of the paper).
//
// The E-step needs, per assertion j, the two column log-likelihoods
//   log P(SC_j | C_j = 1; D, theta) = sum_i log P(S_iC_j | C_j=1, D_ij)
//   log P(SC_j | C_j = 0; D, theta)
// where the per-cell factor is read from Table II. A naive evaluation is
// O(n) per assertion; since non-claims dominate, LikelihoodTable instead
// precomputes the "everyone silent and unexposed" baseline
//   B1 = sum_i log(1 - a_i),  B0 = sum_i log(1 - b_i)
// and per-source *correction* terms so each column costs only
// O(#claimants + #exposed) — the key to running EM on Table-III-scale
// matrices (tens of thousands of sources) in milliseconds.
//
// Since PR 3 the hoisted terms live in a kernels::ExtLogTable
// (math/kernels.h): correction pairs are stored interleaved by
// hypothesis and the column walk is the branch-free gather kernels, so
// a column pays pure adds over contiguous memory — and set_params()
// rebuilds the table in place, so one LikelihoodTable serves a whole EM
// run without per-iteration allocation. Results are bit-identical to
// the pre-kernel six-array walk (see tests/test_kernels.cpp).
//
// The column lists are read in place from the dataset's flat CSR
// (data/source_claim_matrix.h), which is contiguous already; the table
// adds only one D_ij flag per claim, computed by split_claims
// (data/dependency.h) when it binds a dataset.
//
// Users: StreamingEmExt, the posterior helpers (core/posterior.h) and
// one-shot callers. EM-Ext runs the same per-column gathers over shard
// slices instead (core/sharded_em.cpp); the gathers are scalar on every
// backend, so the two walks produce the same bits per column.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/params.h"
#include "data/dataset.h"
#include "math/kernels.h"

namespace ss {

// Per-cell probability from Table II: P(S_iC_j = s | C_j = c, D_ij = d).
double cell_probability(const SourceParams& p, bool claimed, bool truth,
                        bool dependent);

struct ColumnLogLikelihood {
  double log_given_true = 0.0;   // log P(SC_j | C_j = 1)
  double log_given_false = 0.0;  // log P(SC_j | C_j = 0)
};

class LikelihoodTable {
 public:
  // Binds the table to a dataset without parameters; call set_params()
  // before reading columns. EM loops use this to hoist the table out of
  // the iteration loop and rebuild it in place each M-step.
  explicit LikelihoodTable(const Dataset& dataset);

  // Convenience: bind and build in one step (one-shot callers).
  LikelihoodTable(const Dataset& dataset, const ModelParams& params);

  // Binds the table to another dataset, recomputing the claimants' D_ij
  // flags in place. The source-sized log table keeps its storage, so a
  // caller that builds one table per batch over a fixed source universe
  // (StreamingEmExt) allocates and first-touches it once instead of
  // once per batch. Call set_params() before reading columns.
  void rebind(const Dataset& dataset);

  // Recomputes the hoisted log terms from `params`, reusing the
  // existing buffers. `params` must have one entry per source in the
  // dataset (throws std::invalid_argument otherwise); probabilities are
  // clamped internally so logs stay finite. The per-source log-table
  // rows are filled in fixed kSourceChunk chunks on `pool` — nullptr
  // runs the same chunks inline — so the table is bit-identical for
  // any pool.
  void set_params(const ModelParams& params, ThreadPool* pool = nullptr);

  std::size_t assertion_count() const {
    return dataset_->assertion_count();
  }
  const Dataset& dataset() const { return *dataset_; }

  // Column log-likelihoods for assertion j (Eq. 4/5). Claim cells read
  // D_ij from the flags rebind() computed; thread-safe. Inline: the
  // fused E-step's column loop compiles down to the gather kernels with
  // no per-column call.
  ColumnLogLikelihood column(std::size_t assertion) const {
    // Move every exposed source from the unexposed-silent baseline to
    // exposed-silent, then flip claimants from silent to claiming
    // within their branch (the flags are aligned with the claimant
    // list, so the summation order — and therefore the floating-point
    // result — matches the per-claimant search the kernels replaced).
    kernels::LogPair acc = kernels::gather_add(
        logs_.base(), dataset_->dependency.exposed_sources(assertion),
        logs_.exposed_silent());
    acc = kernels::gather_add_select(
        acc, dataset_->claims.claimants_of(assertion),
        claimant_dependent(assertion), logs_.claim_indep(),
        logs_.claim_dep());
    return {acc.t, acc.f};
  }

  // Prior-shifted columns for j in [begin, end):
  //   la[j] = log P(SC_j | C_j=1) + log z
  //   lb[j] = log P(SC_j | C_j=0) + log(1-z)
  // column(j) plus the prior, one column after another. This is the
  // E-step's gather pass.
  void prior_columns(std::size_t begin, std::size_t end, double* la,
                     double* lb) const;

  // Total data log-likelihood (Eq. 7): sum_j logsumexp over C_j of
  // log P(SC_j | C_j) + log P(C_j).
  double data_log_likelihood() const;

  double log_prior_true() const { return logs_.log_z(); }
  double log_prior_false() const { return logs_.log_1mz(); }

 private:
  // D_ij flags aligned with claimants_of(j).
  std::span<const char> claimant_dependent(std::size_t j) const {
    return {flags_.data() + dataset_->claims.claimants_begin(j),
            dataset_->claims.support(j)};
  }

  const Dataset* dataset_ = nullptr;
  kernels::ExtLogTable logs_;  // hoisted per-source log terms
  // One flag per claim in the dataset's column-major claim order,
  // nonzero iff D_ij == 1. The column lists themselves are read in
  // place from the dataset's flat CSR.
  std::vector<char> flags_;
};

}  // namespace ss
