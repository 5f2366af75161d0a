#include "core/likelihood.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <stdexcept>

#include "math/logprob.h"
#include "math/simd/dispatch.h"

namespace ss {

double cell_probability(const SourceParams& p, bool claimed, bool truth,
                        bool dependent) {
  double rate = truth ? (dependent ? p.f : p.a) : (dependent ? p.g : p.b);
  return claimed ? rate : 1.0 - rate;
}

LikelihoodTable::LikelihoodTable(const Dataset& dataset) { rebind(dataset); }

void LikelihoodTable::rebind(const Dataset& dataset) {
  dataset_ = &dataset;
  partition_ = &dataset.partition();
  std::size_t m = dataset.assertion_count();
  exp_off_.resize(m + 1);
  cl_off_.resize(m + 1);
  exp_idx_.clear();
  cl_idx_.clear();
  pair_offs_.clear();
  single_offs_.clear();
  pair_off_.clear();
  single_off_.clear();
  std::size_t exp_total = 0;
  std::size_t cl_total = 0;
  for (std::size_t j = 0; j < m; ++j) {
    exp_off_[j] = exp_total;
    cl_off_[j] = cl_total;
    exp_total += dataset.dependency.exposed_sources(j).size();
    cl_total += dataset.claims.claimants_of(j).size();
  }
  exp_off_[m] = exp_total;
  cl_off_[m] = cl_total;
  exp_idx_.reserve(exp_total);
  cl_idx_.reserve(cl_total);
  for (std::size_t j = 0; j < m; ++j) {
    const std::vector<std::uint32_t>& es = dataset.dependency.exposed_sources(j);
    exp_idx_.insert(exp_idx_.end(), es.begin(), es.end());
    const std::vector<std::uint32_t>& cs = dataset.claims.claimants_of(j);
    cl_idx_.insert(cl_idx_.end(), cs.begin(), cs.end());
  }

  // Silent-only lists for the AVX2 fold: dependent claimants are the
  // claimants that appear in the exposed list (ClaimPartition defines
  // them as the sorted intersection), so exposed \ dependent is exact.
  // The subset property is verified rather than assumed — a dataset
  // violating it keeps fold_ready_ false and uses the select path
  // under every backend.
  fold_ready_ = true;
  for (std::size_t j = 0; j < m && fold_ready_; ++j) {
    std::span<const std::uint32_t> es = exposed_csr(j);
    std::span<const std::uint32_t> ds = partition_->dependent_claimants(j);
    if (!std::is_sorted(es.begin(), es.end()) ||
        !std::is_sorted(ds.begin(), ds.end()) ||
        !std::includes(es.begin(), es.end(), ds.begin(), ds.end())) {
      fold_ready_ = false;
    }
  }
  // Compile the gather schedule (structure-only; values live in the
  // supertable built by set_params). Offsets are 32-bit byte offsets
  // into the 3n+2-row supertable, so the schedule is skipped on the
  // (theoretical) source counts where they would overflow. Only built
  // when the AVX2 backend is compiled in at all — a scalar-only build
  // never reads it.
  std::size_t n = dataset.source_count();
  if (fold_ready_ && simd::avx2_compiled() &&
      16ull * (3 * n + 2) <= UINT32_MAX) {
    const std::uint32_t kSent = static_cast<std::uint32_t>(3 * n * 16);
    std::size_t n_pairs = m / 2;
    pair_off_.resize(n_pairs + 1);
    single_off_.resize(n_pairs + 1);
    std::vector<std::uint32_t> sil;
    std::array<std::vector<std::uint32_t>, 2> gp;
    std::array<std::vector<std::uint32_t>, 2> gs;
    for (std::size_t p = 0; p < n_pairs; ++p) {
      pair_off_[p] = pair_offs_.size();
      single_off_[p] = single_offs_.size();
      for (int half = 0; half < 2; ++half) {
        std::size_t j = 2 * p + static_cast<std::size_t>(half);
        gp[half].clear();
        gs[half].clear();
        sil.clear();
        std::span<const std::uint32_t> es = exposed_csr(j);
        std::span<const std::uint32_t> ds =
            partition_->dependent_claimants(j);
        std::set_difference(es.begin(), es.end(), ds.begin(), ds.end(),
                            std::back_inserter(sil));
        // Greedy run packing: two adjacent table rows become one
        // 32-byte granule, everything else a 16-byte granule.
        auto emit = [&](std::span<const std::uint32_t> idx,
                        std::size_t group) {
          const std::uint32_t base_row =
              static_cast<std::uint32_t>(group * n);
          std::size_t k = 0;
          while (k < idx.size()) {
            if (k + 1 < idx.size() && idx[k + 1] == idx[k] + 1) {
              gp[half].push_back((base_row + idx[k]) * 16);
              k += 2;
            } else {
              gs[half].push_back((base_row + idx[k]) * 16);
              k += 1;
            }
          }
        };
        emit(sil, 0);
        emit(partition_->independent_claimants(j), 1);
        emit(ds, 2);
      }
      // Interleave [col 2p, col 2p+1], padding the shorter stream with
      // the zero sentinel row so the kernel needs no length tests.
      std::size_t np = std::max(gp[0].size(), gp[1].size());
      for (std::size_t i = 0; i < np; ++i) {
        pair_offs_.push_back(i < gp[0].size() ? gp[0][i] : kSent);
        pair_offs_.push_back(i < gp[1].size() ? gp[1][i] : kSent);
      }
      std::size_t ns = std::max(gs[0].size(), gs[1].size());
      for (std::size_t i = 0; i < ns; ++i) {
        single_offs_.push_back(i < gs[0].size() ? gs[0][i] : kSent);
        single_offs_.push_back(i < gs[1].size() ? gs[1][i] : kSent);
      }
    }
    pair_off_[n_pairs] = pair_offs_.size();
    single_off_[n_pairs] = single_offs_.size();
  }
}

LikelihoodTable::LikelihoodTable(const Dataset& dataset,
                                 const ModelParams& params)
    : LikelihoodTable(dataset) {
  set_params(params);
}

void LikelihoodTable::set_params(const ModelParams& params,
                                 ThreadPool* pool) {
  std::size_t n = dataset_->source_count();
  if (params.source.size() != n) {
    throw std::invalid_argument(
        "LikelihoodTable: params/source count mismatch");
  }
  // SourceParams is {a, b, f, g} as four contiguous doubles, so the
  // params array IS the rate-row layout build_from_rows consumes —
  // the table clamps each rate in flight (bit-identical to the
  // historical clamp_prob lambda build, minus its scratch pack).
  static_assert(sizeof(SourceParams) == 4 * sizeof(double));
  logs_.build_from_rows(n, clamp_prob(params.z),
                        reinterpret_cast<const double*>(params.source.data()),
                        pool);

  // Value rows for the precompiled gather schedule: [es | ci | cd+es]
  // plus two zero sentinel rows, filled in the table build's source
  // chunks (each source writes its own three rows). Only built when the
  // schedule exists and the AVX2 backend is active at build time; the
  // use site re-checks both conditions so a backend switch between
  // build and query degrades to the select path instead of misreading.
  if (!fold_ready_ || pair_off_.empty() || !simd::avx2_active()) {
    super_.clear();
    return;
  }
  const kernels::LogPair* es = logs_.exposed_silent();
  const kernels::LogPair* ci = logs_.claim_indep();
  const kernels::LogPair* cd = logs_.claim_dep();
  super_.resize(3 * n + 2);
  kernels::LogPair* sup = super_.data();
  kernels::for_each_chunk(
      pool, n, kernels::kSourceChunk,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          sup[i] = es[i];
          sup[n + i] = ci[i];
          sup[2 * n + i] = {cd[i].t + es[i].t, cd[i].f + es[i].f};
        }
      });
  sup[3 * n] = {0.0, 0.0};
  sup[3 * n + 1] = {0.0, 0.0};
}

void LikelihoodTable::prior_columns(std::size_t begin, std::size_t end,
                                    double* la, double* lb) const {
  const kernels::LogPair base = logs_.base();
  const kernels::LogPair* es = logs_.exposed_silent();
  const kernels::LogPair* ci = logs_.claim_indep();
  const kernels::LogPair* cd = logs_.claim_dep();
  const double log_z = logs_.log_z();
  const double log_1mz = logs_.log_1mz();
  // AVX2 column restructure: the claimant lists and their D_ij flags
  // are dataset-constant and every dependent claimant is also exposed,
  // so the schedule compiled in the constructor walks the silent-only
  // sources with `es`, the independent claimants with `ci` (already a
  // full flip from the unexposed baseline), and the dependent claimants
  // with the folded `cd + es` rows — |exposed| + |independent| table
  // rows per column instead of |exposed| + |claimants|, no flag select,
  // and adjacent rows fetched as single 32-byte granules. The schedule
  // regroups the summation, which the AVX2 ULP contract permits; the
  // scalar backend keeps the source-order exposed+select walk for
  // bit-identity with the golden hashes. Schedule pairs are fixed to
  // columns (2p, 2p+1), so an odd `begin` peels one column first.
  const bool sched = simd::avx2_active() && !super_.empty();
  std::size_t j = begin;
  if (sched) {
    const double* sup = reinterpret_cast<const double*>(super_.data());
    if ((j & 1) != 0 && j < end) {
      ColumnLogLikelihood c = column(j);
      la[j] = c.log_given_true + log_z;
      lb[j] = c.log_given_false + log_1mz;
      ++j;
    }
    for (; j + 1 < end; j += 2) {
      std::size_t p = j >> 1;
      kernels::LogPair acc0 = base;
      kernels::LogPair acc1 = base;
      kernels::gather_schedule(acc0, acc1, pair_sched(p), single_sched(p),
                               sup);
      la[j] = acc0.t + log_z;
      lb[j] = acc0.f + log_1mz;
      la[j + 1] = acc1.t + log_z;
      lb[j + 1] = acc1.f + log_1mz;
    }
  } else {
    for (; j + 1 < end; j += 2) {
      kernels::LogPair acc0 = base;
      kernels::LogPair acc1 = base;
      kernels::gather_add2(acc0, exposed_csr(j), acc1, exposed_csr(j + 1),
                           es);
      acc0 = kernels::gather_add_select(acc0, claimant_csr(j),
                                        partition_->claimant_dependent(j), ci,
                                        cd);
      acc1 = kernels::gather_add_select(acc1, claimant_csr(j + 1),
                                        partition_->claimant_dependent(j + 1),
                                        ci, cd);
      la[j] = acc0.t + log_z;
      lb[j] = acc0.f + log_1mz;
      la[j + 1] = acc1.t + log_z;
      lb[j + 1] = acc1.f + log_1mz;
    }
  }
  for (; j < end; ++j) {
    ColumnLogLikelihood c = column(j);
    la[j] = c.log_given_true + log_z;
    lb[j] = c.log_given_false + log_1mz;
  }
}

std::vector<ColumnLogLikelihood> LikelihoodTable::all_columns() const {
  std::vector<ColumnLogLikelihood> out(dataset_->assertion_count());
  for (std::size_t j = 0; j < out.size(); ++j) out[j] = column(j);
  return out;
}

double LikelihoodTable::data_log_likelihood() const {
  double total = 0.0;
  for (std::size_t j = 0; j < dataset_->assertion_count(); ++j) {
    ColumnLogLikelihood c = column(j);
    total += logsumexp(c.log_given_true + logs_.log_z(),
                       c.log_given_false + logs_.log_1mz());
  }
  return total;
}

}  // namespace ss
