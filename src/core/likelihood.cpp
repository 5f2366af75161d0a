#include "core/likelihood.h"

#include <cstdint>
#include <stdexcept>

#include "math/logprob.h"

namespace ss {

double cell_probability(const SourceParams& p, bool claimed, bool truth,
                        bool dependent) {
  double rate = truth ? (dependent ? p.f : p.a) : (dependent ? p.g : p.b);
  return claimed ? rate : 1.0 - rate;
}

LikelihoodTable::LikelihoodTable(const Dataset& dataset) { rebind(dataset); }

void LikelihoodTable::rebind(const Dataset& dataset) {
  dataset.validate();
  dataset_ = &dataset;
  flags_.clear();
  flags_.reserve(dataset.claims.claim_count());
  for (std::size_t j = 0; j < dataset.assertion_count(); ++j) {
    split_claims(dataset.claims.claimants_of(j),
                 dataset.dependency.exposed_sources(j),
                 [&](std::uint32_t, bool dependent) {
                   flags_.push_back(dependent ? 1 : 0);
                 });
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
}

void LikelihoodTable::prior_columns(std::size_t begin, std::size_t end,
                                    double* la, double* lb) const {
  const double log_z = logs_.log_z();
  const double log_1mz = logs_.log_1mz();
  for (std::size_t j = begin; j < end; ++j) {
    ColumnLogLikelihood c = column(j);
    la[j] = c.log_given_true + log_z;
    lb[j] = c.log_given_false + log_1mz;
  }
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
