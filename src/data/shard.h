// Connected-component sharding of the source-claim incidence.
//
// ShardedDataset partitions the assertion columns by connected
// component — two assertions are connected when some source touches
// both (claims or exposed cells), so components are exactly the units
// with no shared source and no dependency (exposure) edge between them
// (docs/MODEL.md §14). Components are bin-packed into shards, and each
// shard carries its own CSR slices: per-column claimant lists with
// aligned D_ij flags, per-column exposed-source lists, and per-source
// dependent/independent claim splits (both splits computed by
// split_claims, data/dependency.h). All ids stay GLOBAL: the EM-Ext
// engine (core/sharded_em.*)
// gathers from global value tables and scatters into global
// posterior/stats buffers, which is what makes its results independent
// of the shard layout — the likelihood base, the pooled shrinkage
// rates and the prior z couple every source to every column, so
// sharding here is an execution/data-layout strategy, never an
// approximation.
//
// A shard's columns reference only that shard's sources (claimants and
// exposed sources both), so shard-parallel E/M passes touch disjoint
// index ranges of the value tables and disjoint slots of the output
// buffers — no cross-shard false sharing beyond chunk-boundary cache
// lines.
//
// Build sources: an in-memory Dataset, or an mmap-ed SsdView
// (data/ssd.h) — the latter never materializes the global Dataset, so
// a 10^6-source problem shards straight out of the file.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace ss {

class SsdView;
class ThreadPool;

struct ShardConfig {
  // Upper bound on assertions per shard; a single component larger
  // than the cap still becomes one (oversized) shard — components are
  // never split, so the no-cross-shard-edge property holds
  // unconditionally. 0 = auto: max(1024, ceil(m / 64)), i.e. at most
  // ~64 shards, deterministic and independent of the thread count.
  std::size_t max_shard_assertions = 0;
  // When non-null, this pool parallelizes the fill: the per-shard CSR
  // slices are filled one shard per task, in shard index order. The
  // shard layout and every CSR byte are decided before the parallel
  // phase and each task writes only its own shard, so the result is
  // bit-identical to the serial build for any pool size.
  ThreadPool* pool = nullptr;
};

// One shard: a group of whole components. Ids are global; per-column
// arrays are indexed by position in `assertions`, per-source arrays by
// position in `sources`. All lists are ascending, preserving the
// dataset's list order, so every gather adds its terms in the same
// order whatever the layout.
class DatasetShard {
 public:
  std::span<const std::uint32_t> source_ids() const { return sources_; }
  std::span<const std::uint32_t> assertion_ids() const {
    return assertions_;
  }
  std::size_t claim_count() const { return claimants_.size(); }
  std::size_t exposed_count() const { return exposed_.size(); }
  std::size_t component_count() const { return components_; }

  // Column views, c = position within the shard (global id
  // assertion_ids()[c]).
  std::span<const std::uint32_t> claimants(std::size_t c) const {
    return {claimants_.data() + cl_off_[c], cl_off_[c + 1] - cl_off_[c]};
  }
  std::span<const char> claimant_dependent(std::size_t c) const {
    return {cl_flags_.data() + cl_off_[c], cl_off_[c + 1] - cl_off_[c]};
  }
  std::span<const std::uint32_t> exposed_sources(std::size_t c) const {
    return {exposed_.data() + ex_off_[c], ex_off_[c + 1] - ex_off_[c]};
  }

  // Row views, s = position within the shard (global id
  // source_ids()[s]); elements are global assertion ids.
  std::span<const std::uint32_t> dependent_claims(std::size_t s) const {
    return {dep_claims_.data() + dep_off_[s], dep_off_[s + 1] - dep_off_[s]};
  }
  std::span<const std::uint32_t> independent_claims(std::size_t s) const {
    return {indep_claims_.data() + indep_off_[s],
            indep_off_[s + 1] - indep_off_[s]};
  }
  std::span<const std::uint32_t> exposed_assertions(std::size_t s) const {
    return {exp_asserts_.data() + expa_off_[s],
            expa_off_[s + 1] - expa_off_[s]};
  }

 private:
  friend class ShardedDataset;
  std::vector<std::uint32_t> sources_;     // ascending global ids
  std::vector<std::uint32_t> assertions_;  // ascending global ids
  std::size_t components_ = 0;
  // Column CSR (offsets sized assertions_.size() + 1).
  std::vector<std::size_t> cl_off_;
  std::vector<std::uint32_t> claimants_;  // global source ids
  std::vector<char> cl_flags_;            // aligned D_ij flags
  std::vector<std::size_t> ex_off_;
  std::vector<std::uint32_t> exposed_;  // global source ids
  // Row CSR (offsets sized sources_.size() + 1).
  std::vector<std::size_t> dep_off_;
  std::vector<std::uint32_t> dep_claims_;  // global assertion ids
  std::vector<std::size_t> indep_off_;
  std::vector<std::uint32_t> indep_claims_;
  std::vector<std::size_t> expa_off_;
  std::vector<std::uint32_t> exp_asserts_;  // global assertion ids
};

class ShardedDataset {
 public:
  // Partitions `dataset` (which stays untouched; the shards hold
  // copies). Throws std::invalid_argument on shape defects (via
  // Dataset::validate).
  static ShardedDataset build(const Dataset& dataset,
                              const ShardConfig& config = {});
  // Shards straight out of an mmap-ed .ssd file; the global Dataset is
  // never materialized. The view must outlive the call only (shards
  // copy their slices out).
  static ShardedDataset build(const SsdView& view,
                              const ShardConfig& config = {});

  std::size_t source_count() const { return source_shard_.size(); }
  std::size_t assertion_count() const { return assertion_shard_.size(); }
  std::size_t claim_count() const { return claim_count_; }
  std::size_t exposed_cell_count() const { return exposed_count_; }
  std::size_t component_count() const { return component_count_; }
  const std::string& name() const { return name_; }
  const std::vector<Label>& truth() const { return truth_; }

  std::size_t shard_count() const { return shards_.size(); }
  const DatasetShard& shard(std::size_t s) const { return shards_[s]; }

  // Global-id lookups (tests, Gibbs memoization, diagnostics).
  std::uint32_t shard_of_assertion(std::size_t j) const {
    return assertion_shard_[j];
  }
  std::uint32_t position_of_assertion(std::size_t j) const {
    return assertion_pos_[j];
  }
  std::uint32_t shard_of_source(std::size_t i) const {
    return source_shard_[i];
  }
  std::uint32_t position_of_source(std::size_t i) const {
    return source_pos_[i];
  }

  // Exposed-source list of global column j (the shard's slice).
  std::span<const std::uint32_t> exposed_sources(std::size_t j) const {
    return shards_[assertion_shard_[j]].exposed_sources(assertion_pos_[j]);
  }

  // Verifies the partition invariants (every assertion/source in
  // exactly one shard, totals add up, column lists confined to the
  // shard's sources, lists ascending). Throws std::logic_error naming
  // the violated property; tests call it on every build.
  void check() const;

 private:
  template <typename Access>
  static ShardedDataset build_impl(const Access& a,
                                   const ShardConfig& config);

  std::string name_;
  std::vector<Label> truth_;
  std::size_t claim_count_ = 0;
  std::size_t exposed_count_ = 0;
  std::size_t component_count_ = 0;
  std::vector<DatasetShard> shards_;
  std::vector<std::uint32_t> assertion_shard_;  // size m
  std::vector<std::uint32_t> assertion_pos_;    // position within shard
  std::vector<std::uint32_t> source_shard_;     // size n
  std::vector<std::uint32_t> source_pos_;
};

}  // namespace ss
