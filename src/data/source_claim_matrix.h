// The source-claim matrix SC (Section II-A), and the flat CSR layout it
// shares with the dependency indicators D (data/dependency.h).
//
// SC is an n x m binary matrix where SC[i][j] = 1 iff source i asserted
// assertion j. Real social-sensing matrices are extremely sparse (the
// paper's Table III datasets average ~1.3 claims per source over thousands
// of assertions), so the matrix is stored as flat CSR in both
// orientations: claims-by-source (rows) and claimants-by-assertion
// (columns). Each claim optionally carries a timestamp, which the
// dependency-indicator computation uses to decide whether an ancestor's
// matching claim happened *before* this one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ss {

struct Claim {
  std::uint32_t source = 0;
  std::uint32_t assertion = 0;
  // Event time; claims without meaningful time should use 0. When a source
  // repeats the same assertion, only its earliest claim is kept.
  double time = 0.0;
};

// A sparse 0/1 incidence between `rows` and `cols` ids, as flat CSR in
// both orientations: per orientation one offset array (size rows + 1,
// resp. cols + 1) into one id array. Every list is ascending and free of
// duplicates, the two orientations are transposes of each other, and the
// times (timed incidences only) are aligned with the ids in both.
// SourceClaimMatrix (timed claims) and DependencyIndicators (untimed
// exposed cells) each hold one.
class Incidence {
 public:
  using Cell = std::pair<std::uint32_t, std::uint32_t>;  // (row, col)

  Incidence() = default;
  // Builds from cells in any order with stable counting passes (no
  // comparison sort). A repeated cell collapses to one, keeping its
  // earliest time (the first of equal times). A Claim is the timed cell
  // (source, assertion, time); a Cell is untimed. Throws
  // std::invalid_argument when rows or cols exceeds UINT32_MAX (before
  // allocating anything) and std::out_of_range on a cell outside
  // rows x cols.
  Incidence(std::size_t rows, std::size_t cols, std::span<const Claim> cells);
  Incidence(std::size_t rows, std::size_t cols, std::span<const Cell> cells);

  std::size_t row_count() const { return rows_; }
  std::size_t col_count() const { return cols_; }
  std::size_t cell_count() const { return row_ids_.size(); }

  std::span<const std::uint32_t> row(std::size_t r) const {
    return slice(row_ids_, row_off_, r);
  }
  std::span<const std::uint32_t> col(std::size_t c) const {
    return slice(col_ids_, col_off_, c);
  }
  // Times aligned with row(r) / col(c); timed incidences only.
  std::span<const double> row_times(std::size_t r) const {
    return slice(row_times_, row_off_, r);
  }
  std::span<const double> col_times(std::size_t c) const {
    return slice(col_times_, col_off_, c);
  }
  // Position of col(c)'s first cell in the column-major cell order.
  std::size_t col_begin(std::size_t c) const { return col_off_[c]; }

  // Position of `c` in row(r), or row(r).size() when absent. O(log deg).
  std::size_t find(std::size_t r, std::size_t c) const;

 private:
  template <typename T>
  static std::span<const T> slice(const std::vector<T>& v,
                                  const std::vector<std::size_t>& off,
                                  std::size_t at) {
    return {v.data() + off[at], off[at + 1] - off[at]};
  }
  template <typename CellT>
  void build(std::span<const CellT> cells);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_off_;
  std::vector<std::uint32_t> row_ids_;
  std::vector<double> row_times_;
  std::vector<std::size_t> col_off_;
  std::vector<std::uint32_t> col_ids_;
  std::vector<double> col_times_;
};

class SourceClaimMatrix {
 public:
  SourceClaimMatrix() = default;

  // Builds from a claim list. Duplicate (source, assertion) pairs collapse
  // to the earliest timestamp. Throws std::out_of_range on indices outside
  // [0, sources) x [0, assertions), std::invalid_argument when either
  // dimension exceeds UINT32_MAX.
  SourceClaimMatrix(std::size_t sources, std::size_t assertions,
                    const std::vector<Claim>& claims)
      : cells_(sources, assertions, claims) {}

  std::size_t source_count() const { return cells_.row_count(); }
  std::size_t assertion_count() const { return cells_.col_count(); }
  std::size_t claim_count() const { return cells_.cell_count(); }

  // Assertion ids claimed by source i, ascending.
  std::span<const std::uint32_t> claims_of(std::size_t source) const {
    return cells_.row(source);
  }
  // Claim times aligned with claims_of(source).
  std::span<const double> claim_times_of(std::size_t source) const {
    return cells_.row_times(source);
  }

  // Source ids that claimed assertion j, ascending.
  std::span<const std::uint32_t> claimants_of(std::size_t assertion) const {
    return cells_.col(assertion);
  }
  // Claim times aligned with claimants_of(assertion).
  std::span<const double> claimant_times_of(std::size_t assertion) const {
    return cells_.col_times(assertion);
  }
  // Position of claimants_of(j)'s first claim in the column-major claim
  // order (claim_count() at j = assertion_count()): arrays aligned with
  // every claimant list, such as LikelihoodTable's D_ij flags, slice
  // with it.
  std::size_t claimants_begin(std::size_t assertion) const {
    return cells_.col_begin(assertion);
  }

  // True iff SC[source][assertion] == 1. O(log deg).
  bool has_claim(std::size_t source, std::size_t assertion) const {
    return cells_.find(source, assertion) < claims_of(source).size();
  }
  // Timestamp of the claim; throws std::out_of_range without one.
  double claim_time(std::size_t source, std::size_t assertion) const;

  std::size_t support(std::size_t assertion) const {
    return claimants_of(assertion).size();
  }

  // Flat claim list (earliest-per-cell), ordered by (source, assertion).
  std::vector<Claim> to_claims() const;

 private:
  Incidence cells_;
};

}  // namespace ss
