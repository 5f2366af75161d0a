// Structural oracle for the flat CSR layout of SourceClaimMatrix and
// DependencyIndicators: every row and column list strictly ascending and
// in range, the columns the transpose of the rows, the times (SC only)
// aligned in both orientations, and the cell count matching. Each check
// returns "" or a description of the first defect, so loops can assert
// EXPECT_EQ(csr_defect(x), "") without flooding the log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>

#include "data/dataset.h"

namespace ss {

using CsrList = std::function<std::span<const std::uint32_t>(std::size_t)>;
using CsrTimes = std::function<std::span<const double>(std::size_t)>;
using CsrCells = std::map<std::pair<std::uint32_t, std::uint32_t>, double>;

// Collects one orientation into (row, col) -> time, checking each list.
inline std::string collect_csr(std::size_t lists, std::size_t ids,
                               const CsrList& list, const CsrTimes& times,
                               bool transposed, const char* what,
                               CsrCells& out) {
  for (std::size_t k = 0; k < lists; ++k) {
    std::span<const std::uint32_t> l = list(k);
    std::span<const double> t;
    if (times) {
      t = times(k);
      if (t.size() != l.size()) {
        return std::string(what) + " " + std::to_string(k) +
               ": times misaligned";
      }
    }
    for (std::size_t p = 0; p < l.size(); ++p) {
      if (l[p] >= ids) {
        return std::string(what) + " " + std::to_string(k) +
               ": id out of range";
      }
      if (p > 0 && l[p] <= l[p - 1]) {
        return std::string(what) + " " + std::to_string(k) +
               ": not strictly ascending";
      }
      auto key = transposed
                     ? std::make_pair(l[p], static_cast<std::uint32_t>(k))
                     : std::make_pair(static_cast<std::uint32_t>(k), l[p]);
      out[key] = times ? t[p] : 0.0;
    }
  }
  return "";
}

inline std::string incidence_defect(std::size_t n, std::size_t m,
                                    std::size_t cells, const CsrList& row,
                                    const CsrList& col,
                                    const CsrTimes& row_times,
                                    const CsrTimes& col_times) {
  CsrCells by_row, by_col;
  std::string defect =
      collect_csr(n, m, row, row_times, false, "row", by_row);
  if (defect.empty()) {
    defect = collect_csr(m, n, col, col_times, true, "column", by_col);
  }
  if (!defect.empty()) return defect;
  if (by_row.size() != cells) return "cell count disagrees with the rows";
  if (by_row != by_col) return "columns are not the transpose of the rows";
  return "";
}

inline std::string csr_defect(const SourceClaimMatrix& sc) {
  return incidence_defect(
      sc.source_count(), sc.assertion_count(), sc.claim_count(),
      [&](std::size_t i) { return sc.claims_of(i); },
      [&](std::size_t j) { return sc.claimants_of(j); },
      [&](std::size_t i) { return sc.claim_times_of(i); },
      [&](std::size_t j) { return sc.claimant_times_of(j); });
}

inline std::string csr_defect(const DependencyIndicators& dep) {
  return incidence_defect(
      dep.source_count(), dep.assertion_count(), dep.exposed_cell_count(),
      [&](std::size_t i) { return dep.exposed_assertions(i); },
      [&](std::size_t j) { return dep.exposed_sources(j); }, nullptr,
      nullptr);
}

}  // namespace ss
