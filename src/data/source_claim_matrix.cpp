#include "data/source_claim_matrix.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

namespace ss {
namespace {

std::uint32_t row_of(const Claim& c) { return c.source; }
std::uint32_t col_of(const Claim& c) { return c.assertion; }
double time_of(const Claim& c) { return c.time; }
std::uint32_t row_of(const Incidence::Cell& c) { return c.first; }
std::uint32_t col_of(const Incidence::Cell& c) { return c.second; }

// Counting transpose of one CSR orientation (`keys` lists of `ids` over
// `off`, with optional aligned `times`) into the other, over `out_keys`
// lists. Walking the input lists in key order appends each key to the
// lists of its ids, so every output list comes out ascending and
// repeated ids of one input list land adjacent, in their input order.
void transpose(std::size_t keys, const std::vector<std::size_t>& off,
               const std::vector<std::uint32_t>& ids,
               const std::vector<double>& times, std::size_t out_keys,
               std::vector<std::size_t>& out_off,
               std::vector<std::uint32_t>& out_ids,
               std::vector<double>& out_times) {
  out_off.assign(out_keys + 1, 0);
  for (std::size_t k = 0; k < off[keys]; ++k) ++out_off[ids[k] + 1];
  for (std::size_t k = 0; k < out_keys; ++k) out_off[k + 1] += out_off[k];
  out_ids.resize(off[keys]);
  out_times.resize(times.empty() ? 0 : off[keys]);
  std::vector<std::size_t> at(out_off.begin(), out_off.end() - 1);
  for (std::size_t key = 0; key < keys; ++key) {
    for (std::size_t k = off[key]; k < off[key + 1]; ++k) {
      const std::size_t slot = at[ids[k]]++;
      out_ids[slot] = static_cast<std::uint32_t>(key);
      if (!times.empty()) out_times[slot] = times[k];
    }
  }
}

}  // namespace

template <typename CellT>
void Incidence::build(std::span<const CellT> cells) {
  constexpr bool kTimed = std::is_same_v<CellT, Claim>;
  if (rows_ > UINT32_MAX || cols_ > UINT32_MAX) {
    throw std::invalid_argument(
        "Incidence: dimensions exceed the uint32 id space");
  }
  for (const CellT& c : cells) {
    if (row_of(c) >= rows_ || col_of(c) >= cols_) {
      throw std::out_of_range("Incidence: cell index out of range");
    }
  }
  {
    // 1. Stable counting sort of the cells by column: each column lists
    // its rows in input order.
    std::vector<std::size_t> off(cols_ + 1, 0);
    for (const CellT& c : cells) ++off[col_of(c) + 1];
    for (std::size_t j = 0; j < cols_; ++j) off[j + 1] += off[j];
    std::vector<std::uint32_t> ids(cells.size());
    std::vector<double> times(kTimed ? cells.size() : 0);
    std::vector<std::size_t> at(off.begin(), off.end() - 1);
    for (const CellT& c : cells) {
      const std::size_t slot = at[col_of(c)]++;
      ids[slot] = row_of(c);
      if constexpr (kTimed) times[slot] = time_of(c);
    }
    // 2. Transpose to rows: each row lists its columns ascending, and
    // the copies of a repeated cell sit adjacent in input order.
    transpose(cols_, off, ids, times, rows_, row_off_, row_ids_,
              row_times_);
  }
  // 3. Collapse repeated cells in place, keeping the earliest time.
  std::size_t w = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    const std::size_t begin = row_off_[i];
    const std::size_t end = row_off_[i + 1];
    row_off_[i] = w;
    for (std::size_t k = begin; k < end; ++k) {
      if (w > row_off_[i] && row_ids_[w - 1] == row_ids_[k]) {
        if constexpr (kTimed) {
          row_times_[w - 1] = std::min(row_times_[w - 1], row_times_[k]);
        }
        continue;
      }
      row_ids_[w] = row_ids_[k];
      if constexpr (kTimed) row_times_[w] = row_times_[k];
      ++w;
    }
  }
  row_off_[rows_] = w;
  row_ids_.resize(w);
  row_times_.resize(kTimed ? w : 0);
  // 4. Transpose back to columns, now free of repeats.
  transpose(rows_, row_off_, row_ids_, row_times_, cols_, col_off_,
            col_ids_, col_times_);
}

Incidence::Incidence(std::size_t rows, std::size_t cols,
                     std::span<const Claim> cells)
    : rows_(rows), cols_(cols) {
  build(cells);
}

Incidence::Incidence(std::size_t rows, std::size_t cols,
                     std::span<const Cell> cells)
    : rows_(rows), cols_(cols) {
  build(cells);
}

std::size_t Incidence::find(std::size_t r, std::size_t c) const {
  std::span<const std::uint32_t> ids = row(r);
  auto it = std::lower_bound(ids.begin(), ids.end(), c);
  if (it != ids.end() && *it != c) return ids.size();
  return static_cast<std::size_t>(it - ids.begin());
}

double SourceClaimMatrix::claim_time(std::size_t source,
                                     std::size_t assertion) const {
  const std::size_t k = cells_.find(source, assertion);
  if (k == claims_of(source).size()) {
    throw std::out_of_range("SourceClaimMatrix::claim_time: no such claim");
  }
  return claim_times_of(source)[k];
}

std::vector<Claim> SourceClaimMatrix::to_claims() const {
  std::vector<Claim> out;
  out.reserve(claim_count());
  for (std::size_t i = 0; i < source_count(); ++i) {
    std::span<const std::uint32_t> ids = claims_of(i);
    std::span<const double> times = claim_times_of(i);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      out.push_back({static_cast<std::uint32_t>(i), ids[k], times[k]});
    }
  }
  return out;
}

}  // namespace ss
