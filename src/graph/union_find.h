// Disjoint-set forest (union by size, path halving).
//
// The sharding layer (src/data/shard.*) partitions the source-claim
// incidence into connected components: two assertions are connected
// when some source touches both (a claim or an exposed cell in each).
// At 10^6+ elements the find/union mix is essentially linear, so the
// component pass costs one scan of the incidence.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

namespace ss {

class UnionFind {
 public:
  explicit UnionFind(std::size_t count)
      : parent_(count), size_(count, 1) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }

  std::size_t count() const { return parent_.size(); }

  // Representative of x's set. Path halving: every probed node is
  // re-pointed at its grandparent, amortizing future finds without the
  // second pass full compression needs.
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  // Merges the sets holding a and b; returns the surviving root.
  // Union by size keeps the forest depth logarithmic before halving.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    std::uint32_t ra = find(a);
    std::uint32_t rb = find(b);
    if (ra == rb) return ra;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    return ra;
  }

  bool same(std::uint32_t a, std::uint32_t b) {
    return find(a) == find(b);
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

}  // namespace ss
