#include "data/shard.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "data/ssd.h"
#include "graph/union_find.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

// The two build sources behind one span-shaped surface. Both expose
// ascending id lists (the Incidence builder orders them; the .ssd writer
// sorts before spooling).
struct DatasetAccess {
  const Dataset& d;
  std::size_t n() const { return d.source_count(); }
  std::size_t m() const { return d.assertion_count(); }
  std::span<const std::uint32_t> claimants(std::size_t j) const {
    return d.claims.claimants_of(j);
  }
  std::span<const std::uint32_t> exposed(std::size_t j) const {
    return d.dependency.exposed_sources(j);
  }
  std::span<const std::uint32_t> claims_of(std::size_t i) const {
    return d.claims.claims_of(i);
  }
  std::span<const std::uint32_t> exposed_assertions(std::size_t i) const {
    return d.dependency.exposed_assertions(i);
  }
  std::string name() const { return d.name; }
  Label truth(std::size_t j) const {
    return d.truth.empty() ? Label::kUnknown : d.truth[j];
  }
  bool labeled() const { return !d.truth.empty(); }
};

struct ViewAccess {
  const SsdView& v;
  std::size_t n() const { return v.source_count(); }
  std::size_t m() const { return v.assertion_count(); }
  std::span<const std::uint32_t> claimants(std::size_t j) const {
    return v.claimants_of(j);
  }
  std::span<const std::uint32_t> exposed(std::size_t j) const {
    return v.exposed_sources(j);
  }
  std::span<const std::uint32_t> claims_of(std::size_t i) const {
    return v.claims_of(i);
  }
  std::span<const std::uint32_t> exposed_assertions(std::size_t i) const {
    return v.exposed_assertions(i);
  }
  std::string name() const { return v.name(); }
  Label truth(std::size_t j) const { return v.truth(j); }
  bool labeled() const {
    for (std::size_t j = 0; j < v.assertion_count(); ++j) {
      if (v.truth(j) != Label::kUnknown) return true;
    }
    return false;
  }
};

void require_in_range(std::span<const std::uint32_t> ids, std::size_t n,
                      const char* what) {
  for (std::uint32_t i : ids) {
    if (i >= n) {
      throw TaxonomyError(ErrorCode::kIndexOutOfRange,
                          std::string("ShardedDataset: ") + what +
                              " id " + std::to_string(i) +
                              " out of range (n = " + std::to_string(n) +
                              ")");
    }
  }
}

}  // namespace

template <typename Access>
ShardedDataset ShardedDataset::build_impl(const Access& a,
                                          const ShardConfig& config) {
  const std::size_t n = a.n();
  const std::size_t m = a.m();
  ShardedDataset out;
  out.name_ = a.name();
  if (a.labeled()) {
    out.truth_.resize(m);
    for (std::size_t j = 0; j < m; ++j) out.truth_[j] = a.truth(j);
  }
  out.assertion_shard_.assign(m, 0);
  out.assertion_pos_.assign(m, 0);
  out.source_shard_.assign(n, 0);
  out.source_pos_.assign(n, 0);

  // 1. Connected components over assertions: chain-union every
  // assertion a source touches (claims and exposure edges alike).
  UnionFind uf(m);
  for (std::size_t i = 0; i < n; ++i) {
    std::span<const std::uint32_t> cl = a.claims_of(i);
    std::span<const std::uint32_t> ex = a.exposed_assertions(i);
    require_in_range(cl, m, "claimed assertion");
    require_in_range(ex, m, "exposed assertion");
    std::uint32_t anchor = 0;
    bool have_anchor = false;
    for (std::uint32_t j : cl) {
      anchor = have_anchor ? uf.unite(anchor, j) : j;
      have_anchor = true;
    }
    for (std::uint32_t j : ex) {
      anchor = have_anchor ? uf.unite(anchor, j) : j;
      have_anchor = true;
    }
  }

  // 2. Dense component ids in first-assertion order (deterministic,
  // independent of union order).
  std::vector<std::uint32_t> comp_of(m);
  std::vector<std::uint32_t> comp_size;
  {
    std::vector<std::uint32_t> root_comp(m, UINT32_MAX);
    for (std::size_t j = 0; j < m; ++j) {
      std::uint32_t r = uf.find(static_cast<std::uint32_t>(j));
      if (root_comp[r] == UINT32_MAX) {
        root_comp[r] = static_cast<std::uint32_t>(comp_size.size());
        comp_size.push_back(0);
      }
      comp_of[j] = root_comp[r];
      ++comp_size[comp_of[j]];
    }
  }
  out.component_count_ = comp_size.size();

  // 3. Greedy packing of whole components, in component order, under
  // the assertion cap. A component above the cap becomes one oversized
  // shard — splitting it would create a cross-shard edge.
  std::size_t cap = config.max_shard_assertions;
  if (cap == 0) cap = std::max<std::size_t>(1024, (m + 63) / 64);
  std::vector<std::uint32_t> shard_of_comp(comp_size.size(), 0);
  std::vector<std::size_t> shard_components;
  {
    std::size_t filled = cap;  // force a new shard for the first component
    for (std::size_t c = 0; c < comp_size.size(); ++c) {
      if (filled + comp_size[c] > cap && filled > 0) {
        shard_components.push_back(0);
        filled = 0;
      }
      shard_of_comp[c] =
          static_cast<std::uint32_t>(shard_components.size() - 1);
      ++shard_components.back();
      filled += comp_size[c];
    }
  }
  // Sources with no incidence at all still need a home (round-robin so
  // no single shard collects every orphan); guarantee one shard exists.
  if (shard_components.empty() && n > 0) shard_components.push_back(0);
  const std::size_t shard_count = shard_components.size();
  out.shards_.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    out.shards_[s].components_ = shard_components[s];
  }

  // 4. Assertion placement: ascending j within each shard.
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t s = shard_of_comp[comp_of[j]];
    DatasetShard& sh = out.shards_[s];
    out.assertion_shard_[j] = s;
    out.assertion_pos_[j] =
        static_cast<std::uint32_t>(sh.assertions_.size());
    sh.assertions_.push_back(static_cast<std::uint32_t>(j));
  }

  // 5. Source placement: a source's incident assertions all live in one
  // component (step 1 united them), so its shard is the shard of its
  // first incident assertion. Orphans round-robin.
  {
    std::size_t orphan = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::span<const std::uint32_t> cl = a.claims_of(i);
      std::span<const std::uint32_t> ex = a.exposed_assertions(i);
      std::uint32_t s;
      if (!cl.empty() && !ex.empty()) {
        s = out.assertion_shard_[std::min(cl.front(), ex.front())];
      } else if (!cl.empty()) {
        s = out.assertion_shard_[cl.front()];
      } else if (!ex.empty()) {
        s = out.assertion_shard_[ex.front()];
      } else {
        s = static_cast<std::uint32_t>(orphan++ % shard_count);
      }
      DatasetShard& sh = out.shards_[s];
      out.source_shard_[i] = s;
      out.source_pos_[i] = static_cast<std::uint32_t>(sh.sources_.size());
      sh.sources_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // 6+7. CSR fill, one task per shard. Column CSR: claimant list +
  // aligned D_ij flags (merge walk against the ascending exposed list)
  // + exposed list. Row CSR: dependent/independent claim split (merge
  // walk of the ascending claim and exposure lists) + exposure list.
  // Each task allocates and writes only its own shard's vectors, and
  // the fill content depends only on the (already decided) shard
  // layout, never on scheduling. On the pool, chunk index = shard
  // index, so range errors propagate via parallel_for_chunks'
  // lowest-chunk rethrow, matching the serial loop's first-failure
  // behaviour because shards partition ascending id ranges.
  auto fill_shard = [&](DatasetShard& sh) {
    sh.cl_off_.assign(sh.assertions_.size() + 1, 0);
    sh.ex_off_.assign(sh.assertions_.size() + 1, 0);
    for (std::size_t c = 0; c < sh.assertions_.size(); ++c) {
      const std::size_t j = sh.assertions_[c];
      std::span<const std::uint32_t> cl = a.claimants(j);
      std::span<const std::uint32_t> ex = a.exposed(j);
      require_in_range(cl, n, "claimant source");
      require_in_range(ex, n, "exposed source");
      split_claims(cl, ex, [&](std::uint32_t i, bool dependent) {
        sh.claimants_.push_back(i);
        sh.cl_flags_.push_back(dependent ? 1 : 0);
      });
      sh.exposed_.insert(sh.exposed_.end(), ex.begin(), ex.end());
      sh.cl_off_[c + 1] = sh.claimants_.size();
      sh.ex_off_[c + 1] = sh.exposed_.size();
    }
    sh.dep_off_.assign(sh.sources_.size() + 1, 0);
    sh.indep_off_.assign(sh.sources_.size() + 1, 0);
    sh.expa_off_.assign(sh.sources_.size() + 1, 0);
    for (std::size_t s = 0; s < sh.sources_.size(); ++s) {
      const std::size_t i = sh.sources_[s];
      std::span<const std::uint32_t> cl = a.claims_of(i);
      std::span<const std::uint32_t> ex = a.exposed_assertions(i);
      split_claims(cl, ex, [&](std::uint32_t j, bool dependent) {
        (dependent ? sh.dep_claims_ : sh.indep_claims_).push_back(j);
      });
      sh.exp_asserts_.insert(sh.exp_asserts_.end(), ex.begin(), ex.end());
      sh.dep_off_[s + 1] = sh.dep_claims_.size();
      sh.indep_off_[s + 1] = sh.indep_claims_.size();
      sh.expa_off_[s + 1] = sh.exp_asserts_.size();
    }
  };
  if (config.pool != nullptr && config.pool->size() > 1 &&
      out.shards_.size() > 1) {
    config.pool->parallel_for_chunks(
        out.shards_.size(), 1,
        [&](std::size_t s, std::size_t, std::size_t) {
          fill_shard(out.shards_[s]);
        });
  } else {
    for (DatasetShard& sh : out.shards_) fill_shard(sh);
  }
  // Totals in shard order, serial (sizes, not floats — order is
  // cosmetic, but keep it canonical anyway).
  for (const DatasetShard& sh : out.shards_) {
    out.claim_count_ += sh.claimants_.size();
    out.exposed_count_ += sh.exposed_.size();
  }
  return out;
}

ShardedDataset ShardedDataset::build(const Dataset& dataset,
                                     const ShardConfig& config) {
  dataset.validate();
  return build_impl(DatasetAccess{dataset}, config);
}

ShardedDataset ShardedDataset::build(const SsdView& view,
                                     const ShardConfig& config) {
  if (!view.valid()) {
    throw std::invalid_argument("ShardedDataset: invalid SsdView");
  }
  return build_impl(ViewAccess{view}, config);
}

void ShardedDataset::check() const {
  auto fail = [](const std::string& what) {
    throw std::logic_error("ShardedDataset invariant violated: " + what);
  };
  const std::size_t n = source_count();
  const std::size_t m = assertion_count();
  std::vector<char> seen_assert(m, 0);
  std::vector<char> seen_source(n, 0);
  std::size_t claims = 0;
  std::size_t exposed = 0;
  std::size_t components = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const DatasetShard& sh = shards_[s];
    components += sh.component_count();
    // Membership of the shard's own sources, for confinement checks.
    std::vector<char> member(n, 0);
    for (std::uint32_t i : sh.source_ids()) {
      if (i >= n || seen_source[i]) fail("source placed twice");
      seen_source[i] = 1;
      member[i] = 1;
      if (source_shard_[i] != s) fail("source_shard mismatch");
    }
    if (!std::is_sorted(sh.source_ids().begin(), sh.source_ids().end())) {
      fail("shard source list not ascending");
    }
    if (!std::is_sorted(sh.assertion_ids().begin(),
                        sh.assertion_ids().end())) {
      fail("shard assertion list not ascending");
    }
    for (std::size_t c = 0; c < sh.assertion_ids().size(); ++c) {
      const std::uint32_t j = sh.assertion_ids()[c];
      if (j >= m || seen_assert[j]) fail("assertion placed twice");
      seen_assert[j] = 1;
      if (assertion_shard_[j] != s || assertion_pos_[j] != c) {
        fail("assertion placement map mismatch");
      }
      std::span<const std::uint32_t> cl = sh.claimants(c);
      std::span<const std::uint32_t> ex = sh.exposed_sources(c);
      if (sh.claimant_dependent(c).size() != cl.size()) {
        fail("flag span misaligned");
      }
      if (!std::is_sorted(cl.begin(), cl.end()) ||
          !std::is_sorted(ex.begin(), ex.end())) {
        fail("column list not ascending");
      }
      // No cross-shard edge: every source a column touches belongs to
      // this shard.
      for (std::uint32_t i : cl) {
        if (!member[i]) fail("claimant outside shard");
      }
      std::size_t e = 0;
      for (std::size_t k = 0; k < cl.size(); ++k) {
        while (e < ex.size() && ex[e] < cl[k]) ++e;
        const bool dep = e < ex.size() && ex[e] == cl[k];
        if ((sh.claimant_dependent(c)[k] != 0) != dep) {
          fail("D_ij flag disagrees with exposed list");
        }
      }
      for (std::uint32_t i : ex) {
        if (!member[i]) fail("exposed source outside shard");
      }
      claims += cl.size();
      exposed += ex.size();
    }
    for (std::size_t p = 0; p < sh.source_ids().size(); ++p) {
      for (std::uint32_t j : sh.exposed_assertions(p)) {
        if (j >= m || assertion_shard_[j] != s) {
          fail("exposure edge crosses shards");
        }
      }
      for (std::uint32_t j : sh.dependent_claims(p)) {
        if (j >= m || assertion_shard_[j] != s) {
          fail("claim edge crosses shards");
        }
      }
      for (std::uint32_t j : sh.independent_claims(p)) {
        if (j >= m || assertion_shard_[j] != s) {
          fail("claim edge crosses shards");
        }
      }
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    if (!seen_assert[j]) fail("assertion missing from every shard");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!seen_source[i]) fail("source missing from every shard");
  }
  if (claims != claim_count_) fail("claim total mismatch");
  if (exposed != exposed_count_) fail("exposed total mismatch");
  if (components != component_count_) fail("component total mismatch");
}

}  // namespace ss
