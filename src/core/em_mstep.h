// Closed-form M-step tail (Eq. 10-14) shared by every EM path: the
// EM-Ext engine (core/sharded_em.cpp) calls it on one iteration's
// statistics, and StreamingEmExt (core/streaming_em.cpp) calls it on
// its decayed history blended with the batch.
//
// finalize_m_step_fused: the pooled reduction runs as a fixed-shape
// tree over the *global* stats array (kernels::tree_reduce — identical
// bits for any thread count or shard layout), and the per-source MAP
// update, clamp, non-finite sanitize, optional f=g warm-up tie and
// convergence delta fuse into one in-place chunked pass
// (kernels::finalize_params). The per-element order is: raw -> clamp
// (NaN survives, ±inf clamps uncounted) -> sanitize (NaN -> previous,
// counted) -> tie -> delta. It consumes the packed 6-double
// SourceMStatsPacked layout and re-derives the four update
// denominators bit-exactly (see the struct comment).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/em_ext.h"
#include "core/params.h"
#include "math/kernels.h"

namespace ss {
namespace em_detail {

// The four numerators plus the four update denominators of the
// M-step; the pooled (all-source) accumulator of the fused tail.
struct SourceMStats {
  double claim_indep_z = 0.0;  // claims with D_ij = 0, weighted by Z_j
  double claim_indep_y = 0.0;
  double claim_dep_z = 0.0;  // claims with D_ij = 1
  double claim_dep_y = 0.0;
  double denom_a = 0.0;  // Z mass over D_ij = 0 cells
  double denom_b = 0.0;
  double denom_f = 0.0;  // Z mass over D_ij = 1 (exposed) cells
  double denom_g = 0.0;
};

// Production fill layout: the four denominators above are pure
// functions of (exposed_z, exposed_count) and the loop constants
// (total_z, total_y), so the fills store only the two exposure
// scalars and the consumers re-derive the denominators with the
// *identical* floating-point operations in the identical order —
//   t1      = fl(exposed_count - exposed_z)
//   denom_a = fl(total_z - exposed_z)
//   denom_b = fl(total_y - t1)
//   denom_f = exposed_z
//   denom_g = t1
// — which makes the derived values bit-equal to fill-time
// denominators while cutting the stats row from 64 to 48 bytes
// (16 MB less written per M-step at 10^6 sources, and 16 MB less
// re-read by each of the pooled tree and the finalize pass). The same
// derivation holds for decayed sums: StreamingEmExt keeps its history
// as λ-decayed packed rows plus the decayed totals, and every decayed
// denominator is the one derived from them.
struct SourceMStatsPacked {
  double claim_indep_z = 0.0;  // claims with D_ij = 0, weighted by Z_j
  double claim_indep_y = 0.0;
  double claim_dep_z = 0.0;  // claims with D_ij = 1
  double claim_dep_y = 0.0;
  double exposed_z = 0.0;      // Z mass over exposed (D_ij = 1) cells
  double exposed_count = 0.0;  // number of exposed cells
};

// What one fused M-step did beyond updating the parameters: the
// non-finite sanitize count and the max-norm convergence delta.
struct MStepOutcome {
  std::size_t sanitized = 0;
  double delta = 0.0;
};

// The fused production tail; see the header comment. `total_z` is the
// posterior mass and `m` the assertion count the rows were gathered
// over: the engine passes its integer count, the streaming M-step its
// decayed count, which is why `m` is a double. Updates `params`
// in place (it must hold the previous iteration's estimates, with
// params.source.size() == stats.size()); a rate whose denominator
// plus shrinkage cells is not positive keeps its previous value, and
// z = total_z / m. `tie_fg` applies the warm-up tie f = g = (f + g) / 2
// after sanitizing. The per-source pass is chunked on `pool` in fixed
// blocks; chunk results combine by + (count) and max (delta), both
// order-independent, so the result is bit-identical for any worker
// count.
inline void finalize_m_step_fused(const std::vector<SourceMStatsPacked>& stats,
                                  double total_z, double m,
                                  ModelParams& params, double shrinkage,
                                  bool tie_fg, ThreadPool* pool,
                                  MStepOutcome& out) {
  const std::size_t n = stats.size();
  params.source.resize(n);
  // The loop constant the packed denominators need.
  const double total_y = m - total_z;
  // Pooled rates anchor the shrinkage prior. Fixed-shape tree over the
  // global stats array: the shape depends only on n, so the result is
  // the same bits whichever shard or worker filled which block. Each
  // element's denominators are derived in-register (see
  // SourceMStatsPacked) and added in source order within a block.
  SourceMStats pooled = kernels::tree_reduce(
      pool, n, SourceMStats{},
      [&stats, total_z, total_y](std::size_t b, std::size_t e) {
        SourceMStats acc;
        for (std::size_t i = b; i < e; ++i) {
          const SourceMStatsPacked& s = stats[i];
          const double t1 = s.exposed_count - s.exposed_z;
          acc.claim_indep_z += s.claim_indep_z;
          acc.claim_indep_y += s.claim_indep_y;
          acc.claim_dep_z += s.claim_dep_z;
          acc.claim_dep_y += s.claim_dep_y;
          acc.denom_a += total_z - s.exposed_z;
          acc.denom_b += total_y - t1;
          acc.denom_f += s.exposed_z;
          acc.denom_g += t1;
        }
        return acc;
      },
      [](const SourceMStats& a, const SourceMStats& b) {
        SourceMStats c;
        c.claim_indep_z = a.claim_indep_z + b.claim_indep_z;
        c.claim_indep_y = a.claim_indep_y + b.claim_indep_y;
        c.claim_dep_z = a.claim_dep_z + b.claim_dep_z;
        c.claim_dep_y = a.claim_dep_y + b.claim_dep_y;
        c.denom_a = a.denom_a + b.denom_a;
        c.denom_b = a.denom_b + b.denom_b;
        c.denom_f = a.denom_f + b.denom_f;
        c.denom_g = a.denom_g + b.denom_g;
        return c;
      });
  auto rate = [](double num, double denom, double fallback) {
    return denom > 0.0 ? num / denom : fallback;
  };
  // Loop-constant MAP terms, hoisted. cmu is *precomputed* so the
  // per-lane update is (num + cmu) / (denom + cells) — two adds and a
  // divide with no a*b+c shape left for FMA contraction, which is what
  // lets the AVX2 finalize_params backend be exact instead of ULP.
  double mu[4] = {rate(pooled.claim_indep_z, pooled.denom_a, 0.5),
                  rate(pooled.claim_indep_y, pooled.denom_b, 0.5),
                  rate(pooled.claim_dep_z, pooled.denom_f, 0.5),
                  rate(pooled.claim_dep_y, pooled.denom_g, 0.5)};
  double cells[4];
  double cmu[4];
  for (std::size_t k = 0; k < 4; ++k) {
    cells[k] = shrinkage > 0.0 ? shrinkage / std::max(mu[k], 1e-9) : 0.0;
    cmu[k] = cells[k] * mu[k];
  }

  const double lo = kEmClampEps;
  const double hi = 1.0 - kEmClampEps;
  // SourceMStatsPacked and SourceParams are plain structs of 6/4
  // contiguous doubles whose field order lane-aligns num/exposure with
  // {a, b, f, g}; finalize_params documents the layout contract.
  static_assert(sizeof(SourceMStatsPacked) == 6 * sizeof(double));
  static_assert(sizeof(SourceParams) == 4 * sizeof(double));
  const double* stats6 = reinterpret_cast<const double*>(stats.data());
  double* params4 = reinterpret_cast<double*>(params.source.data());

  std::size_t chunks =
      ThreadPool::chunk_count(n, kernels::kTreeReduceBlock);
  std::size_t sanitized = 0;
  double dmax = 0.0;
  if (pool != nullptr && chunks > 1) {
    std::vector<std::size_t> chunk_sanitized(chunks, 0);
    std::vector<double> chunk_delta(chunks, 0.0);
    pool->parallel_for_chunks(
        n, kernels::kTreeReduceBlock,
        [&](std::size_t c, std::size_t b, std::size_t e) {
          chunk_delta[c] = 0.0;
          chunk_sanitized[c] = kernels::finalize_params(
              e - b, stats6 + 6 * b, total_z, total_y, cells, cmu, lo,
              hi, tie_fg, params4 + 4 * b, &chunk_delta[c]);
        });
    for (std::size_t c = 0; c < chunks; ++c) {
      sanitized += chunk_sanitized[c];
      if (chunk_delta[c] > dmax) dmax = chunk_delta[c];
    }
  } else {
    sanitized =
        kernels::finalize_params(n, stats6, total_z, total_y, cells, cmu,
                                 lo, hi, tie_fg, params4, &dmax);
  }

  // Prior update with its floor, the final clamp, and the same
  // keep-previous sanitize the source parameters get.
  double prev_z = params.z;
  double z = total_z / m;
  z = std::clamp(z, kEmZFloor, 1.0 - kEmZFloor);
  z = clamp_prob(z, kEmClampEps);
  if (!std::isfinite(z)) {
    z = prev_z;
    ++sanitized;
  }
  params.z = z;
  double zdiff = std::fabs(z - prev_z);
  if (zdiff > dmax) dmax = zdiff;

  out.sanitized = sanitized;
  out.delta = dmax;
}

}  // namespace em_detail
}  // namespace ss
