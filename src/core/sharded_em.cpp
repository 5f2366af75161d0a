#include "core/sharded_em.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/em_mstep.h"
#include "core/posterior.h"
#include "math/convergence.h"
#include "math/kernels.h"
#include "math/logprob.h"
#include "util/checkpoint.h"
#include "util/fault_inject.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

// ---------------------------------------------------------------------
// The engine: one E-step and one M-step over the shards.
// ---------------------------------------------------------------------

// Fixed grains: work-unit boundaries depend only on the shard layout,
// never on the worker count, so slot writes are identical for any
// SS_THREADS value.
constexpr std::size_t kColumnGrain = 256;
constexpr std::size_t kSourceGrain = 256;

// One fixed block of one shard's columns (or sources). The flat list
// of units — not shard-per-task — is what keeps the pool busy when one
// giant component swallows most of the data: an oversized shard simply
// contributes many units.
struct WorkUnit {
  std::uint32_t shard;
  std::uint32_t begin;  // position range within the shard
  std::uint32_t end;
};

// The units of every shard, heaviest first by incidence mass (claim +
// exposure entries the unit touches); ties keep shard/position order.
// parallel_for_chunks hands them out in list order from one cursor, so
// the next-heaviest unit goes to whichever participant is free —
// longest-first list scheduling. The order decides placement only:
// every unit writes its own global slots.
std::vector<WorkUnit> chunk_units(const ShardedDataset& sharded,
                                  bool columns, std::size_t grain) {
  std::vector<std::pair<std::size_t, WorkUnit>> weighted;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    const DatasetShard& sh = sharded.shard(s);
    std::size_t count =
        columns ? sh.assertion_ids().size() : sh.source_ids().size();
    for (std::size_t begin = 0; begin < count; begin += grain) {
      std::size_t end = std::min(begin + grain, count);
      std::size_t mass = 0;
      for (std::size_t p = begin; p < end; ++p) {
        if (columns) {
          mass += sh.claimants(p).size() + sh.exposed_sources(p).size();
        } else {
          mass += sh.dependent_claims(p).size() +
                  sh.independent_claims(p).size() +
                  sh.exposed_assertions(p).size();
        }
      }
      weighted.push_back({mass,
                          {static_cast<std::uint32_t>(s),
                           static_cast<std::uint32_t>(begin),
                           static_cast<std::uint32_t>(end)}});
    }
  }
  std::stable_sort(weighted.begin(), weighted.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::vector<WorkUnit> units;
  units.reserve(weighted.size());
  for (const auto& [mass, unit] : weighted) units.push_back(unit);
  return units;
}

// Gathers run over per-shard CSR slices; values are read from (and
// results scattered into) global tables indexed by global id, so the
// shard layout decides only which worker computes a column or a
// source, never what it computes.
class ShardedEmEngine {
 public:
  ShardedEmEngine(const ShardedDataset& sharded, const EmExtConfig& config,
                  ThreadPool* pool)
      : sharded_(sharded),
        config_(config),
        pool_(pool),
        column_units_(
            chunk_units(sharded, /*columns=*/true, kColumnGrain)),
        source_units_(
            chunk_units(sharded, /*columns=*/false, kSourceGrain)) {}

  // Per-attempt state, reused by every EM iteration of the attempt
  // (tables rebuilt in place, buffers keep their capacity, so the
  // iteration loops run allocation-free).
  struct Scratch {
    kernels::ExtLogTable table;
    EStepResult e;
    std::vector<double> column_ll;
    std::vector<em_detail::SourceMStatsPacked> mstats;
  };

  std::size_t source_count() const { return sharded_.source_count(); }
  std::size_t assertion_count() const {
    return sharded_.assertion_count();
  }
  std::uint64_t claim_count() const {
    return static_cast<std::uint64_t>(sharded_.claim_count());
  }
  ThreadPool* pool() const { return pool_; }

  // Fused E-step (Eq. 9) under `params`: fills s.e (posterior,
  // log_odds, log_likelihood). May produce non-finite values; the
  // outer loop guards them. Same two-pass shape as posterior.cpp's
  // fused_e_step: a gather pass parks the prior-shifted column
  // log-likelihoods la/lb in the output buffers (slot-addressed by
  // global assertion id), then the elementwise finalize_columns
  // epilogue runs over contiguous global ranges — chunking-invariant —
  // and the data log-likelihood reduces through the fixed-shape tree.
  // Per column the gathers are gather_add + gather_add_select in shard
  // list order, which is the ascending claimant/exposed order of the
  // dataset.
  void e_step(const ModelParams& params, Scratch& s) const {
    const std::size_t n = sharded_.source_count();
    const std::size_t m = sharded_.assertion_count();
    if (params.source.size() != n) {
      throw std::invalid_argument(
          "ShardedEmEngine: params/source count mismatch");
    }
    // SourceParams is {a, b, f, g} as four contiguous doubles (the
    // static_assert lives in em_mstep.h's fused tail, same contract):
    // build_from_rows reads the params array directly and clamps each
    // rate in flight, building the rows in fixed source chunks on the
    // pool (same bits for any pool).
    s.table.build_from_rows(
        n, clamp_prob(params.z),
        reinterpret_cast<const double*>(params.source.data()), pool_);
    s.e.posterior.resize(m);
    s.e.log_odds.resize(m);
    s.column_ll.resize(m);

    const double log_z = s.table.log_z();
    const double log_1mz = s.table.log_1mz();
    double* la_buf = s.e.log_odds.data();
    double* lb_buf = s.column_ll.data();
    double* post = s.e.posterior.data();
    auto gather_unit = [&](const WorkUnit& u) {
      const DatasetShard& sh = sharded_.shard(u.shard);
      std::span<const std::uint32_t> ids = sh.assertion_ids();
      for (std::size_t c = u.begin; c < u.end; ++c) {
        kernels::LogPair acc =
            kernels::gather_add(s.table.base(), sh.exposed_sources(c),
                                s.table.exposed_silent());
        acc = kernels::gather_add_select(
            acc, sh.claimants(c), sh.claimant_dependent(c),
            s.table.claim_indep(), s.table.claim_dep());
        std::uint32_t j = ids[c];
        la_buf[j] = acc.t + log_z;
        lb_buf[j] = acc.f + log_1mz;
      }
    };
    run_units(column_units_, gather_unit);

    // Epilogue over global assertion ranges (sanctioned elementwise
    // aliasing: log_odds == la, column_ll == lb; see kernels.h).
    auto epilogue = [&](std::size_t, std::size_t begin, std::size_t end) {
      kernels::finalize_columns(la_buf + begin, lb_buf + begin,
                                end - begin, post + begin, la_buf + begin,
                                lb_buf + begin);
    };
    if (pool_ != nullptr && pool_->size() > 1 && m > kColumnGrain) {
      pool_->parallel_for_chunks(m, kColumnGrain, epilogue);
    } else {
      for (std::size_t begin = 0; begin < m; begin += kColumnGrain) {
        epilogue(0, begin, std::min(begin + kColumnGrain, m));
      }
    }
    // Canonical fixed-shape tree sum over the *global* column_ll array
    // (independent of shard layout, thread count and unit order).
    s.e.log_likelihood = kernels::tree_sum(pool_, s.column_ll.data(), m);
  }

  // Closed-form M-step (Eq. 10-14) given the posterior, applied to
  // `params` in place (previous estimates on entry, new ones on
  // return): per-source statistics fill in shard-parallel units (each
  // source owns its global slot and every field is written, so no
  // pre-zeroing pass is needed; the shard's split claim lists are
  // ascending, so each accumulator sees its terms in claim order),
  // then the fused tail in em_detail::finalize_m_step_fused, which
  // also sanitizes non-finite updates, applies the optional f=g
  // warm-up tie and reports the max-norm delta through `out`.
  void m_step(const std::vector<double>& posterior, ModelParams& params,
              bool tie_fg, Scratch& s,
              em_detail::MStepOutcome& out) const {
    const std::size_t n = sharded_.source_count();
    const std::size_t m = sharded_.assertion_count();
    double total_z =
        kernels::tree_sum(pool_, posterior.data(), posterior.size());

    std::vector<em_detail::SourceMStatsPacked>& stats = s.mstats;
    stats.resize(n);
    auto fill_unit = [&](const WorkUnit& u) {
      const DatasetShard& sh = sharded_.shard(u.shard);
      std::span<const std::uint32_t> ids = sh.source_ids();
      for (std::size_t p = u.begin; p < u.end; ++p) {
        em_detail::SourceMStatsPacked& st = stats[ids[p]];
        double exposed_z = kernels::gather_sum(sh.exposed_assertions(p),
                                               posterior.data());
        double exposed_count =
            static_cast<double>(sh.exposed_assertions(p).size());
        kernels::MassPair dep =
            kernels::gather_mass(sh.dependent_claims(p), posterior.data());
        kernels::MassPair indep = kernels::gather_mass(
            sh.independent_claims(p), posterior.data());
        st.claim_dep_z = dep.z;
        st.claim_dep_y = dep.y;
        st.claim_indep_z = indep.z;
        st.claim_indep_y = indep.y;
        // Packed exposure pair; the update denominators are derived at
        // consumption time with the identical fl-op order (see
        // SourceMStatsPacked in em_mstep.h).
        st.exposed_z = exposed_z;
        st.exposed_count = exposed_count;
      }
    };
    run_units(source_units_, fill_unit);
    em_detail::finalize_m_step_fused(stats, total_z,
                                     static_cast<double>(m), params,
                                     config_.shrinkage, tie_fg, pool_, out);
  }

  // Support-based initial posterior (vote_prior_from_support): the
  // per-column support counts scatter from the shards into a global
  // array indexed by assertion id.
  std::vector<double> vote_prior(bool independent_only) const {
    std::vector<double> support(sharded_.assertion_count(), 0.0);
    for (std::size_t sidx = 0; sidx < sharded_.shard_count(); ++sidx) {
      const DatasetShard& sh = sharded_.shard(sidx);
      std::span<const std::uint32_t> ids = sh.assertion_ids();
      for (std::size_t c = 0; c < ids.size(); ++c) {
        std::size_t count;
        if (independent_only) {
          std::span<const char> flags = sh.claimant_dependent(c);
          count = static_cast<std::size_t>(
              std::count(flags.begin(), flags.end(), char{0}));
        } else {
          count = sh.claimants(c).size();
        }
        support[ids[c]] = static_cast<double>(count);
      }
    }
    return vote_prior_from_support(std::move(support));
  }

  // True when source i carries no evidence (no claims, no exposure).
  bool degenerate_source(std::size_t i) const {
    const DatasetShard& sh = sharded_.shard(sharded_.shard_of_source(i));
    std::size_t p = sharded_.position_of_source(i);
    return sh.dependent_claims(p).empty() &&
           sh.independent_claims(p).empty() &&
           sh.exposed_assertions(p).empty();
  }

 private:
  // Runs fn over every unit, heaviest first, one unit per chunk.
  template <typename Fn>
  void run_units(const std::vector<WorkUnit>& units, const Fn& fn) const {
    if (pool_ != nullptr && pool_->size() > 1 && units.size() > 1) {
      pool_->parallel_for_chunks(
          units.size(), 1,
          [&](std::size_t u, std::size_t, std::size_t) { fn(units[u]); });
    } else {
      for (const WorkUnit& u : units) fn(u);
    }
  }

  const ShardedDataset& sharded_;
  const EmExtConfig& config_;
  ThreadPool* pool_;
  std::vector<WorkUnit> column_units_;
  std::vector<WorkUnit> source_units_;
};

// ---------------------------------------------------------------------
// The outer loop: initialization, the f=g warm-up, convergence,
// divergence retries, random restarts, checkpoint/resume, winner
// selection and health accounting around the engine's E- and M-steps.
// ---------------------------------------------------------------------

// CheckpointStore kind tag for EM restart attempts.
constexpr std::uint64_t kEmExtCheckpointKind = 1;
// Split-key base for divergence-recovery re-seeds; offset past any
// plausible attempt index so retry streams never collide with the
// attempts' own init streams.
constexpr std::uint64_t kReseedKeyBase = 0x52450000ull;

bool all_finite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// One completed restart attempt, serialized bit-exact for
// CheckpointStore — everything the winner selection and the final
// result need, so a resumed run is indistinguishable from an
// uninterrupted one.
std::string encode_attempt(const EmExtResult& r) {
  BinWriter w;
  w.vec_f64(r.estimate.belief);
  w.vec_f64(r.estimate.log_odds);
  w.u64(r.estimate.iterations);
  w.u8(r.estimate.converged ? 1 : 0);
  w.vec_f64(r.likelihood_trace);
  w.f64(r.log_likelihood);
  w.f64(r.params.z);
  w.u64(r.params.source.size());
  for (const SourceParams& s : r.params.source) {
    w.f64(s.a);
    w.f64(s.b);
    w.f64(s.f);
    w.f64(s.g);
  }
  w.u64(r.health.nonfinite_events);
  w.u64(r.health.reseeded_attempts);
  w.u64(r.health.failed_attempts);
  w.u64(r.health.sanitized_params);
  return w.take();
}

// Throws std::runtime_error on any malformed payload; the caller treats
// that as "record absent" and recomputes the attempt.
EmExtResult decode_attempt(const std::string& bytes) {
  BinReader rd(bytes);
  EmExtResult r;
  r.estimate.belief = rd.vec_f64();
  r.estimate.log_odds = rd.vec_f64();
  r.estimate.iterations = static_cast<std::size_t>(rd.u64());
  r.estimate.converged = rd.u8() != 0;
  r.estimate.probabilistic = true;
  r.likelihood_trace = rd.vec_f64();
  r.log_likelihood = rd.f64();
  r.params.z = rd.f64();
  r.params.source.resize(rd.count(4 * sizeof(double)));
  for (SourceParams& s : r.params.source) {
    s.a = rd.f64();
    s.b = rd.f64();
    s.f = rd.f64();
    s.g = rd.f64();
  }
  r.health.nonfinite_events = static_cast<std::size_t>(rd.u64());
  r.health.reseeded_attempts = static_cast<std::size_t>(rd.u64());
  r.health.failed_attempts = static_cast<std::size_t>(rd.u64());
  r.health.sanitized_params = static_cast<std::size_t>(rd.u64());
  r.health.resumed_attempts = 1;
  if (!rd.done()) {
    throw std::runtime_error("checkpoint: trailing bytes");
  }
  return r;
}

// Determinism inventory (docs/MODEL.md §16): every floating-point
// reduction the outer loop or the engine owns is either serial in
// canonical order or a fixed-shape tree reduction over a global array
// (kernels::tree_reduce — shape depends only on the element count, so
// thread counts, shard layouts and unit dispatch order cannot perturb
// it): log-likelihood via kernels::tree_sum in assertion
// order, M-step statistics slot-addressed with a tree-pooled
// reduction, per-source updates combined by order-independent +/max.
// Integer health counters are the only values merged without ordering.
EmExtResult run_em(const ShardedEmEngine& engine, const EmExtConfig& config,
                   std::uint64_t seed) {
  const std::size_t n = engine.source_count();
  const std::size_t m = engine.assertion_count();
  if (m == 0) {
    // Nothing to estimate; return a well-formed empty result.
    EmExtResult empty;
    empty.estimate.probabilistic = true;
    empty.params.source.assign(n, SourceParams{});
    return empty;
  }
  ThreadPool* pool = engine.pool();
  Rng rng(seed, /*stream=*/0x37);

  bool random_init =
      !config.init.has_value() && config.init_kind == EmInit::kRandom;
  std::size_t restarts =
      random_init ? std::max<std::size_t>(1, config.restarts) : 1;

  // One guarded EM run. Returns nullopt when an E-step went non-finite
  // (injected fault or pathological input) — the caller re-seeds and
  // retries rather than letting a NaN reach winner selection. retry > 0
  // always draws fresh random parameters: replaying a deterministic
  // initialization that already diverged would diverge again.
  auto run_attempt_once =
      [&](std::size_t attempt, std::size_t retry,
          EmHealth& health) -> std::optional<EmExtResult> {
    ShardedEmEngine::Scratch scratch;
    ModelParams params;
    if (retry > 0) {
      Rng retry_rng = rng.split(kReseedKeyBase + attempt * 64 + retry);
      params = random_init_params(n, retry_rng);
    } else if (config.init.has_value()) {
      params = *config.init;
    } else if (random_init) {
      Rng attempt_rng = rng.split(attempt);
      params = random_init_params(n, attempt_rng);
    } else {
      // Vote prior: derive the initial parameters from a support-based
      // posterior via one M-step (in place over neutral parameters;
      // the outcome's sanitize count and delta are meaningless here
      // and dropped). Only independent claims count toward the
      // initial support — seeding belief from echo counts would let
      // a viral rumour enter the first M-step as "true", inflating f
      // relative to g and locking the dependent-claim semantics in
      // backwards.
      params.source.assign(n, SourceParams{});
      em_detail::MStepOutcome ignored;
      engine.m_step(engine.vote_prior(/*independent_only=*/true), params,
                    /*tie_fg=*/false, scratch, ignored);
    }
    clamp_params(params, kEmClampEps);

    EmExtResult result;
    // One guarded E-step: posterior + likelihood with the non-finite
    // check, shared by both phases below.
    auto guarded_e_step = [&]() -> bool {
      engine.e_step(params, scratch);
      fault::maybe_corrupt_posterior(scratch.e.posterior);
      if (!std::isfinite(scratch.e.log_likelihood) ||
          !all_finite(scratch.e.posterior)) {
        ++health.nonfinite_events;
        return false;
      }
      return true;
    };

    // Phase 1 (warm-up): f and g tied per source, which cancels every
    // dependent-branch factor from the posterior — labels form from
    // independent evidence only (see EmExtConfig::warmup_iters).
    std::size_t warmup = config.init.has_value() || random_init
                             ? 0
                             : config.warmup_iters;
    if (warmup > 0) {
      ConvergenceMonitor warm_monitor(config.tol, warmup);
      bool warm_done = false;
      while (!warm_done) {
        if (!guarded_e_step()) return std::nullopt;
        result.likelihood_trace.push_back(scratch.e.log_likelihood);
        em_detail::MStepOutcome mo;
        engine.m_step(scratch.e.posterior, params, /*tie_fg=*/true,
                      scratch, mo);
        health.sanitized_params += mo.sanitized;
        warm_done = warm_monitor.update_delta(mo.delta);
      }
    }

    // Phase 2: the full model (Eq. 9 / Eq. 10-14).
    ConvergenceMonitor monitor(config.tol, config.max_iters);
    bool done = false;
    while (!done) {
      if (!guarded_e_step()) return std::nullopt;  // E-step (Eq. 9)
      result.likelihood_trace.push_back(scratch.e.log_likelihood);
      // M-step (Eq. 10-14), in place.
      em_detail::MStepOutcome mo;
      engine.m_step(scratch.e.posterior, params, /*tie_fg=*/false,
                    scratch, mo);
      health.sanitized_params += mo.sanitized;
      done = monitor.update_delta(mo.delta);
    }

    // Final posterior under the converged parameters — one fused pass
    // supplies beliefs, log-odds and the final likelihood together.
    if (!guarded_e_step()) return std::nullopt;
    result.estimate.belief = std::move(scratch.e.posterior);
    result.estimate.log_odds = std::move(scratch.e.log_odds);
    result.estimate.probabilistic = true;
    result.estimate.iterations = monitor.iterations();
    result.estimate.converged = monitor.converged();
    result.params = std::move(params);
    result.log_likelihood = scratch.e.log_likelihood;
    return result;
  };

  // Retry wrapper: re-seed a diverged attempt up to
  // kEmMaxDivergenceRetries times; after that, fall back to the
  // data-driven vote prior with -inf likelihood, which can win only
  // when every attempt diverged — and even then the returned beliefs
  // are finite.
  auto run_attempt = [&](std::size_t attempt) -> EmExtResult {
    EmHealth health;
    for (std::size_t retry = 0; retry <= kEmMaxDivergenceRetries; ++retry) {
      if (retry > 0) ++health.reseeded_attempts;
      std::optional<EmExtResult> r =
          run_attempt_once(attempt, retry, health);
      if (r.has_value()) {
        r->health = health;
        return *std::move(r);
      }
    }
    ++health.failed_attempts;
    EmExtResult r;
    r.estimate.belief = engine.vote_prior(/*independent_only=*/false);
    r.estimate.log_odds.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      double b = r.estimate.belief[j];  // clamped to [0.05, 0.95]
      r.estimate.log_odds[j] = logit(b);
    }
    r.estimate.probabilistic = true;
    r.estimate.converged = false;
    r.params.source.assign(n, SourceParams{});
    clamp_params(r.params, kEmClampEps);
    r.log_likelihood = -std::numeric_limits<double>::infinity();
    r.health = health;
    return r;
  };

  // Checkpoint store bound to everything that determines an attempt's
  // output; a stale file (different data, seed or config) is ignored.
  // The shard layout is not in the fingerprint: it never changes a bit.
  std::unique_ptr<CheckpointStore> ckpt;
  if (!config.checkpoint_path.empty()) {
    std::uint64_t fp = fingerprint_combine(0x454d4558ull, seed);
    fp = fingerprint_combine(fp, static_cast<std::uint64_t>(n));
    fp = fingerprint_combine(fp, static_cast<std::uint64_t>(m));
    fp = fingerprint_combine(fp, engine.claim_count());
    fp = fingerprint_combine(fp, config.tol);
    fp = fingerprint_combine(fp,
                             static_cast<std::uint64_t>(config.max_iters));
    fp = fingerprint_combine(fp, kEmClampEps);
    fp = fingerprint_combine(fp, config.shrinkage);
    fp = fingerprint_combine(fp, kEmZFloor);
    fp = fingerprint_combine(
        fp, static_cast<std::uint64_t>(config.warmup_iters));
    fp = fingerprint_combine(fp,
                             static_cast<std::uint64_t>(config.init_kind));
    fp = fingerprint_combine(
        fp, static_cast<std::uint64_t>(kEmMaxDivergenceRetries));
    fp = fingerprint_combine(
        fp, static_cast<std::uint64_t>(config.init.has_value()));
    ckpt = std::make_unique<CheckpointStore>(
        config.checkpoint_path, kEmExtCheckpointKind, fp, restarts);
  }

  auto run_or_resume = [&](std::size_t attempt) -> EmExtResult {
    if (ckpt != nullptr && ckpt->has(attempt)) {
      try {
        return decode_attempt(ckpt->payload(attempt));
      } catch (const std::exception&) {
        // Undecodable record: recompute. A checkpoint can only save
        // work, never poison a run.
      }
    }
    EmExtResult r = run_attempt(attempt);
    if (ckpt != nullptr) {
      ckpt->commit(attempt, encode_attempt(r));
      fault::unit_committed();  // kill-after-commit injection point
    }
    return r;
  };

  std::vector<EmExtResult> attempts(restarts);
  if (restarts > 1) {
    // Random restarts are independent; run them across the pool (grain
    // 1: one attempt per chunk). Nested parallel sections inside each
    // attempt are safe because parallel_for_chunks callers participate.
    pool->parallel_for_chunks(
        restarts, 1, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t a = begin; a < end; ++a) {
            attempts[a] = run_or_resume(a);
          }
        });
  } else {
    attempts[0] = run_or_resume(0);
  }

  // Winner selection in attempt order (first best wins ties). Health
  // aggregates over every attempt, not just the winner.
  EmExtResult best;
  bool have_best = false;
  EmHealth total;
  for (EmExtResult& result : attempts) {
    total.nonfinite_events += result.health.nonfinite_events;
    total.reseeded_attempts += result.health.reseeded_attempts;
    total.failed_attempts += result.health.failed_attempts;
    total.sanitized_params += result.health.sanitized_params;
    total.resumed_attempts += result.health.resumed_attempts;
    if (!have_best || result.log_likelihood > best.log_likelihood) {
      best = std::move(result);
      have_best = true;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (engine.degenerate_source(i)) ++total.degenerate_sources;
  }
  best.health = total;
  if (ckpt != nullptr && !config.keep_checkpoint) ckpt->remove_file();
  return best;
}

}  // namespace

ShardedEmEstimator::ShardedEmEstimator(EmExtConfig config)
    : config_(std::move(config)) {}

EstimateResult ShardedEmEstimator::run(const ShardedDataset& sharded,
                                       std::uint64_t seed) const {
  return run_detailed(sharded, seed).estimate;
}

EmExtResult ShardedEmEstimator::run_detailed(const ShardedDataset& sharded,
                                             std::uint64_t seed) const {
  ThreadPool* pool =
      config_.pool != nullptr ? config_.pool : &global_pool();
  ShardedEmEngine engine(sharded, config_, pool);
  return run_em(engine, config_, seed);
}

}  // namespace ss
