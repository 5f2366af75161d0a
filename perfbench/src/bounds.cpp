// bounds: the paper's simulation study. Per parametric instance, the
// exact Bayes error bound (n = 20 only), its Gibbs approximation with the
// Figs. 3-5 settings, and every registered estimator.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bounds/dataset_bound.h"
#include "core/estimator.h"
#include "estimators/registry.h"
#include "simgen/parametric_gen.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ss;

constexpr std::size_t kTop = 100;
// Exact and Gibbs bounds must agree to this at every n = 20 instance
// (the paper reports gaps of at most 0.013).
constexpr double kMaxBoundGap = 0.013;

struct Instance {
  SimInstance sim;
  std::size_t sources = 0;
};

// Per-instance figures of the last pass.
struct InstanceStats {
  double exact = -1.0;  // negative when not computed (n > 20)
  double gibbs = 0.0;
  std::size_t patterns = 0;
  std::size_t em_iterations = 0;
  bool em_converged = true;
  std::size_t claims = 0;
  std::size_t dependent_claims = 0;
};

class BoundsWorkload : public Workload {
 public:
  // The registry's estimators run on the process-wide pool.
  explicit BoundsWorkload(const Options& options)
      : options_(options), estimators_(make_all_estimators()) {
    gibbs_.min_sweeps = 1000;
    gibbs_.max_sweeps = 8000;
  }

  std::string name() const override { return "bounds"; }

  std::string scale_description() const override {
    return std::to_string(count(20)) + " instances n=20 + " +
           std::to_string(count(50)) + " instances n=50, m=" +
           std::to_string(assertions()) + ", " +
           std::to_string(estimators_.size()) + " estimators";
  }

  void setup() override {
    instances_.clear();
    Rng rng(mix_seed(options_.seed, 0));
    for (std::size_t n : {std::size_t{20}, std::size_t{50}}) {
      SimKnobs knobs = SimKnobs::paper_defaults(n, assertions());
      for (std::size_t k = 0; k < count(n); ++k) {
        instances_.push_back({generate_parametric(knobs, rng), n});
      }
    }
  }

  std::uint64_t input_digest() const override {
    Fnv1a h;
    for (const Instance& inst : instances_) {
      const Dataset& d = inst.sim.dataset;
      for (const Claim& c : d.claims.to_claims()) {
        h.pod(c.source);
        h.pod(c.assertion);
        h.pod(c.time);
      }
      for (std::size_t i = 0; i < d.source_count(); ++i) {
        for (std::uint32_t j : d.dependency.exposed_assertions(i)) h.pod(j);
      }
      h.bytes(d.truth.data(), d.truth.size());
      for (const SourceParams& p : inst.sim.true_params.source) h.pod(p);
      h.pod(inst.sim.true_params.z);
    }
    return h.value();
  }

  PassOutcome pass(Tracer& tracer, Ledger& ledger) override {
    PassOutcome out;
    Fnv1a outputs;
    stats_.assign(instances_.size(), InstanceStats{});
    // EM-Ext's (log-odds, truth) over every instance, for the pooled top 100.
    std::vector<std::pair<double, bool>> pooled;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const Instance& inst = instances_[i];
      const Dataset& dataset = inst.sim.dataset;
      const ModelParams& params = inst.sim.true_params;
      InstanceStats& st = stats_[i];
      ledger.attempt();
      OpCheck check;
      try {
        DatasetBoundResult exact;
        DatasetBoundResult gibbs;
        std::vector<EstimateResult> estimates;
        Clock::time_point t0 = Clock::now();
        {
          Span op(tracer, "bounds.instance", i);
          if (inst.sources <= 20) {
            Span span(tracer, "bounds.exact", i);
            exact = exact_dataset_bound(dataset, params);
          }
          {
            Span span(tracer, "bounds.gibbs", i);
            gibbs = gibbs_dataset_bound(dataset, params,
                                        mix_seed(options_.seed, 1000 + i),
                                        gibbs_);
          }
          Span all(tracer, "estimators", i);
          for (const auto& estimator : estimators_) {
            Span span(tracer, "estimators." + estimator->name(), i);
            estimates.push_back(estimator->run(dataset, options_.seed));
          }
        }
        double seconds = seconds_between(t0, Clock::now());
        out.seconds += seconds;
        out.op_ms.push_back(seconds * 1e3);

        std::size_t m = dataset.assertion_count();
        EstimateResult& em = estimates.front();  // EM-Ext
        plant_nonfinite_once(options_, em.belief);
        auto in_range = [](double e) { return e >= 0.0 && e <= 0.5; };
        check.require(in_range(gibbs.bound.error),
                      "Gibbs bound outside [0, 0.5]");
        if (inst.sources <= 20) {
          check.require(in_range(exact.bound.error),
                        "exact bound outside [0, 0.5]");
          double gap = std::fabs(exact.bound.error - gibbs.bound.error);
          check.require(gap <= kMaxBoundGap,
                        "Gibbs bound off the exact bound by " +
                            std::to_string(gap));
          st.exact = exact.bound.error;
        }
        for (std::size_t k = 0; k < estimates.size(); ++k) {
          const EstimateResult& e = estimates[k];
          check.require(e.belief.size() == m && all_finite(e.belief) &&
                            all_finite(e.log_odds),
                        estimators_[k]->name() +
                            ": non-finite or missing belief or log-odds");
          outputs.doubles(e.belief);
        }
        std::vector<std::uint32_t> order = em.ranking();
        check.require(is_permutation_of_range(order, m),
                      "EM-Ext ranking is not a permutation");
        if (check.ok()) {
          for (std::size_t j = 0; j < m; ++j) {
            bool truth = dataset.truth[j] == Label::kTrue;
            out.agree += (em.belief[j] > 0.5) == truth;
            pooled.push_back({em.log_odds.empty() ? em.belief[j]
                                                  : em.log_odds[j],
                              truth});
          }
          out.graded += m;
        }
        st.gibbs = gibbs.bound.error;
        st.patterns = gibbs.distinct_patterns;
        st.em_iterations = em.iterations;
        st.em_converged = em.converged;
        st.claims = dataset.claims.claim_count();
        st.dependent_claims =
            st.claims - count_original_claims(dataset.claims,
                                              dataset.dependency);
      } catch (const std::exception& e) {
        check.require(false, std::string("exception: ") + e.what());
      }
      if (!check.ok()) {
        ledger.fail("instance " + std::to_string(i) + ": " + check.problem);
      }
    }
    // Pooled top 100: stable sort keeps instance order among equal scores.
    std::stable_sort(pooled.begin(), pooled.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (std::size_t r = 0; r < std::min(kTop, pooled.size()); ++r) {
      out.top_true += pooled[r].second;
    }
    out.top_slots = kTop;
    out.output_hash = outputs.value();
    Summary sum = summarize();
    out.extra.set("bound_gap", sum.gap, "ratio");
    out.extra.set("unconverged", static_cast<double>(sum.unconverged),
                  "count");
    return out;
  }

  void layer_metrics(const Tracer& tracer, Metrics& out) override {
    Summary sum = summarize();
    double patterns = static_cast<double>(sum.patterns);
    double iterations = static_cast<double>(sum.iterations);
    double gibbs = tracer.total("bounds.gibbs");
    double em = tracer.total("estimators.EM-Ext");
    out.set("bounds.exact_s", tracer.total("bounds.exact"), "s");
    out.set("bounds.gibbs_s", gibbs, "s");
    out.set("bounds.gibbs_ms_per_pattern",
            patterns > 0.0 ? gibbs * 1e3 / patterns : 0.0, "ms");
    out.set("bounds.patterns", patterns, "count");
    out.set("bounds.exact_states", sum.exact_states, "count");
    out.set("bounds.gap", sum.gap, "ratio");
    out.set("estimators.s", tracer.total("estimators"), "s");
    out.set("core.em_s", em, "s");
    out.set("core.em_iters", iterations, "count");
    out.set("core.em_ms_per_iter", iterations > 0.0 ? em * 1e3 / iterations : 0.0,
            "ms");
    out.set("core.unconverged", static_cast<double>(sum.unconverged), "count");
    out.set("data.claims", static_cast<double>(sum.claims), "count");
    out.set("data.dependent_frac",
            sum.claims == 0 ? 0.0
                            : static_cast<double>(sum.dependent) /
                                  static_cast<double>(sum.claims),
            "ratio");
    out.set("trace.remainder_s", tracer.self_total("bounds.instance"), "s");
  }

 private:
  // Totals over the last pass's instances.
  struct Summary {
    std::size_t patterns = 0;
    std::size_t iterations = 0;
    std::size_t unconverged = 0;
    std::size_t claims = 0;
    std::size_t dependent = 0;
    double exact_states = 0.0;  // patterns x 2^n over the exact instances
    double gap = 0.0;           // mean |exact - Gibbs| over them
  };

  Summary summarize() const {
    Summary sum;
    std::size_t gaps = 0;
    for (std::size_t i = 0; i < stats_.size(); ++i) {
      const InstanceStats& st = stats_[i];
      sum.patterns += st.patterns;
      sum.iterations += st.em_iterations;
      sum.unconverged += !st.em_converged;
      sum.claims += st.claims;
      sum.dependent += st.dependent_claims;
      if (st.exact >= 0.0) {
        sum.exact_states +=
            static_cast<double>(st.patterns) *
            std::ldexp(1.0, static_cast<int>(instances_[i].sources));
        sum.gap += std::fabs(st.exact - st.gibbs);
        ++gaps;
      }
    }
    if (gaps > 0) sum.gap /= static_cast<double>(gaps);
    return sum;
  }

  std::size_t count(std::size_t sources) const {
    if (options_.toy) return sources == 20 ? 2 : 1;
    return sources == 20 ? 16 : 8;
  }
  std::size_t assertions() const { return options_.toy ? 20 : 50; }

  const Options& options_;
  std::vector<std::unique_ptr<Estimator>> estimators_;
  GibbsBoundConfig gibbs_;
  std::vector<Instance> instances_;
  std::vector<InstanceStats> stats_;
};

}  // namespace

std::unique_ptr<Workload> make_bounds_workload(const Options& options) {
  return std::make_unique<BoundsWorkload>(options);
}

}  // namespace perfbench
