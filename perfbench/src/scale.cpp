// scale: .ssd images with 10^6 sources in all -> ranked assertions (open,
// shard build, sharded EM-Ext, ranking). No ingestion: kernel, scheduling
// and iteration-count work shows here.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "core/sharded_em.h"
#include "data/shard.h"
#include "data/ssd.h"
#include "simgen/scale_gen.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ss;

constexpr std::size_t kTop = 100;
// 10^6 sources in all, as independent images, each fitted by its own
// pass. EM-Ext's iteration count swings with the seed (23 to 116 after the
// warm-up on single 10^6-source images) and has a long tail that thins as
// images shrink; run_s, the median pass, stays comparable between seeds
// unless most images of a run land in the tail.
constexpr std::size_t kImages = 10;
constexpr std::size_t kSourcesPerImage = 100'000;

// The bench_scale knobs: m = n / 10, communities of 64-256 members.
ScaleKnobs knobs_for(std::size_t sources) {
  ScaleKnobs knobs;
  knobs.sources = sources;
  knobs.assertions = std::max<std::size_t>(200, sources / 10);
  knobs.community_lo = 64;
  knobs.community_hi = 256;
  return knobs;
}

class ScaleWorkload : public Workload {
 public:
  ScaleWorkload(const Options& options, ThreadPool& pool)
      : options_(options),
        pool_(pool),
        knobs_(knobs_for(options.toy ? 5'000 : kSourcesPerImage)) {
    em_config_.pool = &pool_;
    for (std::size_t k = 0; k < kImages; ++k) {
      images_.push_back({options.data_dir + "/scale-" +
                             std::to_string(options.seed) + "-" +
                             std::to_string(k) + ".ssd",
                         {}});
    }
    fits_.resize(images_.size());
  }

  ~ScaleWorkload() override {
    for (const Image& image : images_) {
      std::error_code ignored;
      std::filesystem::remove(image.path, ignored);
    }
  }

  std::string name() const override { return "scale"; }

  std::string scale_description() const override {
    std::size_t claims = 0, bytes = 0;
    for (const Image& image : images_) {
      claims += image.stats.ssd.claims;
      bytes += image.stats.ssd.bytes;
    }
    return std::to_string(kImages) + " images x " +
           std::to_string(knobs_.sources) + " sources, " +
           std::to_string(knobs_.assertions) + " assertions; " +
           std::to_string(claims) + " claims, " + std::to_string(bytes >> 20) +
           " MiB in all";
  }

  void setup() override {
    for (std::size_t k = 0; k < images_.size(); ++k) {
      images_[k].stats = generate_scale_ssd(
          knobs_, mix_seed(options_.seed, k), images_[k].path);
    }
  }

  std::uint64_t input_digest() const override {
    Fnv1a h;
    for (const Image& image : images_) h.pod(image.stats.ssd.fingerprint);
    return h.value();
  }

  std::size_t round_size() const override { return images_.size(); }

  // One pass fits one image; consecutive passes take the images in turn.
  PassOutcome pass(Tracer& tracer, Ledger& ledger) override {
    PassOutcome out;
    std::size_t k = next_image_;
    next_image_ = (next_image_ + 1) % images_.size();
    const Image& image = images_[k];
    FitStats& f = fits_[k];
    ledger.attempt();
    OpCheck check;
    try {
      std::optional<SsdView> view;
      std::optional<ShardedDataset> sharded;
      EmExtResult fit;
      std::vector<std::uint32_t> order;
      Clock::time_point t0 = Clock::now();
      {
        Span op(tracer, "scale.fit", k);
        {
          Span span(tracer, "data.ssd_open", k);
          auto opened = SsdView::open(image.path);
          if (!opened.ok()) throw std::runtime_error(opened.error().message);
          view.emplace(std::move(opened).value());
        }
        {
          Span span(tracer, "data.shard", k);
          ShardConfig config;
          config.pool = &pool_;
          sharded.emplace(ShardedDataset::build(*view, config));
        }
        {
          Span span(tracer, "core.em", k);
          fit = ShardedEmEstimator(em_config_).run_detailed(*sharded,
                                                            options_.seed);
        }
        Span span(tracer, "apollo.rank", k);
        order = fit.estimate.ranking();
      }
      out.seconds = seconds_between(t0, Clock::now());
      out.op_ms.push_back(out.seconds * 1e3);

      std::size_t m = sharded->assertion_count();
      plant_nonfinite_once(options_, fit.estimate.belief);
      check.require(view->claim_count() == image.stats.ssd.claims &&
                        sharded->claim_count() == image.stats.ssd.claims,
                    "claim count differs from the generator's");
      check.require(view->fingerprint() == image.stats.ssd.fingerprint,
                    "image fingerprint differs from the generator's");
      check.require(fit.estimate.belief.size() == m &&
                        fit.estimate.log_odds.size() == m,
                    "belief count differs from assertion count");
      check.require(all_finite(fit.estimate.belief) &&
                        all_finite(fit.estimate.log_odds),
                    "non-finite belief or log-odds");
      check.require(is_permutation_of_range(order, m),
                    "ranking is not a permutation");
      if (check.ok()) {
        const std::vector<Label>& truth = sharded->truth();
        for (std::size_t r = 0; r < std::min(kTop, m); ++r) {
          out.top_true += truth[order[r]] == Label::kTrue;
        }
        out.top_slots = kTop;
        for (std::size_t j = 0; j < m; ++j) {
          out.agree +=
              (fit.estimate.belief[j] > 0.5) == (truth[j] == Label::kTrue);
        }
        out.graded = m;
      }
      Fnv1a outputs;
      outputs.doubles(fit.estimate.belief);
      outputs.doubles(fit.estimate.log_odds);
      out.output_hash = outputs.value();
      f.iterations = fit.likelihood_trace.size();
      f.converged = fit.estimate.converged;
      out.extra.set("unconverged", f.converged ? 0.0 : 1.0, "count");
      out.extra.set("em_iterations", static_cast<double>(f.iterations),
                    "count");
      if (tracer.enabled()) {
        record_shape(*sharded, f);
        rerun_serial(*sharded, tracer, k, fit, check);
      }
    } catch (const std::exception& e) {
      check.require(false, std::string("exception: ") + e.what());
    }
    if (!check.ok()) {
      ledger.fail("image " + std::to_string(k) + ": " + check.problem);
    }
    return out;
  }

  void layer_metrics(const Tracer& tracer, Metrics& out) override {
    std::size_t claims = 0, dependent = 0, shards = 0, iterations = 0;
    std::size_t unconverged = 0, max_shard_claims = 0;
    for (std::size_t k = 0; k < fits_.size(); ++k) {
      claims += images_[k].stats.ssd.claims;
      dependent += fits_[k].dependent_claims;
      shards += fits_[k].shards;
      iterations += fits_[k].iterations;
      unconverged += !fits_[k].converged;
      max_shard_claims = std::max(max_shard_claims, fits_[k].max_shard_claims);
    }
    double em = tracer.total("core.em");
    double serial = tracer.total("core.em_serial");
    double threads = static_cast<double>(pool_.size() + 1);
    double mean_shard = shards == 0 ? 0.0
                                    : static_cast<double>(claims) /
                                          static_cast<double>(shards);
    out.set("data.ssd_open_ms", tracer.total("data.ssd_open") * 1e3, "ms");
    out.set("data.shard_s", tracer.total("data.shard"), "s");
    out.set("data.claims", static_cast<double>(claims), "count");
    out.set("data.dependent_frac",
            claims == 0 ? 0.0
                        : static_cast<double>(dependent) /
                              static_cast<double>(claims),
            "ratio");
    out.set("data.shards", static_cast<double>(shards), "count");
    out.set("data.shard_imbalance",
            mean_shard > 0.0 ? static_cast<double>(max_shard_claims) / mean_shard
                             : 0.0,
            "ratio");
    out.set("core.em_s", em, "s");
    out.set("core.em_iters", static_cast<double>(iterations), "count");
    out.set("core.em_ms_per_iter",
            iterations == 0 ? 0.0 : em * 1e3 / static_cast<double>(iterations),
            "ms");
    out.set("core.unconverged", static_cast<double>(unconverged), "count");
    out.set("core.em_serial_s", serial, "s");
    out.set("util.parallel_efficiency",
            em > 0.0 ? serial / (threads * em) : 0.0, "ratio");
    out.set("apollo.rank_ms", tracer.total("apollo.rank") * 1e3, "ms");
    out.set("trace.remainder_s", tracer.self_total("scale.fit"), "s");
  }

 private:
  struct Image {
    std::string path;
    ScaleStats stats;
  };

  // Per-image figures of the last pass.
  struct FitStats {
    std::size_t iterations = 0;  // E-steps, warm-up included
    bool converged = true;
    std::size_t shards = 0;
    std::size_t max_shard_claims = 0;
    std::size_t dependent_claims = 0;
  };

  static void record_shape(const ShardedDataset& sharded, FitStats& f) {
    f.shards = sharded.shard_count();
    f.max_shard_claims = 0;
    f.dependent_claims = 0;
    for (std::size_t s = 0; s < f.shards; ++s) {
      const DatasetShard& shard = sharded.shard(s);
      f.max_shard_claims = std::max(f.max_shard_claims, shard.claim_count());
      for (std::size_t c = 0; c < shard.assertion_ids().size(); ++c) {
        for (char dependent : shard.claimant_dependent(c)) {
          f.dependent_claims += dependent != 0;
        }
      }
    }
  }

  // The same fit on a 1-worker pool, for the parallel efficiency. The
  // engine promises results independent of the pool size.
  void rerun_serial(const ShardedDataset& sharded, Tracer& tracer,
                    std::size_t k, const EmExtResult& parallel,
                    OpCheck& check) {
    ThreadPool serial_pool(1);
    EmExtConfig config = em_config_;
    config.pool = &serial_pool;
    EmExtResult fit = [&] {
      Span span(tracer, "core.em_serial", k);
      return ShardedEmEstimator(config).run_detailed(sharded, options_.seed);
    }();
    check.require(fit.estimate.belief == parallel.estimate.belief,
                  "1-worker fit differs from the parallel fit");
  }

  const Options& options_;
  ThreadPool& pool_;
  ScaleKnobs knobs_;
  EmExtConfig em_config_;
  std::vector<Image> images_;
  std::vector<FitStats> fits_;  // per image, from its last fit
  std::size_t next_image_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_scale_workload(const Options& options,
                                              ThreadPool& pool) {
  return std::make_unique<ScaleWorkload>(options, pool);
}

}  // namespace perfbench
