// Million-source scale harness (docs/MODEL.md §14, §16).
//
// Sweeps the streaming generator from 10^4 to 10^6 sources and, per
// point, measures the whole scale path:
//   generate        stream the community cascade into an .ssd file
//   open            mmap + header validation (SsdView::open)
//   open-reps       repeated map+validate for the noise-robust open cost
//   jsonl-baseline  the text-baseline parse the binary format replaces
//   shard           connected-component partition straight off the view
//   em              EM-Ext on the shards (LPT work stealing + tree
//                   reductions)
// recording wall time per phase, the min-of-reps EM time, the shard
// count/size histogram, and peak RSS after each point. Results land in
// bench_results/scale.json (BENCH_PR10.json keeps the earlier A/B
// against the pre-LPT execution path).
//
// SS_PERF_CHECK=1 runs one mid-size point as a correctness gate, no
// timing tables: .ssd open must beat the JSONL parse by >= 50x, the EM
// hash through the Dataset entry (EmExtEstimator, which shards the
// materialized dataset itself) must equal the hash on the .ssd shard
// layout (ShardedEmEstimator) bit for bit *and* stay identical across
// 1-worker and 8-worker pools, under every kernel backend the host
// supports, the LPT work-stealing scheduler must beat fixed-grain
// dispatch on a synthetic skewed workload (skipped with a printed
// reason on hosts with < 2 online CPUs, where there is no parallelism
// to schedule), and when SS_RSS_BUDGET_MB is set, peak RSS must stay
// under it.
// `ctest -L scale-smoke` runs this with SS_FAST=1 (10^4 sources).
//
// Knobs: SS_FAST=1 shrinks the sweep, SS_THREADS sizes the pool,
// SS_REPS overrides the per-point EM repetitions, SS_RESULTS_DIR moves
// the JSON, SS_RSS_BUDGET_MB arms the RSS gate, SS_AFFINITY pins
// workers (recorded in the result metadata).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/em_ext.h"
#include "core/sharded_em.h"
#include "data/io.h"
#include "data/shard.h"
#include "data/ssd.h"
#include "math/simd/dispatch.h"
#include "simgen/scale_gen.h"
#include "util/cpu.h"
#include "util/env.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace ss;

constexpr std::uint64_t kSeed = 2016;

ScaleKnobs knobs_for(std::size_t sources) {
  ScaleKnobs knobs;
  knobs.sources = sources;
  knobs.assertions = std::max<std::size_t>(200, sources / 10);
  knobs.community_lo = 64;
  knobs.community_hi = 256;
  knobs.name = "scale-" + std::to_string(sources);
  return knobs;
}

std::uint64_t hash_estimate(const EmExtResult& r) {
  // FNV-1a over the raw IEEE-754 bytes, same recipe as the golden
  // suites: a bit-exact witness of the whole result.
  std::uint64_t h = 1469598103934665603ull;
  auto fold = [&h](const void* p, std::size_t len) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  auto fold_vec = [&](const std::vector<double>& v) {
    for (double x : v) fold(&x, sizeof(x));
  };
  fold_vec(r.estimate.belief);
  fold_vec(r.estimate.log_odds);
  fold_vec(r.likelihood_trace);
  fold(&r.log_likelihood, sizeof(double));
  return h;
}

// ---------------------------------------------------------------------
// Sweep
// ---------------------------------------------------------------------

struct PointResult {
  std::size_t sources = 0;
  ScaleStats gen;
  bench::SectionTimer phases;
  double open_ms = 0.0;
  double jsonl_s = 0.0;
  std::size_t shards = 0;
  std::size_t shard_min = 0;
  std::size_t shard_max = 0;
  std::size_t em_iterations = 0;
  double em_s = 0.0;  // min of reps
  int em_reps = 0;
  double peak_rss_mb = 0.0;
};

PointResult run_point(std::size_t sources, const std::string& dir,
                      bool with_jsonl) {
  PointResult out;
  out.sources = sources;
  ScaleKnobs knobs = knobs_for(sources);
  std::string ssd_path = dir + "/" + knobs.name + ".ssd";

  out.phases.section("generate");
  out.gen = generate_scale_ssd(knobs, kSeed, ssd_path);

  out.phases.section("open");
  SsdView view = SsdView::open_or_throw(ssd_path);

  // Noise-robust open cost: repeated map + validate. Its wall time is
  // its own phase (PR 8 lumped it — and the JSONL baseline — into a
  // phantom "idle" phase).
  out.phases.section("open-reps");
  out.open_ms = bench::min_wall_ms(5, [&] {
    SsdView again = SsdView::open_or_throw(ssd_path);
    if (again.claim_count() != view.claim_count()) std::abort();
  });

  if (with_jsonl) {
    out.phases.section("jsonl-baseline");
    std::string jsonl_path = dir + "/" + knobs.name + ".jsonl";
    {
      Dataset d = view.materialize();
      save_dataset_jsonl(d, jsonl_path);
    }
    WallTimer timer;
    Dataset parsed = load_dataset_jsonl(jsonl_path);
    out.jsonl_s = timer.seconds();
    if (parsed.claims.claim_count() != view.claim_count()) std::abort();
    std::filesystem::remove(jsonl_path);
  }

  out.phases.section("shard");
  ShardConfig shard_config;
  shard_config.pool = &global_pool();  // first-touch CSR fill (§16)
  ShardedDataset sharded = ShardedDataset::build(view, shard_config);
  out.shards = sharded.shard_count();
  out.shard_min = sharded.assertion_count();
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    std::size_t m = sharded.shard(s).assertion_ids().size();
    out.shard_min = std::min(out.shard_min, m);
    out.shard_max = std::max(out.shard_max, m);
  }

  EmExtConfig config;
  config.max_iters = 30;  // fixed work per point, convergence untested

  out.em_reps = static_cast<int>(env_int(
      "SS_REPS", sources >= 1'000'000 ? 2 : 3));
  out.em_reps = std::max(out.em_reps, 1);

  out.phases.section("em");
  for (int rep = 0; rep < out.em_reps; ++rep) {
    WallTimer timer;
    EmExtResult r = ShardedEmEstimator(config).run_detailed(sharded, 1);
    double s = timer.seconds();
    if (rep == 0 || s < out.em_s) out.em_s = s;
    out.em_iterations = r.likelihood_trace.size();
  }
  out.phases.finish();

  out.peak_rss_mb = bench::peak_rss_mb();
  std::filesystem::remove(ssd_path);
  return out;
}

// ---------------------------------------------------------------------
// SS_PERF_CHECK gates
// ---------------------------------------------------------------------

// Gate: the LPT work-stealing scheduler beats fixed-grain in-order
// dispatch on a skewed workload (one task carrying as much work as all
// the others combined, placed *last* so in-order dispatch starts it
// last). Pure scheduling micro-benchmark: the task bodies spin on
// arithmetic, no shared data. Returns 0 on pass or skip, 1 on failure.
int run_scheduler_gate() {
  ThreadPool& pool = global_pool();
  std::size_t online = online_cpu_count();
  if (online < 2) {
    std::printf("skip: scheduler perf gate needs >= 2 online CPUs "
                "(host has %zu; stealing cannot beat anything on a "
                "serial machine)\n",
                online);
    return 0;
  }
  if (pool.size() < 1) {
    std::printf("skip: scheduler perf gate needs pool workers "
                "(SS_THREADS=1 gives a caller-only pool)\n");
    return 0;
  }

  constexpr std::size_t kTasks = 32;
  std::vector<double> weights(kTasks, 1.0);
  weights[kTasks - 1] = static_cast<double>(kTasks);
  auto spin = [](double weight) {
    // ~0.2 ms per unit weight of pure arithmetic.
    volatile double acc = 1.0;
    long iters = static_cast<long>(weight * 40000.0);
    for (long i = 0; i < iters; ++i) {
      acc = acc * 1.0000001 + 1e-9;
    }
  };

  double fixed_ms = bench::min_wall_ms(3, [&] {
    pool.parallel_for_chunks(
        kTasks, 1, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t t = begin; t < end; ++t) spin(weights[t]);
        });
  });
  double lpt_ms = bench::min_wall_ms(3, [&] {
    pool.parallel_tasks(weights,
                        [&](std::size_t t) { spin(weights[t]); });
  });
  if (lpt_ms >= fixed_ms) {
    std::printf("FAIL: LPT work stealing (%.2f ms) not faster than "
                "fixed-grain dispatch (%.2f ms) on the skewed "
                "workload\n",
                lpt_ms, fixed_ms);
    return 1;
  }
  std::printf("scheduler gate: LPT %.2f ms vs fixed-grain %.2f ms "
              "(%.2fx)\n",
              lpt_ms, fixed_ms, fixed_ms / lpt_ms);
  return 0;
}

int run_check() {
  bool fast = env_flag("SS_FAST", false);
  std::size_t sources = fast ? 10'000 : 100'000;
  std::string dir =
      (std::filesystem::temp_directory_path() / "ss_bench_scale")
          .string();
  std::filesystem::create_directories(dir);

  ScaleKnobs knobs = knobs_for(sources);
  std::string ssd_path = dir + "/" + knobs.name + ".ssd";
  std::string jsonl_path = dir + "/" + knobs.name + ".jsonl";
  ScaleStats gen = generate_scale_ssd(knobs, kSeed, ssd_path);
  SsdView view = SsdView::open_or_throw(ssd_path);
  Dataset d = view.materialize();
  save_dataset_jsonl(d, jsonl_path);

  // Gate 1: mmap open beats the text parse by >= 50x.
  double open_ms = bench::min_wall_ms(5, [&] {
    SsdView again = SsdView::open_or_throw(ssd_path);
    if (again.claim_count() != view.claim_count()) std::abort();
  });
  WallTimer timer;
  Dataset parsed = load_dataset_jsonl(jsonl_path);
  double jsonl_ms = timer.millis();
  if (parsed.claims.claim_count() != view.claim_count()) {
    std::printf("FAIL: JSONL round-trip lost claims\n");
    return 1;
  }
  double speedup = jsonl_ms / open_ms;
  if (speedup < 50.0) {
    std::printf("FAIL: .ssd open only %.1fx faster than JSONL "
                "(%.3f ms vs %.1f ms), need >= 50x\n",
                speedup, open_ms, jsonl_ms);
    return 1;
  }

  // Gate 2: Dataset entry == .ssd shard layout. EmExtEstimator shards
  // the materialized dataset itself; its hash must equal
  // ShardedEmEstimator's on the shards built straight off the view, and
  // stay invariant across pool sizes — the tree-reduction + LPT
  // determinism contract (§16) checked at 1 and 8 workers, under every
  // kernel backend the host supports.
  ShardConfig shard_config;
  shard_config.pool = &global_pool();
  ShardedDataset sharded = ShardedDataset::build(view, shard_config);
  sharded.check();
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::avx2_runtime_supported()) {
    backends.push_back(simd::Backend::kAvx2);
  }
  simd::Backend previous = simd::active_backend();
  bool identical = true;
  for (simd::Backend backend : backends) {
    simd::force_backend(backend);
    EmExtConfig config;
    config.max_iters = 10;
    std::uint64_t dataset_hash =
        hash_estimate(EmExtEstimator(config).run_detailed(d, 1));
    std::uint64_t view_hash =
        hash_estimate(ShardedEmEstimator(config).run_detailed(sharded, 1));
    ThreadPool pool1(1);
    ThreadPool pool8(8);
    config.pool = &pool1;
    std::uint64_t hash_t1 =
        hash_estimate(ShardedEmEstimator(config).run_detailed(sharded, 1));
    config.pool = &pool8;
    std::uint64_t hash_t8 =
        hash_estimate(ShardedEmEstimator(config).run_detailed(sharded, 1));
    const char* name = simd::backend_name(backend);
    if (dataset_hash != view_hash) {
      std::printf("FAIL [%s]: EM through the Dataset entry diverges from "
                  "the .ssd shard layout (%016llx vs %016llx)\n",
                  name, static_cast<unsigned long long>(dataset_hash),
                  static_cast<unsigned long long>(view_hash));
      identical = false;
      break;
    }
    if (hash_t1 != view_hash || hash_t8 != view_hash) {
      std::printf("FAIL [%s]: EM hash depends on the pool size "
                  "(default %016llx, 1 worker %016llx, 8 workers "
                  "%016llx)\n",
                  name, static_cast<unsigned long long>(view_hash),
                  static_cast<unsigned long long>(hash_t1),
                  static_cast<unsigned long long>(hash_t8));
      identical = false;
      break;
    }
  }
  simd::force_backend(previous);
  if (!identical) return 1;

  // Gate 3: LPT work stealing beats fixed-grain dispatch (skips on
  // single-CPU hosts, printing why).
  if (run_scheduler_gate() != 0) return 1;

  // Gate 4 (armed by SS_RSS_BUDGET_MB): peak RSS stays under budget.
  double rss_mb = bench::peak_rss_mb();
  double budget = static_cast<double>(env_int("SS_RSS_BUDGET_MB", 0));
  if (budget > 0.0 && rss_mb > budget) {
    std::printf("FAIL: peak RSS %.1f MB over the %.0f MB budget\n",
                rss_mb, budget);
    return 1;
  }

  std::filesystem::remove(ssd_path);
  std::filesystem::remove(jsonl_path);
  std::printf("check ok: %zu sources, %zu shards, open %.3f ms vs "
              "jsonl %.1f ms (%.0fx), EM bit-identical "
              "(Dataset entry == .ssd shard layout == 1-worker == "
              "8-worker, %zu backend%s), peak RSS %.1f MB%s\n",
              gen.ssd.sources, sharded.shard_count(), open_ms, jsonl_ms,
              speedup, backends.size(), backends.size() == 1 ? "" : "s",
              rss_mb,
              budget > 0.0 ? strprintf(" (budget %.0f)", budget).c_str()
                           : "");
  return 0;
}

const char* affinity_name() {
  switch (affinity_mode()) {
    case AffinityMode::kCompact:
      return "compact";
    case AffinityMode::kSpread:
      return "spread";
    case AffinityMode::kNone:
      break;
  }
  return "none";
}

}  // namespace

int main() {
  if (env_flag("SS_PERF_CHECK", false)) return run_check();

  bench::banner("bench_scale: 10^4 -> 10^6 source scale path",
                "docs/MODEL.md §14, §16 (sharded engine + .ssd format)");
  bool fast = env_flag("SS_FAST", false);
  std::vector<std::size_t> axis =
      fast ? std::vector<std::size_t>{10'000, 30'000}
           : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  std::string dir =
      (std::filesystem::temp_directory_path() / "ss_bench_scale")
          .string();
  std::filesystem::create_directories(dir);

  TablePrinter table({"sources", "claims", "file MB", "gen s", "open ms",
                      "jsonl s", "shards", "shard m", "em s",
                      "peak RSS MB"});
  JsonValue points = JsonValue::array();
  for (std::size_t sources : axis) {
    // The JSONL baseline materializes the dataset; cap it at 10^5 so
    // the 10^6 point exercises the pure streaming path.
    bool with_jsonl = sources <= 100'000;
    PointResult p = run_point(sources, dir, with_jsonl);
    double file_mb =
        static_cast<double>(p.gen.ssd.bytes) / (1024.0 * 1024.0);
    table.add_row(
        {std::to_string(p.sources), std::to_string(p.gen.ssd.claims),
         strprintf("%.1f", file_mb),
         strprintf("%.2f", p.phases.seconds("generate")),
         strprintf("%.3f", p.open_ms),
         with_jsonl ? strprintf("%.2f", p.jsonl_s) : "-",
         std::to_string(p.shards),
         strprintf("%zu..%zu", p.shard_min, p.shard_max),
         strprintf("%.2f", p.em_s),
         strprintf("%.1f", p.peak_rss_mb)});

    JsonValue point = JsonValue::object();
    point["sources"] = static_cast<double>(p.sources);
    point["assertions"] = static_cast<double>(p.gen.ssd.assertions);
    point["claims"] = static_cast<double>(p.gen.ssd.claims);
    point["exposed"] = static_cast<double>(p.gen.ssd.exposed);
    point["communities"] = static_cast<double>(p.gen.communities);
    point["file_mb"] = file_mb;
    point["phases"] = p.phases.to_json();
    point["open_ms"] = p.open_ms;
    if (with_jsonl) {
      point["jsonl_load_s"] = p.jsonl_s;
      point["open_speedup_vs_jsonl"] =
          p.jsonl_s * 1000.0 / std::max(p.open_ms, 1e-9);
    }
    point["shards"] = static_cast<double>(p.shards);
    point["shard_assertions_min"] = static_cast<double>(p.shard_min);
    point["shard_assertions_max"] = static_cast<double>(p.shard_max);
    point["em_iterations"] = static_cast<double>(p.em_iterations);
    point["em_reps"] = static_cast<double>(p.em_reps);
    point["em_s_min"] = p.em_s;
    point["peak_rss_mb"] = p.peak_rss_mb;
    points.push_back(point);
  }
  table.print();

  JsonValue doc = JsonValue::object();
  doc["experiment"] = "scale";
  doc["seed"] = static_cast<double>(kSeed);
  doc["threads"] = static_cast<double>(global_pool().size() + 1);
  doc["online_cpus"] = static_cast<double>(online_cpu_count());
  doc["affinity"] = affinity_name();
  doc["points"] = points;
  bench::write_result("scale", doc);
  std::printf("wrote %s/scale.json\n",
              bench::results_dir().c_str());
  return 0;
}
