// Benchmark binary: builds one workload's inputs from a seed, runs its
// operations in a closed loop for a fixed time and prints every metric.
//
//   perfbench --workload tweets|scale|live|bounds --seed N --seconds S
//             --trace 0|1 [--toy] [--plant-nonfinite]
//             [--data-dir DIR] [--trace-out FILE]
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// one untraced and one traced round and reports the per-layer metrics and
// the tracing overhead. Lines starting with '#' describe the host and the
// inputs; `metric` lines give each figure by name; the last line is one
// JSON object with every figure measured.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "math/simd/dispatch.h"
#include "util/cpu.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Setup is repeated so setup_s is a median: at least this many times, and
// until this much setup time has accumulated (bounded by kMaxSetups).
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;
constexpr int kMaxSetups = 200;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tweets|scale|live|bounds --seed N --seconds S --trace 0|1 "
               "[--toy] [--plant-nonfinite] [--data-dir DIR] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (arg == "--toy") {
        o.toy = true;
      } else if (arg == "--plant-nonfinite") {
        o.plant_nonfinite = true;
      } else if (arg == "--data-dir") {
        o.data_dir = value();
      } else if (arg == "--trace-out") {
        o.trace_out = value();
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// CPUs this process may run on (what `nproc` prints).
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Peak RSS of this process image. VmHWM starts afresh at exec, unlike
// getrusage's ru_maxrss, which keeps the forking parent's peak.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr &&
         std::sscanf(line, "VmHWM: %lf kB", &kib) != 1) {
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::unique_ptr<Workload> make_workload(const Options& o, ss::ThreadPool& pool) {
  if (o.workload == "tweets") return make_tweets_workload(o, pool);
  if (o.workload == "scale") return make_scale_workload(o, pool);
  if (o.workload == "live") return make_live_workload(o, pool);
  if (o.workload == "bounds") return make_bounds_workload(o);
  usage(("unknown workload " + o.workload).c_str());
}

void print_metric(const std::string& name, double value,
                  const std::string& unit) {
  std::printf("metric %-28s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void print_result(bool correct, const Ledger& ledger, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", ledger.attempted(), ledger.failed());
  const char* sep = "";
  for (const auto& [name, entry] : metrics.entries()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), entry.first, entry.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int run(const Options& options) {
  // A pool of nproc - 1 workers plus the participating caller keeps the
  // busy threads at nproc. The library's own default pool is sized from
  // SS_THREADS, so every engine shares this one pool.
  std::size_t cpus = usable_cpus();
  std::size_t workers = cpus > 1 ? cpus - 1 : 1;
  setenv("SS_THREADS", std::to_string(workers).c_str(), 1);
  ss::ThreadPool& pool = ss::global_pool();
  std::unique_ptr<Workload> workload = make_workload(options, pool);

  std::vector<double> setups;
  std::uint64_t digest = 0;
  bool inputs_repeat = true;
  double setup_total = 0.0;
  int wanted = options.trace ? 1 : kMinSetups;
  while (static_cast<int>(setups.size()) < wanted ||
         (!options.trace && setup_total < kMinSetupSeconds &&
          static_cast<int>(setups.size()) < kMaxSetups)) {
    Clock::time_point t0 = Clock::now();
    workload->setup();
    double seconds = seconds_between(t0, Clock::now());
    setups.push_back(seconds);
    setup_total += seconds;
    std::uint64_t d = workload->input_digest();
    if (setups.size() > 1 && d != digest) inputs_repeat = false;
    digest = d;
  }

  std::printf("# host cpu=\"%s\" nproc=%zu threads=%zu (%zu workers + caller) "
              "backend=%s compiler=\"%s\" build=%s\n",
              ss::cpu_model_name().c_str(), cpus, pool.size() + 1,
              pool.size(), ss::simd::active_backend_name(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  std::printf("# workload %s seed=%llu seconds=%g trace=%d toy=%d: %s\n",
              workload->name().c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.toy ? 1 : 0,
              workload->scale_description().c_str());
  std::printf("# inputs digest=%s (identical over %zu setups: %s)\n",
              hex64(digest).c_str(), setups.size(),
              inputs_repeat ? "yes" : "no");

  Ledger ledger;
  Metrics metrics;
  std::size_t round = workload->round_size();
  // Every pass must reproduce the outputs of the pass one round earlier
  // bit for bit, traced or not.
  std::vector<PassOutcome> passes;
  bool outputs_repeat = true;
  auto run_passes = [&](Tracer& tracer, double seconds) {
    std::size_t first = passes.size();
    Clock::time_point start = Clock::now();
    while (passes.size() < first + round ||
           seconds_between(start, Clock::now()) < seconds) {
      passes.push_back(workload->pass(tracer, ledger));
      std::size_t i = passes.size() - 1;
      if (i >= round && passes[i].output_hash != passes[i - round].output_hash) {
        outputs_repeat = false;
      }
    }
  };
  // Quality comes from one round: passes [first, first + round).
  auto quality = [&](std::size_t first, std::size_t& agree,
                     std::size_t& graded, std::size_t& top_true,
                     std::size_t& top_slots) {
    for (std::size_t i = first; i < first + round; ++i) {
      agree += passes[i].agree;
      graded += passes[i].graded;
      top_true += passes[i].top_true;
      top_slots += passes[i].top_slots;
    }
  };
  if (!options.trace) {
    Tracer off(false);
    run_passes(off, options.seconds);
    std::vector<double> pass_seconds, op_ms;
    Fnv1a outputs;
    Metrics counts;  // summed over the first round
    for (std::size_t i = 0; i < passes.size(); ++i) {
      pass_seconds.push_back(passes[i].seconds);
      op_ms.insert(op_ms.end(), passes[i].op_ms.begin(),
                   passes[i].op_ms.end());
      if (i >= round) continue;
      outputs.pod(passes[i].output_hash);
      for (const auto& [name, entry] : passes[i].extra.entries()) {
        counts.set(name, counts.get(name) + entry.first, entry.second);
      }
    }
    std::size_t agree = 0, graded = 0, top_true = 0, top_slots = 0;
    quality(0, agree, graded, top_true, top_slots);
    metrics.set("run_s", median(pass_seconds), "s");
    metrics.set("setup_s", median(setups), "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.set("accuracy", ratio(agree, graded), "ratio");
    metrics.set("top100_precision", ratio(top_true, top_slots), "ratio");
    metrics.set("failed_frac", ratio(ledger.failed(), ledger.attempted()),
                "ratio");
    std::string op = options.workload == "live" ? "refresh" : "op";
    metrics.set(op + "_p50_ms", quantile(op_ms, 0.5), "ms");
    metrics.set(op + "_p95_ms", quantile(op_ms, 0.95), "ms");
    for (const auto& [name, entry] : counts.entries()) {
      metrics.set(name, entry.first, entry.second);
    }
    std::printf("# passes=%zu operations=%zu outputs=%s (identical over "
                "repeats: %s)\n",
                passes.size(), op_ms.size(), hex64(outputs.value()).c_str(),
                outputs_repeat ? "yes" : "no");
    if (op_ms.size() <= 40) {
      std::printf("# op_ms");
      for (double ms : op_ms) std::printf(" %.1f", ms);
      std::printf("\n");
    }
  } else {
    // One untraced and one traced round over the same inputs.
    Tracer off(false);
    run_passes(off, 0.0);
    Tracer tracer(true);
    run_passes(tracer, 0.0);
    double untraced = 0.0, traced = 0.0;
    for (std::size_t i = 0; i < round; ++i) {
      untraced += passes[i].seconds;
      traced += passes[round + i].seconds;
    }
    std::size_t agree = 0, graded = 0, top_true = 0, top_slots = 0;
    quality(round, agree, graded, top_true, top_slots);
    workload->layer_metrics(tracer, metrics);
    metrics.set("apollo.top100_precision", ratio(top_true, top_slots),
                "ratio");
    metrics.set("trace.overhead", traced / untraced - 1.0, "ratio");
    metrics.set("trace.spans", static_cast<double>(tracer.records().size()),
                "count");
    if (!options.trace_out.empty() && !tracer.write_jsonl(options.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_out.c_str());
      return 1;
    }
    std::printf("# traced round %.6g s, untraced round %.6g s (outputs "
                "identical: %s)\n",
                traced, untraced, outputs_repeat ? "yes" : "no");
  }
  for (const std::string& why : ledger.reasons()) {
    std::printf("# failed: %s\n", why.c_str());
  }
  for (const auto& [name, entry] : metrics.entries()) {
    print_metric(name, entry.first, entry.second);
  }
  bool correct = ledger.failed() == 0 && inputs_repeat && outputs_repeat;
  print_result(correct, ledger, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options = perfbench::parse_options(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
