// Figure 6: bound computation time — exact enumeration explodes
// exponentially in n while the Gibbs approximation stays flat.
// Implemented with google-benchmark so the timings carry proper
// statistical treatment; the paper's qualitative claim is the crossover.
#include <benchmark/benchmark.h>

#include "bounds/dataset_bound.h"
#include "simgen/parametric_gen.h"

namespace {

using namespace ss;

SimInstance make_instance(std::size_t n) {
  Rng rng(60 + n);
  SimKnobs knobs = SimKnobs::paper_defaults(n, 50);
  return generate_parametric(knobs, rng);
}

void BM_ExactBound(benchmark::State& state) {
  SimInstance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto bound = exact_dataset_bound(inst.dataset, inst.true_params);
    benchmark::DoNotOptimize(bound);
  }
}

void BM_GibbsBound(benchmark::State& state) {
  SimInstance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  GibbsBoundConfig config;
  config.min_sweeps = 1000;
  config.max_sweeps = 1000;  // fixed sample budget: flat cost by design
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto bound =
        gibbs_dataset_bound(inst.dataset, inst.true_params, seed, config);
    benchmark::DoNotOptimize(bound);
  }
}

}  // namespace

// Exact: the meet-in-the-middle enumeration costs ~2^(n/2) per
// pattern, so the paper's whole n = 5..30 range runs in seconds.
BENCHMARK(BM_ExactBound)
    ->Arg(5)
    ->Arg(10)
    ->Arg(15)
    ->Arg(20)
    ->Arg(25)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GibbsBound)
    ->Arg(5)
    ->Arg(10)
    ->Arg(15)
    ->Arg(20)
    ->Arg(25)
    ->Arg(50)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  std::printf("==============================================\n");
  std::printf("Figure 6 — bound computation time, exact vs approx\n");
  std::printf("reproduces: ICDCS'16 Fig. 6 (exact is exponential in n;\n");
  std::printf("approximate stays flat).\n");
  std::printf("==============================================\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
