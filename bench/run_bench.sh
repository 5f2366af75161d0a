#!/usr/bin/env sh
# Entry point for the kernel perf harness.
#
# Builds (if needed) and runs bench_perf_scaling, which
#   1. asserts the scalar and AVX2 backends agree under the ULP
#      contract, then
#   2. times scalar vs AVX2 backend legs (BENCH_PR6.json) under
#      <SS_RESULTS_DIR|bench_results>/, plus the existing
#      perf_scaling.json / ingestion_robustness.json records.
# Scalar bit-identity with the pre-kernel engine is a test, not a
# bench leg: the KernelGolden.* hashes in tests/test_kernels.cpp.
#
# Usage:
#   bench/run_bench.sh                   # full timed run
#   bench/run_bench.sh --backend=scalar  # pin the kernel backend
#   bench/run_bench.sh --backend avx2    #   (exports SS_KERNEL_BACKEND)
#   SS_FAST=1 bench/run_bench.sh         # reduced reps
#   SS_PERF_CHECK=1 bench/run_bench.sh   # agreement checks only, no timing
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${SS_BUILD_DIR:-"$repo_root/build"}

# --backend=<auto|scalar|avx2> (or "--backend <value>") is sugar for
# SS_KERNEL_BACKEND; everything else passes through to the binary.
passthrough=""
while [ $# -gt 0 ]; do
  case "$1" in
    --backend=*)
      SS_KERNEL_BACKEND=${1#--backend=}
      export SS_KERNEL_BACKEND
      ;;
    --backend)
      if [ $# -lt 2 ]; then
        echo "run_bench.sh: --backend requires a value (auto|scalar|avx2)" >&2
        exit 2
      fi
      shift
      SS_KERNEL_BACKEND=$1
      export SS_KERNEL_BACKEND
      ;;
    *)
      passthrough="$passthrough $1"
      ;;
  esac
  shift
done

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake -B "$build_dir" -S "$repo_root"
fi
cmake --build "$build_dir" -j --target bench_perf_scaling

# Results land relative to the CWD unless SS_RESULTS_DIR is absolute;
# run from the repo root so bench_results/ is predictable.
cd "$repo_root"
# shellcheck disable=SC2086 — word splitting of passthrough is intended.
exec "$build_dir/bench/bench_perf_scaling" $passthrough
