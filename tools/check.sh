#!/usr/bin/env bash
# Static-analysis gate: one entry point for all three legs
# (docs/MODEL.md §11, §15).
#
#   leg 1  ss_analyze       the source analyzer over src/ — the ten
#                           line rules plus the layer DAG
#                           (tools/analyze/layers.conf), must-use error
#                           contracts, determinism audit, hot-loop allocs
#   leg 2  -Wthread-safety  clang lock-discipline build (SS_THREAD_SAFETY)
#   leg 3  clang-tidy       curated .clang-tidy over compile_commands.json
#
# Usage: tools/check.sh [--json] [build-dir]     (default: ./build)
#
# With --json, ss_analyze prints one JSON object ({"files_scanned":N,
# "diagnostics":[...]}) on stdout and the notes go to stderr; legs 2
# and 3 still run, and their pass/fail folds into the exit code.
#
# Exit 0 only when every *runnable* leg passes. Legs that need tools the
# host lacks (clang, clang-tidy) are reported as SKIP — the CI analysis
# job installs both, so a skip can only happen on a dev box.
set -u

JSON=0
if [ "${1:-}" = "--json" ]; then
  JSON=1
  shift
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
FAIL=0

if [ "$JSON" -eq 1 ]; then
  note() { printf '== %s\n' "$*" >&2; }
else
  note() { printf '== %s\n' "$*"; }
fi

# --- leg 1: ss_analyze -----------------------------------------------
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  note "configuring $BUILD"
  cmake -S "$ROOT" -B "$BUILD" >/dev/null || exit 2
fi
note "building ss_analyze"
cmake --build "$BUILD" --target ss_analyze -j >/dev/null || exit 2

ANALYZE_ARGS=(--config "$ROOT/tools/analyze/layers.conf" "$ROOT/src")
if [ "$JSON" -eq 1 ]; then
  ANALYZE_ARGS=(--json "${ANALYZE_ARGS[@]}")
fi
note "leg 1/3: ss_analyze over src/ (line rules, layer DAG, semantic checks)"
if "$BUILD/tools/ss_analyze" "${ANALYZE_ARGS[@]}"; then
  note "ss_analyze: PASS"
else
  note "ss_analyze: FAIL"
  FAIL=1
fi

# --- leg 2: clang thread-safety analysis ------------------------------
note "leg 2/3: clang -Wthread-safety (SS_THREAD_SAFETY=ON)"
CLANGXX="$(command -v clang++ || true)"
if [ -n "$CLANGXX" ]; then
  TSA_BUILD="$BUILD-threadsafety"
  if cmake -S "$ROOT" -B "$TSA_BUILD" \
        -DCMAKE_CXX_COMPILER="$CLANGXX" \
        -DSS_THREAD_SAFETY=ON >/dev/null &&
     cmake --build "$TSA_BUILD" --target ss_util -j >/dev/null; then
    note "thread-safety: PASS"
  else
    note "thread-safety: FAIL"
    FAIL=1
  fi
else
  note "thread-safety: SKIP (clang++ not found; CI runs this leg)"
fi

# --- leg 3: clang-tidy ------------------------------------------------
note "leg 3/3: clang-tidy (.clang-tidy over compile_commands.json)"
if command -v clang-tidy >/dev/null; then
  if [ ! -f "$BUILD/compile_commands.json" ]; then
    note "clang-tidy: FAIL (no compile_commands.json in $BUILD)"
    FAIL=1
  else
    # Library sources only: bench/ and examples/ are exempt by project
    # policy, tests live outside the rule set too.
    if find "$ROOT/src" -name '*.cpp' -print0 |
        xargs -0 clang-tidy -p "$BUILD" -quiet \
            -warnings-as-errors='*'; then
      note "clang-tidy: PASS"
    else
      note "clang-tidy: FAIL"
      FAIL=1
    fi
  fi
else
  note "clang-tidy: SKIP (not installed; CI runs this leg)"
fi

if [ "$FAIL" -eq 0 ]; then
  note "analysis gate: PASS"
else
  note "analysis gate: FAIL"
fi
exit "$FAIL"
