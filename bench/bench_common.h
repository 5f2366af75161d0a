// Shared plumbing for the reproduction benches.
//
// Every bench binary prints the paper rows/series it regenerates as an
// aligned table and appends a machine-readable JSON record under
// SS_RESULTS_DIR (default: ./bench_results) for EXPERIMENTS.md curation.
// Environment knobs: SS_REPS (repetitions per point), SS_FAST=1 (reduced
// sweep for smoke runs), SS_THREADS, SS_RESULTS_DIR.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>

#include "eval/json.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "util/env.h"
#include "util/string_util.h"

namespace ss::bench {

inline std::string results_dir() {
  return env_string("SS_RESULTS_DIR", "bench_results");
}

// Provenance block stamped into every record write_result emits: CPU
// model + feature flags, compiler, and the active kernel backend
// (docs/MODEL.md §12). Timings are meaningless without the host and
// backend they were taken on, so the stamp is automatic, not opt-in.
JsonValue host_metadata();

// Writes `doc` as <results_dir>/<name>.json, creating the directory.
// A "host" metadata block is added (unless the doc already carries
// one, so callers can override when replaying foreign results).
void write_result(const std::string& name, const JsonValue& doc);

// Formats "mean +- ci" cells.
inline std::string mean_ci(const StreamingStats& s, int precision = 4) {
  return strprintf("%.*f +-%.*f", precision, s.mean(), precision,
                   s.ci95_halfwidth());
}

// Standard header line naming the experiment and its provenance.
inline void banner(const std::string& experiment,
                   const std::string& paper_ref) {
  std::printf("==============================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================\n");
}

}  // namespace ss::bench
