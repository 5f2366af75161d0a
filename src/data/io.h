// Dataset persistence.
//
// A dataset serializes to a directory of three CSV files:
//   claims.csv    source,assertion,time
//   exposure.csv  source,assertion          (cells with D_ij == 1)
//   truth.csv     assertion,label           (True|False|Opinion|Unknown)
// plus meta.csv carrying name and matrix dimensions. The format is
// intentionally line-oriented and diff-able so collected or generated
// datasets can be inspected and versioned.
//
// Loading is fault-tolerant (util/status.h): every data row is
// validated individually — field count, numeric parses, source and
// assertion indices against the meta.csv dimensions, timestamp
// finiteness, label vocabulary. IngestMode decides what a defective
// row does: kStrict throws with file:line and taxonomy code (the
// legacy behaviour, and the default), kPermissive skips and counts it,
// kRepair additionally fixes rows with an unambiguous repair
// (non-finite time -> 0, unknown label -> Unknown). meta.csv defects
// are fatal in every mode — without dimensions nothing can be
// validated.
#pragma once

#include <string>

#include "data/dataset.h"
#include "util/status.h"

namespace ss {

// Writes the dataset; creates the directory if needed. Throws
// std::runtime_error on IO failure.
void save_dataset(const Dataset& dataset, const std::string& directory);

// Reads a dataset written by save_dataset. Throws std::runtime_error on
// missing files or parse errors (strict mode).
Dataset load_dataset(const std::string& directory);

// Mode-aware load. Per-row accounting lands in `report` when non-null
// (the report is also filled on the throwing paths). In permissive and
// repair modes only unusable *rows* are dropped; IO-level failures
// (missing directory, unreadable meta.csv) still throw.
Dataset load_dataset(const std::string& directory,
                     const IngestOptions& options,
                     IngestReport* report = nullptr);

// Non-throwing variant: IO-level and strict-mode failures come back as
// a classified Error instead of an exception.
[[nodiscard]] Expected<Dataset> try_load_dataset(const std::string& directory,
                                   const IngestOptions& options = {},
                                   IngestReport* report = nullptr);

// Single-file JSONL dataset stream: line 1 is a meta record, then one
// flat object per claim / exposure cell / truth label,
//   {"meta":{"name":"...","sources":N,"assertions":M}}
//   {"claim":[source,assertion,time]}
//   {"exposure":[source,assertion]}
//   {"truth":[assertion,"True"]}
// Times use %.17g so values round-trip exactly (unlike the diff-able
// CSV directory, which trades precision for readability). This is the
// interchange format ss_pack converts to .ssd — and the text baseline
// the scale gate (tests/test_scale_smoke.cpp) holds the binary
// format's open to >= 50x faster than.
void save_dataset_jsonl(const Dataset& dataset, const std::string& path);

// Strict load: throws TaxonomyError with file:line and taxonomy code
// on the first defective line (kIoError for an unreadable file).
Dataset load_dataset_jsonl(const std::string& path);

}  // namespace ss
