// Checker C — determinism audit for parallel reductions
// (docs/MODEL.md §15).
//
// Every PR since PR 1 is gated on bit-identical results at any thread
// count; the invariant that makes that possible is that floating-point
// accumulation order never depends on scheduling. Inside a lambda
// passed to parallel_for / parallel_for_chunks / kernels::for_each_chunk,
// that means:
//
//   * no `+=` / `-=` on a floating-point lvalue captured by reference
//     (each worker's additions would interleave non-deterministically;
//     write per-chunk partials into owned slots and reduce through the
//     fixed-shape tree primitives instead),
//   * no unordered accumulation helpers (std::accumulate, std::reduce,
//     std::transform_reduce, std::inner_product) — reductions go
//     through kernels::tree_reduce / tree_sum or the canonical serial
//     epilogues.
//
// Sanctioned escapes: the bodies of tree_reduce (its partials combine
// in a fixed order by construction) and src/math/ kernels (the
// sanctioned home for accumulation loops; their call sites are ordered
// by the engine).
//
// Additionally, a file that already calls the tree primitives
// (tree_sum / tree_reduce) must not carry hand-rolled single-statement
// serial float folds (`for (double v : xs) acc += v`) at top level: the
// fold's left-to-right shape diverges from the fixed tree shape the
// rest of the file commits to, so the same data reduced both ways can
// disagree bit-for-bit.
//
// Like the throw-in-parallel line rule, the tracking is lexical: the
// brace extent that follows a dispatch call is the worker body.
// Float-ness of an lvalue is resolved against the declarations visible
// in the same file; an accumulator declared *inside* the region is
// thread-private and fine.
#pragma once

#include <vector>

#include "analyze/analysis.h"

namespace analyze {

class DeterminismChecker {
 public:
  void scan_file(const SourceFile& file,
                 std::vector<scan::Diagnostic>* sink) const;
};

}  // namespace analyze
