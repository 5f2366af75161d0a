// The line rules (docs/MODEL.md §11): invariants the engine's
// correctness rests on but the compiler cannot see, each judged on one
// source line.
//
//   raw-log-exp        (R1) no raw std::log/std::exp/std::log1p family
//                      calls outside src/math/ — probabilities go
//                      through math/logprob.h / math/kernels.h, which
//                      own clamping and the log-space conventions.
//   rng-engine         (R2) no std RNG engines or C rand()/srand()
//                      outside src/util/rng.* — everything draws from
//                      the splittable ss::Rng so parallel streams stay
//                      independent and runs stay reproducible.
//   direct-io          (R3) no std::cout/std::cerr/printf-family writes
//                      in library code — diagnostics go through
//                      util/log.h, product bytes through its
//                      write_stdout/write_stderr sinks (src/util/log.*
//                      is the one exempt home).
//   float-equality     (R4) no ==/!= against floating-point literals —
//                      the sanctioned exact compares use
//                      math::exactly_zero().
//   throw-in-parallel  (R5) no `throw` lexically inside a lambda passed
//                      to parallel_for / parallel_for_chunks /
//                      kernels::for_each_chunk / kernels::tree_reduce —
//                      a throwing chunk surfaces as the *call's*
//                      exception; workers report failure via
//                      Expected<T>/captured status instead.
//   banned-include     (R6) no <iostream> (static-init fiasco, heavy
//                      TU cost; the library formats via strprintf), no
//                      deprecated <strstream>, no C-compat headers
//                      (<stdio.h> et al — use the <c*> forms).
//   todo-owner         (R6) no TODO/FIXME/XXX without an owner:
//                      `TODO(name): ...`.
//   raw-intrinsics     (R7) no SIMD intrinsics headers (<immintrin.h>
//                      et al) or __m*/_mm* tokens outside
//                      src/math/simd/ — vector code lives behind the
//                      runtime-dispatched kernel API (math/kernels.h),
//                      so portable hosts and the scalar bit-identity
//                      contract are never at the mercy of a stray
//                      intrinsic in estimator code.
//   raw-clock          (R8) no wall-clock reads
//                      (std::chrono::*_clock, time(), gettimeofday,
//                      clock_gettime) outside src/util/ — deterministic
//                      code takes time from its caller, so the
//                      simulation harness (src/sim/) can replace it
//                      with a virtual clock and replay runs from a
//                      seed. util/timer.h and util/log.* are the
//                      sanctioned homes for real time.
//   raw-mmap           (R9) no raw file mapping or fd-level syscalls
//                      (mmap/munmap/msync family, ::open/::openat,
//                      MapViewOfFile/CreateFileMapping) outside
//                      src/data/ + src/util/ — the .ssd reader/writer
//                      (data/ssd.*) and the checkpoint layer own the
//                      platform-specific mapping code paths, with their
//                      error taxonomy and cleanup; everything else
//                      reads through those layers or <fstream>.
//
// Scopes are matched on the file's path as opened, so a rule exempts
// src/math/ whether the scan root is `src` or the repository. The
// patterns run on the scrubbed line (comments and string/char literals
// blanked), so banned tokens in prose or test strings don't fire;
// todo-owner, banned-include and the include form of raw-intrinsics
// read the raw line. throw-in-parallel is the one rule with state: the
// brace extent of a dispatch call's body, carried across lines of one
// file. Raw string literals are treated as ordinary strings — good
// enough for this codebase, which has none.
#pragma once

#include <vector>

#include "analyze/analysis.h"

namespace analyze {

class LineRuleChecker {
 public:
  void scan_file(const SourceFile& file,
                 std::vector<scan::Diagnostic>* sink) const;
};

}  // namespace analyze
