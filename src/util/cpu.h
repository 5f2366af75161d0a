// Host CPU identification for the runtime kernel-backend dispatch
// (docs/MODEL.md §12) and for the host-metadata block bench_common
// stamps into every bench JSON.
//
// Everything here is a cheap, cached, read-only query: the first call
// probes CPUID (via compiler builtins, so the OS-support bit for saved
// YMM state is included) and later calls return the cached answer.
#pragma once

#include <string>

namespace ss {

// Instruction-set extensions the kernel backends care about. On
// non-x86 builds every flag is false and the scalar backend is the
// only candidate.
struct CpuFeatures {
  bool sse2 = false;
  bool avx = false;
  bool avx2 = false;
  bool fma = false;
};

// Cached CPUID probe. Thread-safe (resolved on first use).
const CpuFeatures& cpu_features();

// Marketing/brand string from CPUID leaves 0x80000002-4, trimmed, or
// "unknown" when the leaves are unavailable (non-x86, old cores).
const std::string& cpu_model_name();

// Space-separated list of the detected flags above ("sse2 avx avx2
// fma"), or "none". Meant for human-readable bench metadata.
std::string cpu_feature_summary();

}  // namespace ss
