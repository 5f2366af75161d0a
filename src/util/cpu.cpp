#include "util/cpu.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define SS_CPU_X86 1
#else
#define SS_CPU_X86 0
#endif

namespace ss {
namespace {

CpuFeatures probe_features() {
  CpuFeatures f;
#if SS_CPU_X86 && defined(__GNUC__)
  // __builtin_cpu_supports folds in the XGETBV/OS-saved-YMM check for
  // the AVX family, so a kernel that masks AVX state reports false
  // here even when the silicon has the instructions.
  f.sse2 = __builtin_cpu_supports("sse2") != 0;
  f.avx = __builtin_cpu_supports("avx") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
#endif
  return f;
}

std::string probe_model_name() {
#if SS_CPU_X86
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) &&
      eax >= 0x80000004u) {
    char brand[49];
    std::memset(brand, 0, sizeof brand);
    unsigned int* out = reinterpret_cast<unsigned int*>(brand);
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &eax, &ebx, &ecx, &edx);
      out[leaf * 4 + 0] = eax;
      out[leaf * 4 + 1] = ebx;
      out[leaf * 4 + 2] = ecx;
      out[leaf * 4 + 3] = edx;
    }
    std::string name(brand);
    // Brand strings pad with leading/trailing blanks; trim them.
    std::size_t begin = name.find_first_not_of(" \t");
    std::size_t end = name.find_last_not_of(" \t");
    if (begin == std::string::npos) return "unknown";
    return name.substr(begin, end - begin + 1);
  }
#endif
  return "unknown";
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures cached = probe_features();
  return cached;
}

const std::string& cpu_model_name() {
  static const std::string cached = probe_model_name();
  return cached;
}

std::string cpu_feature_summary() {
  const CpuFeatures& f = cpu_features();
  std::string out;
  auto add = [&out](bool have, const char* name) {
    if (!have) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(f.sse2, "sse2");
  add(f.avx, "avx");
  add(f.avx2, "avx2");
  add(f.fma, "fma");
  return out.empty() ? "none" : out;
}

}  // namespace ss
