// RAII kernel-backend pin for tests whose contract is specific to one
// backend (docs/MODEL.md §12). Bit-identity suites pin kScalar — the
// scalar backend is the executable reference the golden hashes were
// recorded against — while tolerance/statistical suites run under
// whatever dispatch selects, which exercises the AVX2 path on capable
// hosts.
#pragma once

#include <vector>

#include "math/simd/dispatch.h"

namespace ss::test_support {

class ScopedBackend {
 public:
  explicit ScopedBackend(simd::Backend backend)
      : previous_(simd::active_backend()) {
    simd::force_backend(backend);
  }
  ~ScopedBackend() { simd::force_backend(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  simd::Backend previous_;
};

// Every backend this build and host can run: scalar always, AVX2 when
// compiled in and supported. Suites whose contract holds per backend
// loop over these under a ScopedBackend.
inline std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> out = {simd::Backend::kScalar};
  if (simd::avx2_runtime_supported()) out.push_back(simd::Backend::kAvx2);
  return out;
}

}  // namespace ss::test_support
