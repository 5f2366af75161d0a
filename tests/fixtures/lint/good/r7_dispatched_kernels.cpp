// Lint fixture: clean under raw-intrinsics (R7). Prose and string
// mentions of __m256d / _mm256_add_pd must stay invisible to the token
// check, and the one real token below carries a reasoned suppression.
namespace demo {

// Comment mention only: __m512d and _mm512_fmadd_pd are not code here.
inline const char* describe() {
  return "__m256d lanes via _mm256_fmadd_pd";  // string mention
}

// ss-analyze: allow(raw-intrinsics): fixture for the mandatory-reason escape hatch
using vec_t = __m256d;

}  // namespace demo
