// Lint fixture: suppression round-trip. Both allow() forms carry a
// written reason, so this file must scan clean — and test_analyze strips
// the markers and asserts the diagnostics come back.
#include <cmath>

namespace demo {

inline double half_life_to_rate(double h) {
  // ss-analyze: allow(raw-log-exp): decay constant from a half-life, not a probability
  return std::log(2.0) / h;
}

inline double jitter(double u) {
  return -std::log(u);  // ss-analyze: allow(raw-log-exp): transform of a uniform variate
}

}  // namespace demo
