// Lint fixture: malformed suppressions. Expected diagnostics:
//   line 11 bad-suppression (missing reason)
//   line 12 raw-log-exp     (the invalid allow does NOT suppress)
//   line 16 bad-suppression (unknown rule id)
//   line 17 raw-log-exp     (ditto)
#include <cmath>

namespace demo {

inline double f(double p) {
  // ss-analyze: allow(raw-log-exp)
  return std::log(p);
}

inline double g(double p) {
  // ss-analyze: allow(no-such-rule): the reason is present but the rule is bogus
  return std::log1p(p);
}

}  // namespace demo
