// Bad fixture for unused-suppression: each allow below names a check
// that runs without --config and finds nothing on the allow's line.
#include <cmath>
#include <vector>

void e_step(std::vector<double>& buf, int n) {
  buf.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // ss-analyze: allow(hot-loop-alloc): stale — the growth moved above the loop
    buf[static_cast<std::size_t>(i)] = 0.5;
  }
  double x = 2.0;  // ss-analyze: allow(raw-log-exp): stale — no log here
  // ss-analyze: allow(raw-log-exp, float-equality): only the log fires
  buf[0] = std::log(x);
}
