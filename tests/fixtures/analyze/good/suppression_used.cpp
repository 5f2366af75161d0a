// Good fixture for unused-suppression: one allow names two checks that
// both fire on its line, a second allow of the same check on that line
// counts as used too, and an allow(layering) is judged only by a run
// with a layer config (--config), which the good-corpus scan omits.
#include <cmath>
#include <vector>

// ss-analyze: allow(layering): fixture — only a --config run judges this
void m_step(std::vector<double>& buf, int n) {
  for (int i = 0; i < n; ++i) {
    // ss-analyze: allow(hot-loop-alloc, raw-log-exp): fixture — both fire on the next line
    buf.push_back(std::log(static_cast<double>(i)));  // ss-analyze: allow(raw-log-exp): fixture — a second allow of the same finding
  }
}
