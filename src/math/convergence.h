// Convergence detection shared by the iterative algorithms (EM variants,
// Sums, Average.Log, Truth-Finder, Gibbs bound estimation).
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>

namespace ss {

// Stops iteration when the monitored scalar changes by less than `tol`
// for `patience` consecutive updates, or when `max_iters` is hit;
// converged() tells the first case from the second.
class ConvergenceMonitor {
 public:
  ConvergenceMonitor(double tol, std::size_t max_iters,
                     std::size_t patience = 1)
      : tol_(tol), max_iters_(max_iters), patience_(patience) {}

  // Feeds the iteration's summary value (e.g. max parameter delta or the
  // value itself when monitoring a moving estimate). Returns true when
  // iteration should stop.
  bool update(double value) {
    ++iters_;
    bool small_change =
        std::fabs(value - last_) <= tol_ && iters_ > 1;
    last_ = value;
    streak_ = small_change ? streak_ + 1 : 0;
    return streak_ >= patience_ || iters_ >= max_iters_;
  }

  // Variant for callers that already computed a delta themselves.
  bool update_delta(double delta) {
    ++iters_;
    streak_ = (delta <= tol_) ? streak_ + 1 : 0;
    return streak_ >= patience_ || iters_ >= max_iters_;
  }

  std::size_t iterations() const { return iters_; }
  // True once the tolerance streak has reached `patience`, whether or
  // not that happened on the last allowed iteration.
  bool converged() const { return streak_ >= patience_; }

 private:
  double tol_;
  std::size_t max_iters_;
  std::size_t patience_;
  std::size_t iters_ = 0;
  std::size_t streak_ = 0;
  double last_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace ss
