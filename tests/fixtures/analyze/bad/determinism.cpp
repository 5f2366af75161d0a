// Bad fixture for checker C (unordered-reduction): compound float
// accumulation through a by-reference capture inside parallel worker
// bodies, an unordered helper, and a hand-rolled serial fold in a
// file already on the tree-reduction discipline. Seeded lines are
// asserted in tests/test_analyze.cpp.
#include <numeric>
#include <vector>

struct Pool {
  template <typename F> void parallel_for(int n, F f);
  template <typename F> void parallel_for_chunks(int n, F f);
};

double tree_sum(Pool* pool, const double* xs, unsigned n);

double total_error(Pool& pool, const std::vector<double>& xs) {
  double total = 0.0;
  pool.parallel_for(4, [&](int i) {
    total += xs[i];
  });
  double sum = 0.0;
  pool.parallel_for_chunks(4, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) sum -= xs[i];
    sum += std::accumulate(xs.begin() + begin, xs.begin() + end, 0.0);
  });
  double rest = tree_sum(&pool, xs.data(), 2);
  for (double v : xs) rest += v;
  return total + sum + rest;
}

template <typename F> void for_each_chunk(Pool* pool, int n, int grain, F f);

double chunked_error(Pool& pool, const std::vector<double>& xs) {
  double chunked = 0.0;
  for_each_chunk(&pool, 4, 2, [&](int, int begin, int end) {
    for (int i = begin; i < end; ++i) chunked += xs[i];
  });
  return chunked;
}
