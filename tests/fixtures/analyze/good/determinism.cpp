// Good fixture for checker C: per-chunk partials written to owned
// slots, a region-local accumulator, a tree_reduce block fold, and a
// for_each_chunk body that writes one slot per element — all
// sanctioned shapes. Note the file references the tree primitives, so
// a hand-rolled serial fold here WOULD fire; the canonical tree_sum
// call below does not.
#include <vector>

struct Pool {
  template <typename F> void parallel_for_chunks(int n, F f);
};

double tree_sum(Pool* pool, const double* xs, unsigned n);

template <typename BlockFn>
double tree_reduce(Pool* pool, int n, double zero, BlockFn f);

template <typename F> void for_each_chunk(Pool* pool, int n, int grain, F f);

double total_error(Pool& pool, const std::vector<double>& xs,
                   std::vector<double>* partials) {
  pool.parallel_for_chunks(4, [&](int begin, int end) {
    double local = 0.0;
    for (int i = begin; i < end; ++i) local += xs[i];
    (*partials)[static_cast<unsigned>(begin)] = local;
  });
  double total = tree_sum(&pool, partials->data(),
                          static_cast<unsigned>(partials->size()));
  double treed = tree_reduce(&pool, 4, 0.0, [&](int begin, int end) {
    double acc = 0.0;
    for (int i = begin; i < end; ++i) acc += xs[i];
    return acc;
  });
  for_each_chunk(&pool, 4, 2, [&](int, int begin, int end) {
    for (int i = begin; i < end; ++i) {
      (*partials)[static_cast<unsigned>(i)] = xs[i];
    }
  });
  return total + treed;
}
