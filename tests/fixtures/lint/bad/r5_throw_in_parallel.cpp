// Lint fixture: must fire throw-in-parallel (R5) on lines 8, 14 and 20
// and nothing else. Only linted, never compiled: free dispatchers are fine.
#include <cstddef>
#include <stdexcept>

inline void run(int n) {
  parallel_for(n, [&](std::size_t i) {
    if (i == 3u) throw std::runtime_error("boom inside worker");
  });
}

inline void run_chunks(int n) {
  for_each_chunk(nullptr, n, 4, [&](std::size_t, std::size_t b, auto) {
    if (b == 4u) throw std::runtime_error("boom inside chunk");
  });
}

inline double run_tree(int n) {
  return tree_reduce(nullptr, n, 0.0, [&](std::size_t b, std::size_t) {
    if (b == 4u) throw std::runtime_error("boom inside leaf");
    return 1.0;
  }, [](double a, double c) { return a + c; });
}
