// Fixed-size worker pool used by the experiment runner and the inference
// engine (fused E-step, M-step statistics, multi-chain Gibbs). Tasks are
// type-erased closures; results flow back via std::future or the
// parallel_for interfaces. Workers are persistent and, when
// SS_AFFINITY={compact,spread} is set, pinned to cores at start-up
// (util/cpu.h) so first-touch page placement by a worker stays local
// for the worker's whole lifetime.
//
// Scheduling model. parallel_for_chunks partitions [0, count) into
// fixed-size blocks ("chunks") whose boundaries depend only on `count`
// and `grain` — never on the number of workers — so any output written
// to chunk-indexed or element-indexed slots is bit-identical no matter
// how many threads execute it. The calling thread *participates*: it
// drains chunks from the same atomic cursor as the workers, which makes
// nested parallel sections safe (a worker that issues a nested
// parallel_for_chunks simply runs the inner chunks itself instead of
// blocking on peers that may all be doing the same).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "util/annotations.h"

namespace ss {

class ThreadPool {
 public:
  // `threads` == 0 selects hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a task; the returned future reports its result/exception.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<R()>>(
        std::forward<F>(task));
    std::future<R> fut = packaged->get_future();
    enqueue([packaged] { (*packaged)(); });
    return fut;
  }

  // Runs body(i) for i in [0, count), blocking until all complete.
  // Exceptions from body are rethrown (the one from the lowest chunk
  // wins). Implemented over parallel_for_chunks with a scheduling-only
  // grain, so per-index semantics are unchanged.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  // Runs body(chunk, begin, end) over fixed blocks of [0, count) with
  // `grain` elements per block (the last block may be shorter). Chunk
  // boundaries depend only on (count, grain): results written to
  // disjoint slots are bit-identical for any worker count, including
  // serial execution. The calling thread participates in the work, so
  // this may be invoked from inside a pool task without deadlock.
  // Every chunk runs even if one throws; the exception thrown from the
  // lowest-indexed failing chunk is rethrown after all chunks finish.
  void parallel_for_chunks(
      std::size_t count, std::size_t grain,
      const std::function<void(std::size_t chunk, std::size_t begin,
                               std::size_t end)>& body);

  // Runs body(task) once for every task in [0, weights.size()) under an
  // LPT (longest-processing-time-first) schedule with work stealing:
  // tasks are sorted by weight (descending, index ascending on ties) and
  // greedily dealt to per-participant deques; each participant pops its
  // own deque front-to-back and, when empty, steals from the back of the
  // longest remaining deque. The calling thread participates, so nested
  // use inside a pool task cannot deadlock.
  //
  // Scheduling only ever reorders *which thread* runs a task, never what
  // the task computes — bodies that write disjoint, task-indexed slots
  // stay bit-identical for any worker count and any steal interleaving.
  // Exceptions: every task still runs; the exception from the
  // lowest-indexed failing task is rethrown at the end.
  void parallel_tasks(const std::vector<double>& weights,
                      const std::function<void(std::size_t task)>& body);

  // Number of chunks parallel_for_chunks uses for (count, grain).
  static std::size_t chunk_count(std::size_t count, std::size_t grain) {
    if (count == 0) return 0;
    if (grain == 0) grain = 1;
    return (count + grain - 1) / grain;
  }

  // Deterministic ordered reduction: evaluates chunk_fn(begin, end) -> T
  // for each fixed block in parallel, then folds the per-chunk partials
  // *in chunk order* on the calling thread. For a fixed `grain` the
  // result is bit-identical regardless of thread count.
  template <typename T, typename ChunkFn, typename CombineFn>
  T ordered_reduce(std::size_t count, std::size_t grain, T init,
                   ChunkFn&& chunk_fn, CombineFn&& combine) {
    std::size_t chunks = chunk_count(count, grain);
    if (chunks == 0) return init;
    std::vector<T> partials(chunks);
    parallel_for_chunks(count, grain,
                        [&](std::size_t c, std::size_t b, std::size_t e) {
                          partials[c] = chunk_fn(b, e);
                        });
    T acc = std::move(init);
    for (std::size_t c = 0; c < chunks; ++c) {
      acc = combine(std::move(acc), std::move(partials[c]));
    }
    return acc;
  }

 private:
  void worker_loop();
  void enqueue(std::function<void()> task) SS_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::queue<std::function<void()>> queue_ SS_GUARDED_BY(mu_);
  std::condition_variable cv_;
  bool stop_ SS_GUARDED_BY(mu_) = false;
};

// Number of worker threads benches should use: SS_THREADS env override,
// else hardware concurrency.
std::size_t default_thread_count();

// Process-wide pool shared by the inference engine (EM-Ext, multi-chain
// Gibbs) when no explicit pool is configured. Sized by
// default_thread_count() at first use; SS_THREADS therefore controls it.
ThreadPool& global_pool();

}  // namespace ss
