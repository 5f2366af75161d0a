// Fixed-size worker pool used by the experiment runner and the inference
// engine (fused E-step, M-step statistics, multi-chain Gibbs). Work is
// handed to it through parallel_for_chunks (and parallel_for on top of
// it); workers are persistent and sleep on a condition variable between
// calls.
//
// Scheduling model. parallel_for_chunks partitions [0, count) into
// fixed-size blocks ("chunks") whose boundaries depend only on `count`
// and `grain` — never on the number of workers — so any output written
// to chunk-indexed or element-indexed slots is bit-identical no matter
// how many threads execute it. Chunks are claimed in index order from
// one shared atomic cursor, so a caller that lists its work heaviest
// first gets longest-first list scheduling. The calling thread
// *participates*: it drains chunks from the same cursor as the
// workers, which makes nested parallel sections safe (a worker that
// issues a nested parallel_for_chunks simply runs the inner chunks
// itself instead of blocking on peers that may all be doing the same).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
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

  // Number of chunks parallel_for_chunks uses for (count, grain).
  static std::size_t chunk_count(std::size_t count, std::size_t grain) {
    if (count == 0) return 0;
    if (grain == 0) grain = 1;
    return (count + grain - 1) / grain;
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
