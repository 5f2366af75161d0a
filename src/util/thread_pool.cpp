#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>

#include "util/env.h"
#include "util/fault_inject.h"

namespace ss {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      // Manual wait loop: the thread-safety analysis checks a predicate
      // lambda as its own (lock-free) function, while cv_.wait holds
      // mu_ around this loop body the same way the predicate overload
      // would.
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(lock.native());
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

namespace {

// Shared state of one parallel_for_chunks call. Helper tasks hold it by
// shared_ptr: a task that wakes after the call returned finds the cursor
// exhausted and exits without touching the (dead) caller frame.
struct ChunkJob {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  Mutex mu;
  std::condition_variable cv;
  std::exception_ptr error SS_GUARDED_BY(mu);
  std::size_t error_chunk SS_GUARDED_BY(mu) =
      std::numeric_limits<std::size_t>::max();
  const std::function<void(std::size_t, std::size_t, std::size_t)>* body =
      nullptr;
  std::size_t count = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;

  // Claims and runs chunks until the cursor is exhausted. `body` is only
  // dereferenced after claiming a chunk, and no chunk can be claimed
  // once the cursor is spent — so a helper that wakes after the caller
  // returned never touches the dead frame.
  void drain() {
    for (;;) {
      std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      std::size_t begin = c * grain;
      std::size_t end = std::min(count, begin + grain);
      try {
        // Fault-injection site: a "dropped" chunk surfaces as the
        // call's exception instead of running its body — the pool must
        // neither deadlock nor lose the remaining chunks.
        fault::maybe_drop_task();
        (*body)(c, begin, end);
      } catch (...) {
        MutexLock lock(mu);
        if (c < error_chunk) {
          error_chunk = c;
          error = std::current_exception();
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        MutexLock lock(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::parallel_for_chunks(
    std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>&
        body) {
  std::size_t chunks = chunk_count(count, grain);
  if (chunks == 0) return;
  if (grain == 0) grain = 1;
  if (chunks == 1) {
    body(0, 0, count);
    return;
  }

  auto job = std::make_shared<ChunkJob>();
  job->body = &body;
  job->count = count;
  job->grain = grain;
  job->chunks = chunks;

  // One helper task per worker, capped by the remaining chunks (the
  // caller takes care of at least one itself). Helpers that never get
  // scheduled before the work runs dry become no-ops.
  std::size_t helpers = std::min(workers_.size(), chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    enqueue([job] { job->drain(); });
  }
  job->drain();

  std::exception_ptr error;
  {
    MutexLock lock(job->mu);
    while (job->done.load(std::memory_order_acquire) < job->chunks) {
      job->cv.wait(lock.native());
    }
    error = job->error;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& body) {
  // Grain > 1 only when indices heavily outnumber workers; this is pure
  // scheduling (fewer queue round-trips), not a semantic change.
  std::size_t grain =
      std::max<std::size_t>(1, count / (8 * std::max<std::size_t>(
                                                1, workers_.size())));
  parallel_for_chunks(count, grain,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) body(i);
                      });
}

std::size_t default_thread_count() {
  long long env = env_int("SS_THREADS", 0);
  if (env > 0) return static_cast<std::size_t>(env);
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool& global_pool() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

}  // namespace ss
