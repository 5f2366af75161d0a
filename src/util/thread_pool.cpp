#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <numeric>

#include "util/cpu.h"
#include "util/env.h"
#include "util/fault_inject.h"

namespace ss {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    // Pin before the first task so every page a worker first-touches is
    // already on its final core's node (no-op under SS_AFFINITY=none).
    workers_.emplace_back([this, i, threads] {
      apply_worker_affinity(affinity_mode(), i, threads);
      worker_loop();
    });
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

// Shared state of one parallel_tasks call (same shared_ptr lifetime
// discipline as ChunkJob: a helper that wakes after the call returned
// finds every deque empty and exits without touching the caller frame).
struct TaskJob {
  // Per-participant deques hold task indices in LPT deal order. head/
  // tail are cursors into the fixed `order` slices; all cursor motion is
  // under `mu` (steal targets need a consistent view of every deque).
  // head/tail may only move under the owning TaskJob's `mu` (claim()
  // holds it; the deal phase runs before any helper exists).
  struct Deque {
    std::size_t begin = 0;  // fixed slice bounds into `order`
    std::size_t end = 0;
    std::size_t head = 0;  // next own pop
    std::size_t tail = 0;  // one past last stealable
  };

  std::vector<std::size_t> order;  // task indices, grouped by participant
  std::vector<Deque> deques;
  std::atomic<std::size_t> participants{0};
  std::atomic<std::size_t> done{0};
  Mutex mu;
  std::condition_variable cv;
  std::exception_ptr error SS_GUARDED_BY(mu);
  std::size_t error_task SS_GUARDED_BY(mu) =
      std::numeric_limits<std::size_t>::max();
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t tasks = 0;

  static constexpr std::size_t kNoTask =
      std::numeric_limits<std::size_t>::max();

  // Pops the front of `self`'s deque, or steals from the back of the
  // deque with the most remaining tasks (tie: lowest participant id).
  // Returns kNoTask when every deque is drained.
  std::size_t claim(std::size_t self) {
    MutexLock lock(mu);
    if (self < deques.size()) {
      Deque& d = deques[self];
      if (d.head < d.tail) return order[d.begin + d.head++];
    }
    std::size_t victim = deques.size();
    std::size_t most = 0;
    for (std::size_t p = 0; p < deques.size(); ++p) {
      std::size_t left = deques[p].tail - deques[p].head;
      if (left > most) {
        most = left;
        victim = p;
      }
    }
    if (victim == deques.size()) return kNoTask;
    Deque& d = deques[victim];
    return order[d.begin + --d.tail];
  }

  void run_one(std::size_t t) {
    try {
      fault::maybe_drop_task();
      (*body)(t);
    } catch (...) {
      MutexLock lock(mu);
      if (t < error_task) {
        error_task = t;
        error = std::current_exception();
      }
    }
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == tasks) {
      MutexLock lock(mu);
      cv.notify_all();
    }
  }

  void drain() {
    // Late-waking helpers past the dealt participant count own no deque
    // (claim() sees self >= deques.size()) and go straight to stealing.
    std::size_t self = participants.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
      std::size_t t = claim(self);
      if (t == kNoTask) return;
      run_one(t);
    }
  }
};

}  // namespace

void ThreadPool::parallel_tasks(
    const std::vector<double>& weights,
    const std::function<void(std::size_t)>& body) {
  std::size_t n = weights.size();
  if (n == 0) return;

  auto job = std::make_shared<TaskJob>();
  job->body = &body;
  job->tasks = n;

  if (n == 1) {
    job->run_one(0);
  } else {
    // LPT deal: heaviest-first (index breaks ties), each task to the
    // least-loaded participant (lowest id breaks ties). The schedule
    // depends only on (weights, participant count) — and even that only
    // decides placement, never results.
    std::size_t participants = std::min(workers_.size() + 1, n);
    std::vector<std::size_t> by_weight(n);
    std::iota(by_weight.begin(), by_weight.end(), std::size_t{0});
    std::stable_sort(by_weight.begin(), by_weight.end(),
                     [&weights](std::size_t a, std::size_t b) {
                       return weights[a] > weights[b];
                     });
    std::vector<double> load(participants, 0.0);
    std::vector<std::vector<std::size_t>> dealt(participants);
    for (std::size_t t : by_weight) {
      std::size_t best = 0;
      for (std::size_t p = 1; p < participants; ++p) {
        if (load[p] < load[best]) best = p;
      }
      // ss-analyze: allow(unordered-reduction): serial LPT bookkeeping in the scheduler itself — load[] only picks placement, never results
      load[best] += weights[t];
      dealt[best].push_back(t);
    }

    job->order.reserve(n);
    job->deques.resize(participants);
    for (std::size_t p = 0; p < participants; ++p) {
      TaskJob::Deque& d = job->deques[p];
      d.begin = job->order.size();
      job->order.insert(job->order.end(), dealt[p].begin(),
                        dealt[p].end());
      d.end = job->order.size();
      d.tail = d.end - d.begin;
    }

    // The caller claims participant 0 by draining first; helpers take
    // the rest. Helpers that wake after the work runs dry are no-ops.
    for (std::size_t h = 0; h + 1 < participants; ++h) {
      enqueue([job] { job->drain(); });
    }
    job->drain();
  }

  std::exception_ptr error;
  {
    MutexLock lock(job->mu);
    while (job->done.load(std::memory_order_acquire) < job->tasks) {
      job->cv.wait(lock.native());
    }
    error = job->error;
  }
  if (error) std::rethrow_exception(error);
}

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
