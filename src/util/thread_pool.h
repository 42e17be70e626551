// A small fixed-size thread pool with a blocking parallel_for.
//
// Stripe encode/decode/rebuild is embarrassingly parallel across stripes,
// so the pool only needs static chunking and a completion barrier — no
// futures, no work stealing. Tasks must not throw across the boundary;
// exceptions are captured and rethrown on the calling thread (first one
// wins), matching how a RAID rebuild would surface a fault.
//
// Completion is tracked per dispatch, not pool-wide: every parallel_for
// call owns a completion ticket (`Batch`) counting only its own chunks, so
// concurrent callers never block on each other's work and an exception is
// attributed to the call whose task threw. A nested parallel_for issued
// from inside one of this pool's workers runs inline on that worker —
// queueing it would deadlock, since the worker would wait on chunks that
// need its own queue slot to drain.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dcode {

class ThreadPool {
 public:
  // Point-in-time introspection of one pool (per-pool numbers; the
  // process-wide aggregates across pools live in obs::Registry::global()
  // under threadpool.*).
  struct Stats {
    int64_t tasks_run = 0;          // chunks executed to completion
    int64_t busy_ns = 0;            // summed wall time inside tasks
    int64_t queue_depth_high_water = 0;  // max tasks ever queued at once
    unsigned active_workers = 0;    // workers running a task right now
    size_t queued = 0;              // tasks waiting in the queue right now
  };

  // `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  Stats stats() const;

  // Runs fn(i) for i in [0, count), partitioned into contiguous chunks,
  // and blocks until all iterations complete. Runs inline when the pool
  // has a single worker, the range is tiny (avoids dispatch overhead), or
  // the caller is itself one of this pool's workers. `fn` is passed on by
  // reference, so an inline run allocates nothing.
  template <typename Fn>
  void parallel_for(size_t count, Fn&& fn) {
    parallel_for_chunked(count, [&fn](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }

  // Like parallel_for but hands each worker a [begin, end) slice; useful
  // when per-chunk setup (e.g. a scratch buffer) amortizes across items.
  void parallel_for_chunked(
      size_t count, const std::function<void(size_t, size_t)>& fn);

 private:
  struct Batch;  // per-dispatch completion ticket (defined in the .cc)

  // A queued chunk and the ticket it completes. The worker signals the
  // ticket only after run_task's accounting lands, so a caller returning
  // from parallel_for observes stats() that include every one of its
  // chunks.
  struct QueuedTask {
    std::function<void()> work;
    Batch* batch = nullptr;
  };

  void worker_loop();
  void run_task(const std::function<void()>& task);

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> tasks_;
  mutable std::mutex mu_;
  std::condition_variable task_cv_;  // workers wait for tasks
  bool stopping_ = false;

  // Accounting (relaxed atomics: read by stats() and the obs collector
  // without the queue lock).
  std::atomic<int64_t> tasks_run_{0};
  std::atomic<int64_t> busy_ns_{0};
  std::atomic<int64_t> queue_depth_hwm_{0};
  std::atomic<unsigned> active_workers_{0};
};

}  // namespace dcode
