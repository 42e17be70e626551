#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "obs/metrics.h"
#include "util/check.h"

namespace dcode {
namespace {

// Set for the lifetime of a worker thread so parallel_for can detect a
// nested dispatch onto the pool the caller already serves.
thread_local const ThreadPool* current_pool = nullptr;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process-wide aggregates over every pool, in the global registry.
struct PoolMetrics {
  obs::Counter* tasks_run;
  obs::Counter* busy_ns;
  obs::Gauge* queue_depth_hwm;
  obs::Gauge* active_workers;

  static const PoolMetrics& get() {
    static const PoolMetrics m = [] {
      auto& reg = obs::Registry::global();
      return PoolMetrics{
          &reg.counter("threadpool.tasks_run", {},
                       "pool tasks (chunks) executed, all pools"),
          &reg.counter("threadpool.busy_ns", {},
                       "summed wall time inside pool tasks, all pools"),
          &reg.gauge("threadpool.queue_depth_hwm", {},
                     "max tasks ever queued at once, any pool"),
          &reg.gauge("threadpool.active_workers", {},
                     "workers running a task right now, all pools"),
      };
    }();
    return m;
  }
};

}  // namespace

// Per-dispatch completion ticket. Lives on the dispatching caller's stack;
// the caller cannot return before `remaining` hits zero, and workers only
// touch the ticket under its mutex, so the lifetime is safe.
struct ThreadPool::Batch {
  explicit Batch(size_t chunks) : remaining(chunks) {}

  std::mutex mu;
  std::condition_variable done_cv;  // the dispatching caller waits here
  size_t remaining;
  std::exception_ptr first_error;
};

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  current_pool = this;
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    run_task(task.work);
    // Complete the dispatch ticket only now, after run_task recorded the
    // chunk: the dispatching caller may wake on this notify, and stats()
    // after parallel_for returns must already count every chunk.
    if (task.batch != nullptr) {
      std::lock_guard<std::mutex> batch_lock(task.batch->mu);
      if (--task.batch->remaining == 0) task.batch->done_cv.notify_all();
    }
  }
}

void ThreadPool::run_task(const std::function<void()>& task) {
  const PoolMetrics& pm = PoolMetrics::get();
  active_workers_.fetch_add(1, std::memory_order_relaxed);
  pm.active_workers->add(1);
  const int64_t t0 = now_ns();
  task();  // Batch wrapper: never throws across this boundary
  const int64_t dt = now_ns() - t0;
  busy_ns_.fetch_add(dt, std::memory_order_relaxed);
  pm.busy_ns->inc(dt);
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  pm.tasks_run->inc();
  active_workers_.fetch_sub(1, std::memory_order_relaxed);
  pm.active_workers->sub(1);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  s.queue_depth_high_water = queue_depth_hwm_.load(std::memory_order_relaxed);
  s.active_workers = active_workers_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.queued = tasks_.size();
  return s;
}

void ThreadPool::parallel_for_chunked(
    size_t count, const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) return;
  const size_t nworkers = workers_.size();
  // Dispatch is pointless for tiny ranges or a single worker, and a
  // nested dispatch from one of our own workers must not queue: the
  // worker would block on chunks that need its own queue slot to run.
  if (nworkers <= 1 || count == 1 || current_pool == this) {
    fn(0, count);
    return;
  }

  const size_t nchunks = std::min(count, nworkers);
  const size_t base = count / nchunks;
  const size_t extra = count % nchunks;

  Batch batch(nchunks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t begin = 0;
    for (size_t c = 0; c < nchunks; ++c) {
      size_t len = base + (c < extra ? 1 : 0);
      size_t end = begin + len;
      tasks_.push({[&batch, &fn, begin, end] {
                     try {
                       fn(begin, end);
                     } catch (...) {
                       std::lock_guard<std::mutex> batch_lock(batch.mu);
                       if (!batch.first_error) {
                         batch.first_error = std::current_exception();
                       }
                     }
                   },
                   &batch});
      begin = end;
    }
    DCODE_ASSERT(begin == count, "chunking must cover the whole range");
    const int64_t depth = static_cast<int64_t>(tasks_.size());
    if (depth > queue_depth_hwm_.load(std::memory_order_relaxed)) {
      queue_depth_hwm_.store(depth, std::memory_order_relaxed);
      PoolMetrics::get().queue_depth_hwm->update_max(depth);
    }
  }
  task_cv_.notify_all();

  std::unique_lock<std::mutex> lock(batch.mu);
  batch.done_cv.wait(lock, [&batch] { return batch.remaining == 0; });
  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

}  // namespace dcode
