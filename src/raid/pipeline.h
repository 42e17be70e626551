// StripePipeline: admission-ordered concurrency in front of Raid6Array.
//
// The array is synchronous policy-per-call and the engine only fans out
// *within* one stripe op. The pipeline orders ops from many threads so
// that disjoint stripes run concurrently and overlapping ones run in
// admission order. An op reaches the array one of two ways:
//
//   run_read / run_write        submit_read / submit_write
//   (caller's thread, blocks)   (any thread, returns OpFuture)
//        │                           │ bounded OpQueue — backpressure
//        ▼                           ▼
//   StripeRangeLock::admit      push: admit + enqueue (queue mutex held)
//        │                           │ worker pop, FIFO
//        ▼                           ▼
//   execute(): acquire ticket → bind OpContext → Raid6Array::read/write
//              → release ticket (one path, two callers)
//        │                           ▼
//   returns / rethrows          future completion (get() rethrows)
//
// Inline ops (run_*) borrow the caller's buffer and never touch a
// worker: no payload copy, no completion state, no cross-thread wake-up.
// That is the path StoragePool takes for every segment; the queued path
// serves callers that keep several ops in flight from one thread.
//
// Ordering contract: admission assigns each op a sequence number and a
// range-lock ticket in one step, for both paths, so there is one order.
// Ops whose stripe ranges overlap (with at least one writer) execute in
// exactly admission order; everything else runs concurrently. The array
// contents after any run therefore equal a serial array that applied the
// same ops in admission order — tests/pipeline_test.cc proves this
// bit-for-bit with inline and queued ops mixed.
//
// Observability: each op carries its own op id and admission timestamp;
// execute() binds an OpContext before calling the array, so the array's
// OpGuard adopts it — the causal span tree, flight recorder, and
// coordinated-omission-free latency accounting all hold per op. Queue
// depth and admission wait are exported as pipeline.* metrics in the
// array's registry.
//
// Fault interplay: execute() calls the array's public ops, so the
// mid-op failover replay, rebuild watermark, device generation checks,
// journal bracketing and power-loss gate cover every op unchanged. A
// failed op surfaces its exception (DiskFailedError, PowerLossError, …)
// from run_* or on its future.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "raid/op_queue.h"
#include "raid/raid6_array.h"
#include "raid/stripe_lock_table.h"

namespace dcode::raid {

struct PipelineOptions {
  int workers = 4;           // executor threads for submitted ops
  size_t queue_depth = 256;  // submit backpressure threshold
};

// Completion handle for one submitted op. Copyable; all copies observe
// the same completion.
class OpFuture {
 public:
  OpFuture() = default;
  explicit OpFuture(std::shared_ptr<OpState> st) : st_(std::move(st)) {}

  bool valid() const { return st_ != nullptr; }
  // Blocks until the op completes, then rethrows its error if it failed.
  void get() {
    st_->wait();
    std::lock_guard<std::mutex> l(st_->mu);
    if (st_->error) std::rethrow_exception(st_->error);
  }
  // Blocks without rethrowing. Returns true iff the op succeeded.
  bool wait() {
    st_->wait();
    std::lock_guard<std::mutex> l(st_->mu);
    return st_->error == nullptr;
  }
  bool ready() const { return st_->ready(); }
  uint64_t op_id() const { return st_->op_id; }
  // Admission order; assigned when submit enqueued the op.
  uint64_t sequence() const { return st_->seq; }
  // Submit-to-completion wall time. Valid after completion.
  int64_t latency_ns() const {
    std::lock_guard<std::mutex> l(st_->mu);
    return st_->complete_ns - st_->enqueue_ns;
  }

 private:
  std::shared_ptr<OpState> st_;
};

class StripePipeline {
 public:
  // Metrics land in `array.metrics_registry()` under pipeline.*.
  explicit StripePipeline(Raid6Array& array, PipelineOptions options = {});
  // Closes the queue, drains every queued op, joins the workers.
  ~StripePipeline();

  StripePipeline(const StripePipeline&) = delete;
  StripePipeline& operator=(const StripePipeline&) = delete;

  // Synchronous user I/O on the calling thread, admitted exactly like a
  // submitted op. Blocks until the op's ticket is granted and the array
  // op returns; rethrows the array's error. Borrows the caller's buffer:
  // a write reads its bytes more than once (delta, then device write and
  // checksum), so they must not change until run_write returns
  // (submit_write copies them instead). Returns the op's sequence number
  // (0 for an empty op, which is not admitted).
  uint64_t run_read(int64_t offset, std::span<uint8_t> out);
  uint64_t run_write(int64_t offset, std::span<const uint8_t> data);

  // Asynchronous user I/O. Write data is copied before submit returns;
  // a read's destination must stay valid until its future completes.
  // Blocks only on queue backpressure. Throws std::runtime_error if the
  // pipeline is shutting down.
  OpFuture submit_read(int64_t offset, std::span<uint8_t> out);
  OpFuture submit_write(int64_t offset, std::span<const uint8_t> data);

  // Blocks until every op submitted so far has completed. (Inline ops
  // have completed by the time run_* returns.)
  void drain();

  Raid6Array& array() { return array_; }
  const PipelineOptions& options() const { return options_; }

 private:
  struct Metrics {
    obs::Gauge* queue_depth;
    obs::Histogram* admission_wait_ns;
    obs::Counter* ops_submitted;
    obs::Counter* ops_completed;
  };

  static Metrics resolve_metrics(Raid6Array& array);
  // Bounds-checks [offset, offset+len) and stamps the op's identity:
  // op id, admission timestamp, stripe range.
  PendingOp make_op(bool is_write, int64_t offset, int64_t len) const;
  uint64_t run(PendingOp op);
  OpFuture submit(PendingOp op);
  void worker_loop();
  // Runs one admitted op under its ticket; the single execution path
  // behind both workers and run_*. Releases the ticket on every exit.
  void execute(const PendingOp& op);

  Raid6Array& array_;
  PipelineOptions options_;
  Metrics metrics_;
  StripeRangeLock range_lock_;
  OpQueue queue_;

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace dcode::raid
