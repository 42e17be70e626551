// StripePipeline: a queued, admission-ordered front end for Raid6Array,
// for callers that keep several ops in flight from one thread.
//
// submit_read / submit_write return an OpFuture at once; the op is
// admitted and queued, and a worker thread runs it on the array:
//
//   submit_read / submit_write   (any thread, returns OpFuture)
//        │ bounded OpQueue — backpressure
//        ▼
//   push: admit + enqueue (queue mutex held)
//        │ worker pop, FIFO
//        ▼
//   execute(): acquire ticket → bind OpContext → Raid6Array::read/write
//              → release ticket
//        ▼
//   future completion (get() rethrows)
//
// StoragePool does not use this path: its ops call the array directly on
// the caller's thread, ordered by the pool's chunk locks and the array's
// stripe locks. Its shards keep a pipeline for callers that submit to
// one directly (StoragePool::shard_pipeline).
//
// Ordering contract: admission assigns each op a sequence number and a
// range-lock ticket in one step, so there is one order. Ops whose stripe
// ranges overlap (with at least one writer) execute in exactly admission
// order; everything else runs concurrently. The array contents after any
// run therefore equal a serial array that applied the same ops in
// admission order — tests/pipeline_test.cc proves this bit-for-bit, with
// clients that wait for each op mixed with clients that keep several in
// flight.
//
// Observability: each op carries its own op id and admission timestamp;
// execute() binds an OpContext before calling the array, so the array's
// OpGuard adopts it — the causal span tree, flight recorder, and
// coordinated-omission-free latency accounting all hold per op. Queue
// depth and admission wait are exported as pipeline.* metrics in the
// array's registry; they count only the ops submitted here.
//
// Fault interplay: execute() calls the array's public ops, so the
// mid-op failover replay, rebuild watermark, device generation checks,
// journal bracketing and power-loss gate cover every op unchanged. A
// failed op surfaces its exception (DiskFailedError, PowerLossError, …)
// on its future.
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

  // Asynchronous user I/O. Write data is copied before submit returns;
  // a read's destination must stay valid until its future completes.
  // Blocks only on queue backpressure. Throws std::runtime_error if the
  // pipeline is shutting down.
  OpFuture submit_read(int64_t offset, std::span<uint8_t> out);
  OpFuture submit_write(int64_t offset, std::span<const uint8_t> data);

  // Blocks until every op submitted so far has completed.
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
  OpFuture submit(PendingOp op);
  void worker_loop();
  // Runs one admitted op under its ticket. Releases the ticket on every
  // exit.
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
