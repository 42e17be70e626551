// Bounded admission queue for the request pipeline.
//
// Submitters push PendingOps; pipeline workers pop them one at a time in
// FIFO order. push() admits the op — sequence number plus StripeRangeLock
// ticket, see StripeRangeLock::admit — while holding the queue mutex, so
// queue order == sequence order.
//
// Backpressure: push() blocks while the queue is at depth, before
// admission (a blocked submitter holds no ticket). close() wakes
// everyone; pops drain the remainder and then return false.
//
// Lock order: queue mutex -> range-lock mutex, nothing else.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "raid/stripe_lock_table.h"

namespace dcode::raid {

// Completion state shared between a submitted op's OpFuture and the
// pipeline worker that eventually executes it.
struct OpState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;       // set iff the op failed
  uint64_t op_id = 0;             // obs::next_op_id(), minted at submit
  uint64_t seq = 0;               // admission order, assigned by the queue
  int64_t enqueue_ns = 0;         // submit time (steady clock)
  int64_t complete_ns = 0;        // completion time (steady clock)

  void complete(std::exception_ptr e, int64_t now_ns) {
    {
      std::lock_guard<std::mutex> l(mu);
      error = std::move(e);
      complete_ns = now_ns;
      done = true;
    }
    cv.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return done; });
  }

  bool ready() {
    std::lock_guard<std::mutex> l(mu);
    return done;
  }
};

// One admitted (or about to be admitted) op. A write owns a copy of its
// payload and `write_src` points into it (moving a PendingOp keeps the
// vector's buffer, so the pointer stays valid; copies are deleted). A
// read's destination is caller-owned.
struct PendingOp {
  PendingOp() = default;
  PendingOp(PendingOp&&) = default;
  PendingOp& operator=(PendingOp&&) = default;
  PendingOp(const PendingOp&) = delete;
  PendingOp& operator=(const PendingOp&) = delete;

  bool is_write = false;
  int64_t offset = 0;
  int64_t len = 0;
  const uint8_t* write_src = nullptr;  // write payload
  uint8_t* read_dst = nullptr;         // read destination (caller-owned)
  std::vector<uint8_t> owned;          // write: the payload copy
  int64_t first_stripe = 0;            // stripe range covered by the op
  int64_t last_stripe = 0;
  uint64_t seq = 0;  // admission order (ticket id), assigned at admission
  uint64_t op_id = 0;
  int64_t enqueue_ns = 0;
  std::shared_ptr<OpState> state;  // shared with the op's OpFuture
};

class OpQueue {
 public:
  // `tickets` receives the admission ticket of every pushed op;
  // `depth_gauge` (optional) tracks the live queue length.
  OpQueue(size_t depth, StripeRangeLock& tickets,
          obs::Gauge* depth_gauge = nullptr)
      : depth_(depth), tickets_(tickets), depth_gauge_(depth_gauge) {}

  // Admits the op (sets op.seq and op.state->seq) and enqueues it,
  // blocking while the queue is full. Returns false (op neither admitted
  // nor queued) iff the queue is closed.
  bool push(PendingOp op);

  // Pops the oldest queued op. Blocks while the queue is empty; returns
  // false once it is closed *and* drained.
  bool pop(PendingOp* out);

  // Wakes all waiters; subsequent pushes fail, pops drain then stop.
  void close();

  size_t depth() const {
    std::lock_guard<std::mutex> l(mu_);
    return q_.size();
  }

 private:
  size_t depth_;
  StripeRangeLock& tickets_;
  obs::Gauge* depth_gauge_;

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<PendingOp> q_;
  bool closed_ = false;
};

}  // namespace dcode::raid
