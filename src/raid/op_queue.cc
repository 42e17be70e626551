#include "raid/op_queue.h"

#include <utility>

namespace dcode::raid {

bool OpQueue::push(PendingOp op) {
  std::unique_lock<std::mutex> l(mu_);
  not_full_.wait(l, [&] { return q_.size() < depth_ || closed_; });
  if (closed_) return false;
  // Admit while the queue mutex is held: no other push can take a later
  // sequence number and still land ahead of this op in the queue.
  op.seq = tickets_.admit(op.first_stripe, op.last_stripe, op.is_write);
  if (op.state) op.state->seq = op.seq;
  q_.push_back(std::move(op));
  if (depth_gauge_ != nullptr)
    depth_gauge_->set(static_cast<int64_t>(q_.size()));
  l.unlock();
  not_empty_.notify_one();
  return true;
}

bool OpQueue::pop(PendingOp* out) {
  std::unique_lock<std::mutex> l(mu_);
  not_empty_.wait(l, [&] { return !q_.empty() || closed_; });
  if (q_.empty()) return false;  // closed and drained
  *out = std::move(q_.front());
  q_.pop_front();
  if (depth_gauge_ != nullptr)
    depth_gauge_->set(static_cast<int64_t>(q_.size()));
  l.unlock();
  not_full_.notify_one();
  return true;
}

void OpQueue::close() {
  {
    std::lock_guard<std::mutex> l(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

}  // namespace dcode::raid
