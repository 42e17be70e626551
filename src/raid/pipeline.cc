#include "raid/pipeline.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/op_context.h"
#include "util/check.h"

namespace dcode::raid {

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StripePipeline::Metrics StripePipeline::resolve_metrics(Raid6Array& array) {
  obs::Registry& reg = array.metrics_registry();
  Metrics m;
  m.queue_depth = &reg.gauge("pipeline.queue_depth", {},
                             "ops waiting in the pipeline's admission queue");
  m.admission_wait_ns = &reg.histogram(
      "pipeline.admission_wait_ns", obs::latency_bounds_ns(), {},
      "time an admitted op waited for its stripe-range ticket (0 = no "
      "conflicting earlier op)");
  m.ops_submitted = &reg.counter("pipeline.ops_submitted", {},
                                 "ops accepted by submit_read/submit_write");
  m.ops_completed = &reg.counter("pipeline.ops_completed", {},
                                 "accepted ops that have finished");
  return m;
}

StripePipeline::StripePipeline(Raid6Array& array, PipelineOptions options)
    : array_(array),
      options_(options),
      metrics_(resolve_metrics(array)),
      range_lock_(metrics_.admission_wait_ns),
      queue_(options.queue_depth, range_lock_, metrics_.queue_depth) {
  DCODE_CHECK(options_.workers > 0, "pipeline needs at least one worker");
  DCODE_CHECK(options_.queue_depth > 0, "pipeline queue depth must be > 0");

  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

StripePipeline::~StripePipeline() {
  queue_.close();
  for (auto& w : workers_) w.join();
}

PendingOp StripePipeline::make_op(bool is_write, int64_t offset,
                                  int64_t len) const {
  DCODE_CHECK(offset >= 0 && offset + len <= array_.capacity(),
              "pipeline op outside the array's logical space");
  PendingOp op;
  op.is_write = is_write;
  op.offset = offset;
  op.len = len;
  op.op_id = obs::next_op_id();
  op.enqueue_ns = now_ns();
  const int64_t stripe_bytes = array_.layout().data_count() *
                               static_cast<int64_t>(array_.element_size());
  op.first_stripe = offset / stripe_bytes;
  op.last_stripe = (len > 0 ? offset + len - 1 : offset) / stripe_bytes;
  return op;
}

OpFuture StripePipeline::submit(PendingOp op) {
  op.state = std::make_shared<OpState>();
  op.state->op_id = op.op_id;
  op.state->enqueue_ns = op.enqueue_ns;
  OpFuture fut(op.state);
  metrics_.ops_submitted->inc();
  if (op.len == 0) {  // nothing to do — complete inline
    metrics_.ops_completed->inc();
    op.state->complete(nullptr, now_ns());
    return fut;
  }
  {
    std::lock_guard<std::mutex> l(drain_mu_);
    ++submitted_;
  }
  if (!queue_.push(std::move(op))) {
    {
      std::lock_guard<std::mutex> l(drain_mu_);
      --submitted_;
    }
    throw std::runtime_error("StripePipeline: submit after shutdown");
  }
  return fut;
}

OpFuture StripePipeline::submit_read(int64_t offset, std::span<uint8_t> out) {
  PendingOp op = make_op(false, offset, static_cast<int64_t>(out.size()));
  op.read_dst = out.data();
  return submit(std::move(op));
}

OpFuture StripePipeline::submit_write(int64_t offset,
                                      std::span<const uint8_t> data) {
  PendingOp op = make_op(true, offset, static_cast<int64_t>(data.size()));
  op.owned.assign(data.begin(), data.end());
  op.write_src = op.owned.data();
  return submit(std::move(op));
}

void StripePipeline::drain() {
  std::unique_lock<std::mutex> l(drain_mu_);
  drain_cv_.wait(l, [&] { return submitted_ == completed_; });
}

void StripePipeline::worker_loop() {
  PendingOp op;
  while (queue_.pop(&op)) {
    std::exception_ptr err;
    try {
      execute(op);
    } catch (...) {
      err = std::current_exception();
    }
    // Counted before the future resolves, so a waiter never sees its op
    // done but uncounted.
    metrics_.ops_completed->inc();
    op.state->complete(err, now_ns());
    {
      std::lock_guard<std::mutex> l(drain_mu_);
      ++completed_;
    }
    drain_cv_.notify_all();
  }
}

void StripePipeline::execute(const PendingOp& op) {
  range_lock_.acquire(op.seq);
  // The array's OpGuard adopts this context, so the root span,
  // flight-recorder events, and admission-anchored latency all attribute
  // to this op.
  obs::OpContext ctx;
  ctx.op_id = op.op_id;
  ctx.enqueue_ns = op.enqueue_ns;
  obs::OpContextScope scope(&ctx);
  try {
    const size_t n = static_cast<size_t>(op.len);
    if (op.is_write) {
      array_.write(op.offset, std::span<const uint8_t>(op.write_src, n));
    } else {
      array_.read(op.offset, std::span<uint8_t>(op.read_dst, n));
    }
  } catch (...) {
    range_lock_.release(op.seq);
    throw;
  }
  range_lock_.release(op.seq);
}

}  // namespace dcode::raid
