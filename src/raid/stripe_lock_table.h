// Stripe-granular locking for the array and the request pipeline.
//
// Two independent pieces live here:
//
//  * StripeLockTable — the sharded mutex table behind the array's
//    stripe locks (foreground writes, degraded reads, the rebuild pass,
//    journal recovery) and the pool's chunk locks. Each slot is
//    cache-line padded so two cores spinning on neighbouring slots do
//    not false-share, and acquisition records how long the caller
//    blocked. The array sizes its table one slot per stripe, up to a
//    cap; the pool uses a fixed count.
//
//  * StripeRangeLock — the admission layer of the pipeline's queued
//    path. Each submitted op covers a stripe range and gets a sequence
//    number and a ticket in one step; tickets are granted so that
//    non-overlapping ops proceed fully concurrently on the pipeline's
//    workers while overlapping ops serialize in exactly admission order.
//    Two reads never conflict; read/write and write/write overlaps do.
//    Wait time is observed into the admission-wait histogram. Pool I/O
//    never takes a ticket: it calls the array under its chunk locks.
//
// Lock ordering: OpQueue::push admits while holding the queue's mutex
// (so FIFO pop order equals sequence order among queued ops); the range
// lock's own mutex is a leaf below it. StripeLockTable slots are leaves
// below everything in the array.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "obs/metrics.h"
#include "util/check.h"

namespace dcode::raid {

// Sharded per-stripe mutex table. Stripes hash to slots by modulo, so a
// collision merely serializes two unrelated stripes — never a
// correctness issue, only a throughput one; more slots = fewer
// collisions at 64 bytes per slot.
class StripeLockTable {
 public:
  // `slots` must be positive; `wait_hist` (optional) receives the
  // blocked-time of every acquisition that had to wait.
  explicit StripeLockTable(int slots, obs::Histogram* wait_hist = nullptr)
      : count_(static_cast<size_t>(slots)), wait_hist_(wait_hist) {
    DCODE_CHECK(slots > 0, "stripe lock table needs at least one slot");
    slots_ = std::make_unique<Slot[]>(count_);
  }

  size_t slot_count() const { return count_; }

  // Locks the slot owning `stripe`, recording contention: the uncontended
  // path is a single try_lock, the contended one measures the block and
  // observes it into the wait histogram.
  std::unique_lock<std::mutex> lock(int64_t stripe) {
    std::mutex& mu = slots_[static_cast<size_t>(stripe) % count_].mu;
    std::unique_lock<std::mutex> l(mu, std::try_to_lock);
    if (!l.owns_lock()) {
      const int64_t t0 = now_ns();
      l.lock();
      if (wait_hist_ != nullptr) wait_hist_->observe(now_ns() - t0);
    }
    return l;
  }

 private:
  struct alignas(64) Slot {
    std::mutex mu;
  };

  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  size_t count_;
  std::unique_ptr<Slot[]> slots_;
  obs::Histogram* wait_hist_;
};

// FIFO range-lock over stripe ranges: the pipeline's admission layer.
//
// Protocol: admit() assigns the next sequence number and registers the
// ticket under one mutex, so sequence order is admission order by
// construction; acquire() then blocks until no conflicting ticket with a
// smaller sequence number remains registered; release() retires the
// ticket and wakes waiters. A ticket only ever waits on strictly smaller
// sequence numbers, so grants are acyclic: the smallest registered
// ticket is always grantable. That stays deadlock-free as long as every
// admitted ticket is acquired and released without its holder waiting
// on anything admitted later — true for queued ops, since workers pop in
// sequence order.
class StripeRangeLock {
 public:
  explicit StripeRangeLock(obs::Histogram* wait_hist = nullptr)
      : wait_hist_(wait_hist) {}

  // Admits an op covering stripes [first, last]: returns its sequence
  // number (1, 2, ...), which is also its ticket id.
  uint64_t admit(int64_t first, int64_t last, bool is_write) {
    std::lock_guard<std::mutex> l(mu_);
    const uint64_t seq = next_seq_++;
    tickets_.emplace_hint(tickets_.end(), seq, Ticket{first, last, is_write});
    return seq;
  }

  // Blocks until the ticket is frontmost among the registered tickets it
  // conflicts with. Records blocked time into the admission-wait
  // histogram (0 is observed too — the uncontended admission is part of
  // the latency story).
  void acquire(uint64_t seq) {
    std::unique_lock<std::mutex> l(mu_);
    auto self = tickets_.find(seq);
    DCODE_CHECK(self != tickets_.end(), "acquire of unregistered ticket");
    if (!grantable(self)) {
      const int64_t t0 = now_ns();
      cv_.wait(l, [&] { return grantable(self); });
      if (wait_hist_ != nullptr) wait_hist_->observe(now_ns() - t0);
    } else if (wait_hist_ != nullptr) {
      wait_hist_->observe(0);
    }
  }

  void release(uint64_t seq) {
    {
      std::lock_guard<std::mutex> l(mu_);
      tickets_.erase(seq);
    }
    cv_.notify_all();
  }

  // Registered (granted or waiting) tickets — for tests and the drain
  // check.
  size_t registered() const {
    std::lock_guard<std::mutex> l(mu_);
    return tickets_.size();
  }

 private:
  struct Ticket {
    int64_t first;
    int64_t last;
    bool is_write;
  };

  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool grantable(std::map<uint64_t, Ticket>::iterator self) const {
    // tickets_ is keyed by seq, so everything before `self` in iteration
    // order is an earlier admission.
    for (auto it = tickets_.begin(); it != self; ++it) {
      const Ticket& u = it->second;
      const Ticket& t = self->second;
      const bool overlap = u.first <= t.last && t.first <= u.last;
      if (overlap && (u.is_write || t.is_write)) return false;
    }
    return true;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Ticket> tickets_;
  uint64_t next_seq_ = 1;
  obs::Histogram* wait_hist_;
};

}  // namespace dcode::raid
