// FaultInjectingDevice: a composable fault decorator for any BlockDevice.
//
// Replaces the ad-hoc fail()/corrupt() methods the old MemDisk carried.
// One decorator wraps every array disk (whatever the backend) and
// injects, independently:
//
//  * fail-stop       — fail() makes every I/O return IoStatus::kFailed
//                      until the engine swaps in a blank device
//                      (replace()); the flag is an atomic because pool
//                      workers read it while the controller thread
//                      writes it (the old MemDisk::failed_ data race).
//  * transient errors — the next N ops return IoStatus::kTransient; the
//                      engine retries against its per-op retry budget,
//                      so a budget-sized burst heals and a longer one
//                      escalates to DiskFailedError.
//  * silent corruption — corrupt() flips stored bytes through the inner
//                      device without any error surfacing (scrub's job).
//  * latency         — a fixed per-op service delay, for pacing tests.
#pragma once

#include <algorithm>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "raid/block_device.h"
#include "util/rng.h"

namespace dcode::raid {

class FaultInjectingDevice : public BlockDevice {
 public:
  explicit FaultInjectingDevice(std::unique_ptr<BlockDevice> inner)
      : BlockDevice(inner->id(), inner->size()), inner_(std::move(inner)) {}

  std::string_view backend_name() const override {
    std::shared_lock<std::shared_mutex> lock(inner_mu_);
    return inner_->backend_name();  // views a static name, safe past unlock
  }
  uint32_t capabilities() const override {
    std::shared_lock<std::shared_mutex> lock(inner_mu_);
    return inner_->capabilities();
  }

  BlockDevice& inner() { return *inner_; }
  const BlockDevice& inner() const { return *inner_; }

  // --- fail-stop ----------------------------------------------------------
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  void fail() { failed_.store(true, std::memory_order_release); }
  // Swap in a blank replacement device (a fresh backend from the array's
  // factory) and clear the fail-stop state. Safe against concurrent I/O:
  // in-flight ops hold the inner lock shared, so the swap waits for them
  // (automatic spare promotion replaces a disk while pool workers run).
  void replace(std::unique_ptr<BlockDevice> blank) {
    DCODE_CHECK(blank->size() == size(), "replacement device size mismatch");
    std::unique_lock<std::shared_mutex> lock(inner_mu_);
    inner_ = std::move(blank);
    transient_remaining_.store(0, std::memory_order_relaxed);
    misdirected_remaining_.store(0, std::memory_order_relaxed);
    torn_remaining_.store(0, std::memory_order_relaxed);
    lost_remaining_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    failed_.store(false, std::memory_order_release);
  }

  // Bumped by every replace(). Readers that must not accept data from a
  // swapped-in blank (a retry loop can straddle an automatic spare
  // promotion) capture this before issuing I/O and re-check it after.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // --- transient errors ---------------------------------------------------
  // The next `count` I/Os (reads and writes alike) fail with kTransient.
  void inject_transient_errors(int64_t count) {
    DCODE_CHECK(count >= 0, "transient error count must be non-negative");
    transient_remaining_.store(count, std::memory_order_relaxed);
  }
  int64_t pending_transient_errors() const {
    return std::max<int64_t>(
        0, transient_remaining_.load(std::memory_order_relaxed));
  }

  // --- latency ------------------------------------------------------------
  void set_latency_ns(int64_t ns) {
    DCODE_CHECK(ns >= 0, "latency must be non-negative");
    latency_ns_.store(ns, std::memory_order_relaxed);
  }

  // --- wrong-path writes --------------------------------------------------
  // The silent write-failure families parity cannot express: every one of
  // these acknowledges the write as fully complete (the caller sees
  // success, accounting and checksum recording proceed normally) while
  // the platter ends up with something else. Composable with the
  // latency/transient/fail-stop knobs above — intercept() still runs
  // first, so a transient burst can precede a lost write, etc.
  //
  // The next `count` writes land at (offset + offset_delta) mod the
  // writable range instead of the requested offset — a misdirected write.
  // Keep offset_delta a multiple of the element size to model a firmware
  // LBA slip; unaligned deltas model head-placement scribble.
  void inject_misdirected_writes(int64_t count, uint64_t offset_delta) {
    DCODE_CHECK(count >= 0, "misdirected write count must be non-negative");
    misdirect_delta_.store(offset_delta, std::memory_order_relaxed);
    misdirected_remaining_.store(count, std::memory_order_relaxed);
  }
  // The next `count` writes persist only the first keep_bytes bytes of
  // their payload (torn intra-element write), acknowledged complete.
  void inject_torn_writes(int64_t count, size_t keep_bytes) {
    DCODE_CHECK(count >= 0, "torn write count must be non-negative");
    torn_keep_bytes_.store(keep_bytes, std::memory_order_relaxed);
    torn_remaining_.store(count, std::memory_order_relaxed);
  }
  // The next `count` writes are dropped entirely (lost write),
  // acknowledged complete.
  void inject_lost_writes(int64_t count) {
    DCODE_CHECK(count >= 0, "lost write count must be non-negative");
    lost_remaining_.store(count, std::memory_order_relaxed);
  }
  int64_t pending_wrong_path_writes() const {
    return std::max<int64_t>(
               0, misdirected_remaining_.load(std::memory_order_relaxed)) +
           std::max<int64_t>(0,
                             torn_remaining_.load(std::memory_order_relaxed)) +
           std::max<int64_t>(0,
                             lost_remaining_.load(std::memory_order_relaxed));
  }
  // Disarms any unconsumed wrong-path budget (campaign quiesce: repair
  // writes must actually land).
  void clear_wrong_path_writes() {
    misdirected_remaining_.store(0, std::memory_order_relaxed);
    torn_remaining_.store(0, std::memory_order_relaxed);
    lost_remaining_.store(0, std::memory_order_relaxed);
  }

  // --- silent corruption --------------------------------------------------
  // Flips bytes in [offset, offset+len) through the inner device without
  // reporting any error — the condition scrubbing exists to catch. Does
  // not count as injected faults (the disk "succeeded").
  void corrupt(uint64_t offset, size_t len, Pcg32& rng) {
    DCODE_CHECK(offset + len <= size(), "corrupt past end of device");
    std::shared_lock<std::shared_mutex> lock(inner_mu_);
    std::vector<uint8_t> buf(len);
    DCODE_CHECK(inner_->read(offset, buf).ok(), "corrupt: readback failed");
    for (size_t i = 0; i < len; ++i) {
      buf[i] ^= static_cast<uint8_t>(rng.next_u32() | 1);
    }
    DCODE_CHECK(inner_->write(offset, buf).ok(), "corrupt: writeback failed");
  }

 protected:
  IoResult do_read(uint64_t offset, std::span<uint8_t> out) override {
    if (IoResult r = intercept(); !r.ok()) return r;
    std::shared_lock<std::shared_mutex> lock(inner_mu_);
    return inner_->read(offset, out);
  }
  IoResult do_write(uint64_t offset, std::span<const uint8_t> in) override {
    if (IoResult r = intercept(); !r.ok()) return r;
    std::shared_lock<std::shared_mutex> lock(inner_mu_);
    if (wrong_path_armed()) return wrong_path_write(offset, in);
    return inner_->write(offset, in);
  }
  IoResult do_readv(uint64_t offset, std::span<const IoVec> iov) override {
    if (IoResult r = intercept(); !r.ok()) return r;
    std::shared_lock<std::shared_mutex> lock(inner_mu_);
    return inner_->readv(offset, iov);
  }
  IoResult do_writev(uint64_t offset,
                     std::span<const ConstIoVec> iov) override {
    if (IoResult r = intercept(); !r.ok()) return r;
    std::shared_lock<std::shared_mutex> lock(inner_mu_);
    if (wrong_path_armed()) {
      // Flatten so one armed fault applies to the whole transfer, same
      // as the single-range path (only taken while a fault is armed).
      std::vector<uint8_t> flat(total_len(iov));
      size_t at = 0;
      for (const ConstIoVec& v : iov) {
        std::copy_n(v.data, v.len, flat.data() + at);
        at += v.len;
      }
      return wrong_path_write(offset, flat);
    }
    return inner_->writev(offset, iov);
  }
  IoResult do_flush() override {
    if (IoResult r = intercept(); !r.ok()) return r;
    std::shared_lock<std::shared_mutex> lock(inner_mu_);
    return inner_->flush();
  }
  IoResult do_discard(uint64_t offset, size_t len) override {
    if (IoResult r = intercept(); !r.ok()) return r;
    std::shared_lock<std::shared_mutex> lock(inner_mu_);
    return inner_->discard(offset, len);
  }

 private:
  IoResult intercept() {
    // Latency first: an erroring op still occupies the device for its
    // service time, so paced tests see realistic timings on fault paths
    // too (the early-return ordering here once skipped the sleep).
    if (int64_t ns = latency_ns_.load(std::memory_order_relaxed); ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    }
    if (failed_.load(std::memory_order_acquire)) return IoResult::failed();
    if (transient_remaining_.load(std::memory_order_relaxed) > 0 &&
        transient_remaining_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      return IoResult::transient();
    }
    return IoResult::success(0);
  }

  static bool dec_if_positive(std::atomic<int64_t>& c) {
    return c.load(std::memory_order_relaxed) > 0 &&
           c.fetch_sub(1, std::memory_order_relaxed) > 0;
  }

  bool wrong_path_armed() const {
    return misdirected_remaining_.load(std::memory_order_relaxed) > 0 ||
           torn_remaining_.load(std::memory_order_relaxed) > 0 ||
           lost_remaining_.load(std::memory_order_relaxed) > 0;
  }

  // Applies the armed wrong-path fault to one flattened write. Caller
  // holds inner_mu_ shared. Every branch acknowledges the full length —
  // that lie is the fault being modeled.
  IoResult wrong_path_write(uint64_t offset, std::span<const uint8_t> in) {
    if (dec_if_positive(lost_remaining_)) {
      return IoResult::success(in.size());  // dropped on the floor
    }
    if (dec_if_positive(torn_remaining_)) {
      const size_t keep =
          std::min(torn_keep_bytes_.load(std::memory_order_relaxed),
                   in.size());
      if (keep > 0) {
        IoResult r = inner_->write(offset, in.subspan(0, keep));
        if (!r.ok()) return r;
      }
      return IoResult::success(in.size());
    }
    if (dec_if_positive(misdirected_remaining_)) {
      const uint64_t span = size() - in.size();  // bounds pre-checked
      const uint64_t delta = misdirect_delta_.load(std::memory_order_relaxed);
      const uint64_t wrong = span == 0 ? 0 : (offset + delta) % (span + 1);
      IoResult r = inner_->write(wrong, in);
      return r.ok() ? IoResult::success(in.size()) : r;
    }
    return inner_->write(offset, in);  // lost the arm race: normal write
  }

  // Guards inner_ against replace() while ops are in flight; the sleep in
  // intercept() happens before the lock so latency injection never holds
  // it.
  mutable std::shared_mutex inner_mu_;
  std::unique_ptr<BlockDevice> inner_;
  std::atomic<bool> failed_{false};
  std::atomic<uint64_t> generation_{0};
  std::atomic<int64_t> transient_remaining_{0};
  std::atomic<int64_t> latency_ns_{0};
  std::atomic<int64_t> misdirected_remaining_{0};
  std::atomic<uint64_t> misdirect_delta_{0};
  std::atomic<int64_t> torn_remaining_{0};
  std::atomic<size_t> torn_keep_bytes_{0};
  std::atomic<int64_t> lost_remaining_{0};
};

}  // namespace dcode::raid
