// HealthMonitor: the one owner of the array's failover state. It holds
// every slot's record and the spare count and pass flag
// (raid/slot_state.h, whose next() is the state diagram) and applies
// next() under one lock to what the engine reports (transients, checksum
// mismatches, fail-stops) and what the array reports (operator steps,
// the rebuild pass's progress). next()'s device and thread actions run
// through the owner's Actions under the same lock, so no thread sees a
// promotion half done; an action must not call back into the monitor.
// Lock order: stripe lock → this lock → a device decorator's inner lock,
// a leaf. Every health change is recorded as a health_transition flight
// event.
//
// The window: a slot's device transfers, every attempt included, advance
// the FaultInjectingDevice decorator's read_ops() + write_ops(); a
// success is reported nowhere. Each time kWindowTransfers of them
// accumulate, every tally halves (exponential decay without a clock), so
// a burst of transients fades as healthy traffic flows. The monitor reads
// the count when a transient, a mismatch or an inspection needs the
// window, and applies exactly the halvings that aging one transfer at a
// time would have. Halving never moves the state
// (only a new transient or mismatch is held against the thresholds, as a
// verdict for next()), so any single-threaded sequence of transfers and
// calls produces the same tallies and transitions every time. A count
// that went backwards (reset_stats() zeroed it) rebases the window
// without aging it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "raid/fault_injection.h"
#include "raid/slot_state.h"

namespace dcode::raid {

class HealthMonitor {
 public:
  // The policy. Tallies count events within the window; a threshold is
  // reached at that many. A disk returning wrong bytes is more alarming
  // than one returning errors, so the mismatch suspect bar is lower, but
  // mismatches never fail a disk: the integrity paths recover the data
  // from parity, and condemning a whole disk for them is an operator's
  // call.
  static constexpr int64_t kWindowTransfers = 256;
  static constexpr int64_t kSuspectTransients = 4;
  static constexpr int64_t kFailTransients = 12;
  static constexpr int64_t kSuspectChecksumMismatches = 2;

  // The owner's side of next()'s actions, run under the lock; an unset
  // one is skipped.
  struct Actions {
    std::function<void(int disk)> fail_device;
    std::function<void(int disk)> swap_blank;
    std::function<void()> start_worker;
  };

  // A slot a rebuild pass rebuilds, and the generation the pass names in
  // its events.
  struct PassTarget {
    int disk;
    uint64_t generation;
  };

  // One slot per device, watched for the life of the monitor (they must
  // outlive it); a swap replaces what a decorator holds, not the slot. A
  // pass is done once a watermark reaches `stripes`.
  HealthMonitor(std::vector<const FaultInjectingDevice*> devices,
                obs::Registry& registry, int64_t stripes = 0);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Set once, before any I/O. An escalation callback alone is the
  // fail_device action: it runs on every transition into kFailed.
  void set_actions(Actions actions) {
    std::lock_guard<std::mutex> lock(mu_);
    actions_ = std::move(actions);
  }
  void set_escalation_callback(std::function<void(int)> cb) {
    set_actions({std::move(cb), nullptr, nullptr});
  }

  // --- outcome feed (engine threads; thread-safe) --------------------------
  void record_transient(int disk) { record(disk, &Slot::transients); }
  // Verify-on-read condemned an element this disk served (the payload
  // hashed wrong): a silent-corruption outcome, tallied separately from
  // transients because the device *reported success* and lied.
  void record_checksum_mismatch(int disk) {
    record(disk, &Slot::checksum_mismatches);
  }
  // A hard failure observed (fail-stop result or retry exhaustion) on the
  // device of `generation`.
  void report_fail_stop(int disk, uint64_t generation) {
    apply(disk, {SlotEvent::kFailStop, generation});
  }

  // --- operator steps --------------------------------------------------------
  // A fail-stop of whatever device the slot holds (no generation is
  // newer than the largest).
  void fail(int disk) { apply(disk, {SlotEvent::kFailStop, ~uint64_t{0}}); }
  // A blank swapped into the slot, to be rebuilt.
  void replace(int disk) { apply(disk, {SlotEvent::kReplace}); }
  // The operator vouches for the slot's device (an in-place repair): all
  // window tallies reset and the window restarts at the current count.
  void mark_healthy(int disk) { apply(disk, {SlotEvent::kMarkHealthy}); }
  void add_spares(int64_t count) {
    apply(-1, {.kind = SlotEvent::kAddSpares, .count = count});
  }

  // --- the rebuild pass ------------------------------------------------------
  // Waits until no pass is wanted or running, then claims one; its first
  // next_pass() finds the targets.
  void claim_pass();
  // A pass over `targets` rebuilt the stripes [first, first + n).
  void advance_pass(const std::vector<PassTarget>& targets, int64_t first,
                    int64_t n);
  // The pass over `done` ended: pass-done for each (a slot it took to the
  // last stripe turns whole), then the next targets. When `stop` or none
  // are left the pass stands down and this returns none.
  std::vector<PassTarget> next_pass(const std::vector<PassTarget>& done,
                                    bool stop);
  // The pass gave up (a crash or an undecodable stripe).
  void stand_down() { apply(-1, {SlotEvent::kStandDown}); }
  // Waits until no pass is wanted or running. Returns true when every
  // slot is whole.
  bool wait_for_pass();

  // --- inspection ----------------------------------------------------------
  DiskHealth state(int disk) const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_[static_cast<size_t>(disk)].state.health;
  }
  // The slot's rebuild watermark, read without the lock by the I/O paths.
  int64_t watermark(int disk) const {
    return watermarks_[static_cast<size_t>(disk)].load(
        std::memory_order_acquire);
  }
  int64_t spares() const {
    std::lock_guard<std::mutex> lock(mu_);
    return array_.spares;
  }
  bool pass_pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return array_.pass;
  }
  int64_t transients_in_window(int disk) const {
    return tally(disk, &Slot::transients);
  }
  int64_t checksum_mismatches_in_window(int disk) const {
    return tally(disk, &Slot::checksum_mismatches);
  }
  int disk_count() const { return static_cast<int>(slots_.size()); }

 private:
  struct Slot {
    const FaultInjectingDevice* device = nullptr;
    SlotState state;
    // The window, caught up by the const inspectors too: that changes no
    // observable outcome (the tallies are what eager aging would show).
    mutable int64_t seen = 0;       // the device's transfer count last read
    mutable int64_t in_window = 0;  // the window count, halved as it fills
    mutable int64_t transients = 0;
    mutable int64_t checksum_mismatches = 0;
    obs::Gauge* health_gauge = nullptr;
  };

  // Ages the window by the transfers the device made since the last read.
  static void age_window_locked(const Slot& s);
  // Counts one more of `which` and holds the tallies against the
  // thresholds: a verdict for next().
  void record(int disk, int64_t Slot::*which);
  int64_t tally(int disk, int64_t Slot::*which) const;
  void apply(int disk, const SlotEvent& e) {
    std::lock_guard<std::mutex> lock(mu_);
    apply_locked(disk, e);
  }
  // Applies next() to `disk`'s slot (-1: an event that names none) and
  // runs its actions.
  void apply_locked(int disk, const SlotEvent& e);
  std::vector<PassTarget> targets_locked() const;

  mutable std::mutex mu_;
  std::condition_variable pass_cv_;  // the pass flag fell
  std::vector<Slot> slots_;
  // Each slot's watermark, published for readers without the lock; only
  // apply_locked() stores it.
  std::unique_ptr<std::atomic<int64_t>[]> watermarks_;
  ArrayState array_;
  Actions actions_;
  obs::Counter* suspects_;     // transitions into kSuspect
  obs::Counter* escalations_;  // transitions into kFailed
  obs::Counter* recoveries_;   // transitions into kHealthy (from non-healthy)
  obs::Counter* promotions_;   // spares swapped into failed slots
  obs::Gauge* pass_gauge_;     // 1 while a pass is wanted or running
};

}  // namespace dcode::raid
