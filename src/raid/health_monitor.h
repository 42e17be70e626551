// HealthMonitor: the per-device health state machine behind the
// self-healing array.
//
// The engine reports the outcomes that can move a device's state —
// transient errors, checksum mismatches and hard failures — and the
// monitor decides when a device has degraded from noisy to dead. A
// successful transfer is reported nowhere: the window reads it off the
// device's own op count.
//
//   healthy ──(transients / mismatches in window)──▶ suspect
//   suspect ──(transients keep coming)─────────────▶ failed
//   any     ──(fail-stop result / retry exhaustion)─▶ failed
//   failed  ──(spare promoted, rebuild started)─────▶ rebuilding
//   rebuilding ──(rebuild complete)─────────────────▶ healthy
//
// The policy is fixed (the constants below). The sliding window is the
// slot's device transfers: every attempt, transient and failed ones
// included, advances the FaultInjectingDevice decorator's read_ops() +
// write_ops(). Each time kWindowTransfers of them accumulate, every tally
// halves (exponential decay without a clock), so a burst of transients
// fades as healthy traffic flows. The monitor reads the count under the
// per-disk lock when a transient, a mismatch, a fail-stop report or an
// inspection needs the window, and applies exactly the halvings that
// aging one transfer at a time would have. Halving never moves the state
// (only a new transient or mismatch is held against the thresholds), so
// any single-threaded sequence of transfers and calls produces the same
// tallies and transitions every time. A count that went backwards
// (reset_stats() zeroed it) rebases the window without aging it.
//
// Fail-stop reports name the device generation the failed transfer ran
// on (FaultInjectingDevice::generation(), which replace() bumps). A
// report naming an older generation speaks for a device the slot no
// longer holds and is dropped, unless the slot's current device has
// failed too: that one still needs an episode of its own.
//
// Escalation to kFailed fires the registered callback exactly once per
// failure episode (a disk can fail again after rebuilding — that is a new
// episode). The callback runs OUTSIDE the per-disk lock so it may call
// back into the monitor (e.g. mark_rebuilding after promoting a spare);
// it must not perform blocking rebuild work inline — pool workers report
// outcomes, and a synchronous rebuild from a worker would deadlock on the
// pool it is running on. Every state change is also recorded as a
// health_transition flight event.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "raid/fault_injection.h"

namespace dcode::raid {

enum class DiskHealth { kHealthy = 0, kSuspect = 1, kFailed = 2,
                        kRebuilding = 3 };

const char* to_string(DiskHealth h);

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

  // One slot per device, watched for the life of the monitor (they must
  // outlive it); replace() swaps what a decorator holds, not the slot.
  HealthMonitor(std::vector<const FaultInjectingDevice*> devices,
                obs::Registry& registry);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Invoked (outside the per-disk lock) on every transition into kFailed.
  void set_escalation_callback(std::function<void(int)> cb);

  // --- outcome feed (engine threads; thread-safe) --------------------------
  void record_transient(int disk);
  // Verify-on-read condemned an element this disk served (the payload
  // hashed wrong): a silent-corruption outcome, tallied separately from
  // transients because the device *reported success* and lied.
  void record_checksum_mismatch(int disk);
  // A hard failure observed (fail-stop result or retry exhaustion) on the
  // device of `generation`: transitions straight to kFailed and fires the
  // escalation callback if this is a new episode. Dropped when the slot
  // holds a newer device that has not failed.
  void report_fail_stop(int disk, uint64_t generation);

  // --- controller transitions ----------------------------------------------
  // failed -> rebuilding: a spare was promoted and reconstruction is due.
  void mark_rebuilding(int disk);
  // rebuilding (or anything else, e.g. a manual repair) -> healthy; all
  // window tallies reset and the window restarts at the current count.
  void mark_healthy(int disk);

  // --- inspection ----------------------------------------------------------
  DiskHealth state(int disk) const;
  int64_t transients_in_window(int disk) const;
  int64_t checksum_mismatches_in_window(int disk) const;
  int disk_count() const { return static_cast<int>(disks_.size()); }

 private:
  struct PerDisk {
    std::mutex mu;
    int id = 0;
    const FaultInjectingDevice* device = nullptr;
    DiskHealth state = DiskHealth::kHealthy;
    int64_t seen = 0;       // the device's transfer count last read
    int64_t in_window = 0;  // the window count, halved as it fills
    int64_t transients = 0;
    int64_t checksum_mismatches = 0;
    obs::Gauge* health_gauge = nullptr;
  };

  // Writable from the const inspectors too: catching the window up
  // changes no observable outcome (the tallies are what eager aging would
  // already show).
  PerDisk& slot(int disk) const { return *disks_[static_cast<size_t>(disk)]; }
  // Ages the window by the transfers the device made since the last read.
  static void age_window_locked(PerDisk& d);
  // Applies threshold transitions after a tally rose; returns true when
  // the disk newly entered kFailed (caller fires the callback unlocked).
  bool evaluate_locked(PerDisk& d);
  void set_state_locked(PerDisk& d, DiskHealth next);
  void fire_escalation(int disk);

  std::vector<std::unique_ptr<PerDisk>> disks_;
  obs::Counter* suspects_;     // transitions into kSuspect
  obs::Counter* escalations_;  // transitions into kFailed
  obs::Counter* recoveries_;   // transitions into kHealthy (from non-healthy)

  std::mutex cb_mu_;
  std::function<void(int)> escalation_cb_;
};

}  // namespace dcode::raid
