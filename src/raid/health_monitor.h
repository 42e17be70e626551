// HealthMonitor: the per-device health state machine behind the
// self-healing array.
//
// Every engine-level I/O outcome feeds the monitor — successes, transient
// errors, and hard failures — and the monitor decides when a device has
// degraded from noisy to dead. (A success may carry a latency for the
// slow-op budget; the engine reports none, since the array's policy
// tracks no latency.)
//
//   healthy ──(transient/latency budget in window)──▶ suspect
//   suspect ──(budget keeps eroding)────────────────▶ failed
//   any     ──(fail-stop result / retry exhaustion)─▶ failed
//   failed  ──(spare promoted, rebuild started)─────▶ rebuilding
//   rebuilding ──(rebuild complete)─────────────────▶ healthy
//
// The sliding window is count-based and deterministic: every recorded op
// ages the window, and once `window_ops` outcomes accumulate, all tallies
// halve (exponential decay without a clock), so a burst of transients
// fades as healthy traffic flows. Chaos tests rely on this determinism:
// any single-threaded sequence of calls produces exactly the same tallies
// and transitions every time.
//
// Successes are the foreground path's common case, one per device
// transfer, so they take no lock unless they must. With latency tracking
// off (slow_op_ns == 0) a success changes only the window count, an
// atomic: it advances the count with one relaxed add and takes the
// per-disk lock only when that add fills the window, to halve the
// tallies. Every other entry point (and a success while latency tracking
// is on) runs under the lock. Concurrent successes may push the count
// past window_ops before the halving runs; the halving keeps their adds
// and happens once per fill.
//
// Escalation to kFailed fires the registered callback exactly once per
// failure episode (a disk can fail again after rebuilding — that is a new
// episode). The callback runs OUTSIDE the per-disk lock so it may call
// back into the monitor (e.g. mark_rebuilding after promoting a spare);
// it must not perform blocking rebuild work inline — pool workers report
// outcomes, and a synchronous rebuild from a worker would deadlock on the
// pool it is running on.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dcode::raid {

enum class DiskHealth { kHealthy = 0, kSuspect = 1, kFailed = 2,
                        kRebuilding = 3 };

const char* to_string(DiskHealth h);

// Escalation thresholds. Counters are evaluated against a sliding window
// of the last ~window_ops outcomes (tallies halve each time the window
// fills). A threshold of 0 disables that particular escalation.
struct HealthPolicy {
  int64_t window_ops = 256;    // outcomes per decay period
  int suspect_transients = 4;  // transients in window: healthy -> suspect
  int fail_transients = 12;    // transients in window: -> failed
  int64_t slow_op_ns = 0;      // ops at/above this latency count as slow
                               // (0 disables latency tracking)
  int suspect_slow_ops = 8;    // slow ops in window: healthy -> suspect
  int fail_slow_ops = 0;       // slow ops in window: -> failed (0 = never)
  // Verify-on-read checksum/identity mismatches (corrupt, misdirected or
  // stale payloads). A disk returning wrong bytes is more alarming than
  // one returning errors, so the suspect bar is lower; auto-fail stays
  // off by default — the integrity paths recover the data from parity,
  // and condemning the whole disk is an operator policy, not a given.
  int suspect_checksum_mismatches = 2;
  int fail_checksum_mismatches = 0;
};

class HealthMonitor {
 public:
  HealthMonitor(int disks, HealthPolicy policy, obs::Registry& registry);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Invoked (outside the per-disk lock) on every transition into kFailed.
  void set_escalation_callback(std::function<void(int)> cb);

  // --- outcome feed (engine threads; thread-safe) --------------------------
  void record_success(int disk, int64_t latency_ns);
  void record_transient(int disk);
  // Verify-on-read condemned an element this disk served (the payload
  // hashed wrong): a silent-corruption outcome, tallied separately from
  // transients because the device *reported success* and lied.
  void record_checksum_mismatch(int disk);
  // A hard failure observed (fail-stop result or retry exhaustion):
  // transitions straight to kFailed and fires the escalation callback if
  // this is a new episode.
  void report_fail_stop(int disk);

  // --- controller transitions ----------------------------------------------
  // failed -> rebuilding: a spare was promoted and reconstruction is due.
  void mark_rebuilding(int disk);
  // rebuilding (or anything else, e.g. a manual repair) -> healthy; all
  // window tallies reset.
  void mark_healthy(int disk);

  // --- inspection ----------------------------------------------------------
  DiskHealth state(int disk) const;
  int64_t transients_in_window(int disk) const;
  int64_t slow_ops_in_window(int disk) const;
  int64_t checksum_mismatches_in_window(int disk) const;
  const HealthPolicy& policy() const { return policy_; }
  int disk_count() const { return static_cast<int>(disks_.size()); }

 private:
  struct PerDisk {
    mutable std::mutex mu;
    DiskHealth state = DiskHealth::kHealthy;
    // Advanced without the lock by record_success; halved and reset only
    // under it.
    std::atomic<int64_t> ops_in_window{0};
    int64_t transients = 0;
    int64_t slow_ops = 0;
    int64_t checksum_mismatches = 0;
    obs::Gauge* health_gauge = nullptr;
  };

  // Ages the window and applies threshold transitions; returns true when
  // the disk newly entered kFailed (caller fires the callback unlocked).
  bool evaluate_locked(PerDisk& d);
  void age_window_locked(PerDisk& d);
  // Halves the window count and every tally if the count has reached
  // window_ops (a concurrent caller may have halved it already).
  void halve_window_locked(PerDisk& d);
  void set_state_locked(PerDisk& d, DiskHealth next);
  void fire_escalation(int disk);

  HealthPolicy policy_;
  std::vector<std::unique_ptr<PerDisk>> disks_;
  obs::Counter* suspects_;     // transitions into kSuspect
  obs::Counter* escalations_;  // transitions into kFailed
  obs::Counter* recoveries_;   // transitions into kHealthy (from non-healthy)

  std::mutex cb_mu_;
  std::function<void(int)> escalation_cb_;
};

}  // namespace dcode::raid
