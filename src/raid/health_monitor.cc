#include "raid/health_monitor.h"

#include "util/check.h"

namespace dcode::raid {

const char* to_string(DiskHealth h) {
  switch (h) {
    case DiskHealth::kHealthy:
      return "healthy";
    case DiskHealth::kSuspect:
      return "suspect";
    case DiskHealth::kFailed:
      return "failed";
    case DiskHealth::kRebuilding:
      return "rebuilding";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(int disks, HealthPolicy policy,
                             obs::Registry& registry)
    : policy_(policy) {
  DCODE_CHECK(disks > 0, "health monitor needs at least one disk");
  DCODE_CHECK(policy_.window_ops > 0, "health window must be positive");
  disks_.reserve(static_cast<size_t>(disks));
  for (int d = 0; d < disks; ++d) {
    auto pd = std::make_unique<PerDisk>();
    pd->health_gauge = &registry.gauge(
        "raid.disk.health", {{"disk", std::to_string(d)}},
        "device health state (0 healthy, 1 suspect, 2 failed, 3 rebuilding)");
    pd->health_gauge->set(0);
    disks_.push_back(std::move(pd));
  }
  suspects_ = &registry.counter("raid.health.suspects", {},
                                "disks escalated healthy -> suspect");
  escalations_ = &registry.counter(
      "raid.health.escalations", {},
      "disks declared failed by the health monitor");
  recoveries_ = &registry.counter(
      "raid.health.recoveries", {}, "disks returned to healthy after repair");
}

void HealthMonitor::set_escalation_callback(std::function<void(int)> cb) {
  std::lock_guard<std::mutex> lock(cb_mu_);
  escalation_cb_ = std::move(cb);
}

void HealthMonitor::set_state_locked(PerDisk& d, DiskHealth next) {
  if (d.state == next) return;
  d.state = next;
  d.health_gauge->set(static_cast<int64_t>(next));
}

void HealthMonitor::age_window_locked(PerDisk& d) {
  if (d.ops_in_window.fetch_add(1, std::memory_order_relaxed) + 1 >=
      policy_.window_ops) {
    halve_window_locked(d);
  }
}

void HealthMonitor::halve_window_locked(PerDisk& d) {
  // Window full: halve everything. A tally of transients decays to zero
  // within a few windows of clean traffic instead of haunting the disk
  // forever, and the decay is purely count-driven (deterministic). The
  // compare-exchange keeps any lock-free success that lands meanwhile.
  int64_t n = d.ops_in_window.load(std::memory_order_relaxed);
  while (n >= policy_.window_ops &&
         !d.ops_in_window.compare_exchange_weak(n, n / 2,
                                                std::memory_order_relaxed)) {
  }
  if (n < policy_.window_ops) return;
  d.transients /= 2;
  d.slow_ops /= 2;
  d.checksum_mismatches /= 2;
}

bool HealthMonitor::evaluate_locked(PerDisk& d) {
  if (d.state == DiskHealth::kFailed || d.state == DiskHealth::kRebuilding) {
    return false;  // already handled / being repaired
  }
  const bool transient_fail = policy_.fail_transients > 0 &&
                              d.transients >= policy_.fail_transients;
  const bool slow_fail =
      policy_.fail_slow_ops > 0 && d.slow_ops >= policy_.fail_slow_ops;
  const bool checksum_fail =
      policy_.fail_checksum_mismatches > 0 &&
      d.checksum_mismatches >= policy_.fail_checksum_mismatches;
  if (transient_fail || slow_fail || checksum_fail) {
    set_state_locked(d, DiskHealth::kFailed);
    escalations_->inc();
    return true;
  }
  const bool transient_suspect = policy_.suspect_transients > 0 &&
                                 d.transients >= policy_.suspect_transients;
  const bool slow_suspect =
      policy_.suspect_slow_ops > 0 && d.slow_ops >= policy_.suspect_slow_ops;
  const bool checksum_suspect =
      policy_.suspect_checksum_mismatches > 0 &&
      d.checksum_mismatches >= policy_.suspect_checksum_mismatches;
  if (d.state == DiskHealth::kHealthy &&
      (transient_suspect || slow_suspect || checksum_suspect)) {
    set_state_locked(d, DiskHealth::kSuspect);
    suspects_->inc();
  }
  return false;
}

void HealthMonitor::record_success(int disk, int64_t latency_ns) {
  PerDisk& d = *disks_[static_cast<size_t>(disk)];
  if (policy_.slow_op_ns <= 0) {
    // Only the window count changes, so only a full window takes the lock.
    if (d.ops_in_window.fetch_add(1, std::memory_order_relaxed) + 1 >=
        policy_.window_ops) {
      std::lock_guard<std::mutex> lock(d.mu);
      halve_window_locked(d);
    }
    return;
  }
  bool escalated = false;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    age_window_locked(d);
    if (latency_ns >= policy_.slow_op_ns) {
      ++d.slow_ops;
      escalated = evaluate_locked(d);
    }
  }
  if (escalated) fire_escalation(disk);
}

void HealthMonitor::record_transient(int disk) {
  PerDisk& d = *disks_[static_cast<size_t>(disk)];
  bool escalated = false;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    age_window_locked(d);
    ++d.transients;
    escalated = evaluate_locked(d);
  }
  if (escalated) fire_escalation(disk);
}

void HealthMonitor::record_checksum_mismatch(int disk) {
  PerDisk& d = *disks_[static_cast<size_t>(disk)];
  bool escalated = false;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    age_window_locked(d);
    ++d.checksum_mismatches;
    escalated = evaluate_locked(d);
  }
  if (escalated) fire_escalation(disk);
}

void HealthMonitor::report_fail_stop(int disk) {
  PerDisk& d = *disks_[static_cast<size_t>(disk)];
  bool escalated = false;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    if (d.state != DiskHealth::kFailed) {
      set_state_locked(d, DiskHealth::kFailed);
      escalations_->inc();
      escalated = true;
    }
  }
  if (escalated) fire_escalation(disk);
}

void HealthMonitor::fire_escalation(int disk) {
  // Copy under the lock, invoke outside it: the callback may re-enter the
  // monitor (mark_rebuilding) or trigger further fail-stops.
  std::function<void(int)> cb;
  {
    std::lock_guard<std::mutex> lock(cb_mu_);
    cb = escalation_cb_;
  }
  if (cb) cb(disk);
}

void HealthMonitor::mark_rebuilding(int disk) {
  PerDisk& d = *disks_[static_cast<size_t>(disk)];
  std::lock_guard<std::mutex> lock(d.mu);
  set_state_locked(d, DiskHealth::kRebuilding);
}

void HealthMonitor::mark_healthy(int disk) {
  PerDisk& d = *disks_[static_cast<size_t>(disk)];
  std::lock_guard<std::mutex> lock(d.mu);
  if (d.state != DiskHealth::kHealthy) recoveries_->inc();
  d.ops_in_window.store(0, std::memory_order_relaxed);
  d.transients = 0;
  d.slow_ops = 0;
  d.checksum_mismatches = 0;
  set_state_locked(d, DiskHealth::kHealthy);
}

DiskHealth HealthMonitor::state(int disk) const {
  const PerDisk& d = *disks_[static_cast<size_t>(disk)];
  std::lock_guard<std::mutex> lock(d.mu);
  return d.state;
}

int64_t HealthMonitor::transients_in_window(int disk) const {
  const PerDisk& d = *disks_[static_cast<size_t>(disk)];
  std::lock_guard<std::mutex> lock(d.mu);
  return d.transients;
}

int64_t HealthMonitor::slow_ops_in_window(int disk) const {
  const PerDisk& d = *disks_[static_cast<size_t>(disk)];
  std::lock_guard<std::mutex> lock(d.mu);
  return d.slow_ops;
}

int64_t HealthMonitor::checksum_mismatches_in_window(int disk) const {
  const PerDisk& d = *disks_[static_cast<size_t>(disk)];
  std::lock_guard<std::mutex> lock(d.mu);
  return d.checksum_mismatches;
}

}  // namespace dcode::raid
