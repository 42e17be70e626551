#include "raid/health_monitor.h"

#include <string>

#include "obs/flight_recorder.h"
#include "util/check.h"

namespace dcode::raid {

namespace {

constexpr int64_t kHalfWindow = HealthMonitor::kWindowTransfers / 2;

// `tally` halved `times` times.
int64_t halve(int64_t tally, int64_t times) {
  return times >= 63 ? 0 : tally >> times;
}

// Every attempt the slot's decorator has seen, whatever its outcome.
int64_t transfers(const FaultInjectingDevice& device) {
  return device.read_ops() + device.write_ops();
}

}  // namespace

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

HealthMonitor::HealthMonitor(std::vector<const FaultInjectingDevice*> devices,
                             obs::Registry& registry) {
  DCODE_CHECK(!devices.empty(), "health monitor needs at least one disk");
  disks_.reserve(devices.size());
  for (size_t d = 0; d < devices.size(); ++d) {
    auto pd = std::make_unique<PerDisk>();
    pd->id = static_cast<int>(d);
    pd->device = devices[d];
    pd->seen = transfers(*pd->device);
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
  obs::FlightRecorder::global().record(
      obs::FlightEventKind::kHealthTransition, 0, d.id,
      static_cast<int64_t>(d.state), static_cast<int64_t>(next));
  d.state = next;
  d.health_gauge->set(static_cast<int64_t>(next));
}

void HealthMonitor::age_window_locked(PerDisk& d) {
  const int64_t now = transfers(*d.device);
  if (now < d.seen) {  // reset_stats() zeroed the count: rebase
    d.seen = now;
    return;
  }
  // Aged one transfer at a time, the window fills at kWindowTransfers,
  // halves every tally and drops to half a window, then fills again every
  // kHalfWindow transfers.
  const int64_t filled = d.in_window + (now - d.seen);
  d.seen = now;
  if (filled < kWindowTransfers) {
    d.in_window = filled;
    return;
  }
  const int64_t over = filled - kWindowTransfers;
  const int64_t halvings = 1 + over / kHalfWindow;
  d.in_window = kHalfWindow + over % kHalfWindow;
  d.transients = halve(d.transients, halvings);
  d.checksum_mismatches = halve(d.checksum_mismatches, halvings);
}

bool HealthMonitor::evaluate_locked(PerDisk& d) {
  if (d.state == DiskHealth::kFailed || d.state == DiskHealth::kRebuilding) {
    return false;  // already handled / being repaired
  }
  if (d.transients >= kFailTransients) {
    set_state_locked(d, DiskHealth::kFailed);
    escalations_->inc();
    return true;
  }
  if (d.state == DiskHealth::kHealthy &&
      (d.transients >= kSuspectTransients ||
       d.checksum_mismatches >= kSuspectChecksumMismatches)) {
    set_state_locked(d, DiskHealth::kSuspect);
    suspects_->inc();
  }
  return false;
}

void HealthMonitor::record_transient(int disk) {
  PerDisk& d = slot(disk);
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
  PerDisk& d = slot(disk);
  bool escalated = false;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    age_window_locked(d);
    ++d.checksum_mismatches;
    escalated = evaluate_locked(d);
  }
  if (escalated) fire_escalation(disk);
}

void HealthMonitor::report_fail_stop(int disk, uint64_t generation) {
  PerDisk& d = slot(disk);
  bool escalated = false;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    age_window_locked(d);
    if (generation < d.device->generation() && !d.device->failed()) {
      return;  // the replaced device's late report
    }
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
  PerDisk& d = slot(disk);
  std::lock_guard<std::mutex> lock(d.mu);
  set_state_locked(d, DiskHealth::kRebuilding);
}

void HealthMonitor::mark_healthy(int disk) {
  PerDisk& d = slot(disk);
  std::lock_guard<std::mutex> lock(d.mu);
  if (d.state != DiskHealth::kHealthy) recoveries_->inc();
  d.seen = transfers(*d.device);
  d.in_window = 0;
  d.transients = 0;
  d.checksum_mismatches = 0;
  set_state_locked(d, DiskHealth::kHealthy);
}

DiskHealth HealthMonitor::state(int disk) const {
  PerDisk& d = slot(disk);
  std::lock_guard<std::mutex> lock(d.mu);
  return d.state;
}

int64_t HealthMonitor::transients_in_window(int disk) const {
  PerDisk& d = slot(disk);
  std::lock_guard<std::mutex> lock(d.mu);
  age_window_locked(d);
  return d.transients;
}

int64_t HealthMonitor::checksum_mismatches_in_window(int disk) const {
  PerDisk& d = slot(disk);
  std::lock_guard<std::mutex> lock(d.mu);
  age_window_locked(d);
  return d.checksum_mismatches;
}

}  // namespace dcode::raid
