#include "raid/health_monitor.h"

#include <algorithm>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
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

HealthMonitor::HealthMonitor(std::vector<const FaultInjectingDevice*> devices,
                             obs::Registry& registry, int64_t stripes)
    : slots_(devices.size()),
      watermarks_(new std::atomic<int64_t>[devices.size()]) {
  DCODE_CHECK(!devices.empty(), "health monitor needs at least one disk");
  array_.stripes = stripes;
  for (size_t d = 0; d < devices.size(); ++d) {
    Slot& s = slots_[d];
    s.device = devices[d];
    s.seen = transfers(*s.device);
    s.health_gauge = &registry.gauge(
        "raid.disk.health", {{"disk", std::to_string(d)}},
        "device health state (0 healthy, 1 suspect, 2 failed, 3 rebuilding)");
    s.health_gauge->set(0);
    watermarks_[d].store(kWhole, std::memory_order_relaxed);
  }
  suspects_ = &registry.counter("raid.health.suspects", {},
                                "disks escalated healthy -> suspect");
  escalations_ = &registry.counter(
      "raid.health.escalations", {},
      "disks declared failed by the health monitor");
  recoveries_ = &registry.counter(
      "raid.health.recoveries", {}, "disks returned to healthy after repair");
  promotions_ = &registry.counter(
      "raid.spare_promotions", {},
      "hot spares automatically promoted into failed slots");
  pass_gauge_ = &registry.gauge(
      "raid.rebuild.in_progress", {},
      "1 while a rebuild pass is wanted or running");
}

void HealthMonitor::age_window_locked(const Slot& s) {
  const int64_t now = transfers(*s.device);
  if (now < s.seen) {  // reset_stats() zeroed the count: rebase
    s.seen = now;
    return;
  }
  // Aged one transfer at a time, the window fills at kWindowTransfers,
  // halves every tally and drops to half a window, then fills again every
  // kHalfWindow transfers.
  const int64_t filled = s.in_window + (now - s.seen);
  s.seen = now;
  if (filled < kWindowTransfers) {
    s.in_window = filled;
    return;
  }
  const int64_t over = filled - kWindowTransfers;
  const int64_t halvings = 1 + over / kHalfWindow;
  s.in_window = kHalfWindow + over % kHalfWindow;
  s.transients = halve(s.transients, halvings);
  s.checksum_mismatches = halve(s.checksum_mismatches, halvings);
}

void HealthMonitor::apply_locked(int disk, const SlotEvent& e) {
  SlotState none;
  SlotState& slot =
      disk < 0 ? none : slots_[static_cast<size_t>(disk)].state;
  const SlotTransition t = next(slot, array_, e);
  const SlotActions& act = t.actions;
  if (act.fail_device && actions_.fail_device) actions_.fail_device(disk);
  if (disk >= 0 && t.slot.watermark != slot.watermark) {
    // Before a blank goes live: readers find its stripes degraded.
    watermarks_[static_cast<size_t>(disk)].store(t.slot.watermark,
                                                 std::memory_order_release);
  }
  if (act.swap_blank && actions_.swap_blank) actions_.swap_blank(disk);
  if (t.array.spares < array_.spares) {
    promotions_->inc();
    obs::Span span(obs::TraceLog::global(), "spare.promoted",
                   {{"disk", disk}});
  }
  bool recovered = e.kind == SlotEvent::kMarkHealthy;
  for (int i = 0; i < act.transitions; ++i) {
    const auto [from, to] = act.transition[static_cast<size_t>(i)];
    obs::FlightRecorder::global().record(
        obs::FlightEventKind::kHealthTransition, 0, disk,
        static_cast<int64_t>(from), static_cast<int64_t>(to));
    if (to == DiskHealth::kSuspect) suspects_->inc();
    if (to == DiskHealth::kFailed) escalations_->inc();
    if (to == DiskHealth::kHealthy) recoveries_->inc();
    recovered |= to == DiskHealth::kHealthy;
  }
  if (disk >= 0) {
    Slot& s = slots_[static_cast<size_t>(disk)];
    s.health_gauge->set(static_cast<int64_t>(t.slot.health));
    if (recovered) {  // the window restarts at the current count
      s.seen = transfers(*s.device);
      s.in_window = s.transients = s.checksum_mismatches = 0;
    }
  }
  slot = t.slot;
  if (t.array.pass != array_.pass) {
    pass_gauge_->set(t.array.pass ? 1 : 0);
    if (!t.array.pass) pass_cv_.notify_all();
  }
  array_ = t.array;
  if (act.start_worker && actions_.start_worker) actions_.start_worker();
}

void HealthMonitor::record(int disk, int64_t Slot::*which) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& s = slots_[static_cast<size_t>(disk)];
  age_window_locked(s);
  ++(s.*which);
  if (s.transients >= kFailTransients) {
    apply_locked(disk, {SlotEvent::kFailVerdict});
  } else if (s.transients >= kSuspectTransients ||
             s.checksum_mismatches >= kSuspectChecksumMismatches) {
    apply_locked(disk, {SlotEvent::kSuspectVerdict});
  }
}

std::vector<HealthMonitor::PassTarget> HealthMonitor::targets_locked() const {
  std::vector<PassTarget> targets;
  for (size_t d = 0; d < slots_.size(); ++d) {
    const Slot& s = slots_[d];
    // A device that failed before its fail-stop report waits for that
    // report (or a replace), not for a pass.
    if (s.state.watermark == kWhole || s.device->failed()) continue;
    targets.push_back({static_cast<int>(d), s.state.generation});
  }
  return targets;
}

void HealthMonitor::claim_pass() {
  std::unique_lock<std::mutex> lock(mu_);
  pass_cv_.wait(lock, [&] { return !array_.pass; });
  apply_locked(-1, {SlotEvent::kPassStart});
}

void HealthMonitor::advance_pass(const std::vector<PassTarget>& targets,
                                 int64_t first, int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int64_t stripe = first; stripe < first + n; ++stripe) {
    for (const PassTarget& t : targets) {
      apply_locked(t.disk, {.kind = SlotEvent::kPassAdvance,
                            .generation = t.generation,
                            .stripe = stripe});
    }
  }
}

std::vector<HealthMonitor::PassTarget> HealthMonitor::next_pass(
    const std::vector<PassTarget>& done, bool stop) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const PassTarget& t : done) {
    if (slots_[static_cast<size_t>(t.disk)].device->failed()) continue;
    apply_locked(t.disk, {SlotEvent::kPassDone, t.generation});
  }
  std::vector<PassTarget> targets;
  if (!stop) targets = targets_locked();
  if (targets.empty()) apply_locked(-1, {SlotEvent::kStandDown});
  return targets;
}

bool HealthMonitor::wait_for_pass() {
  std::unique_lock<std::mutex> lock(mu_);
  pass_cv_.wait(lock, [&] { return !array_.pass; });
  return std::all_of(slots_.begin(), slots_.end(), [](const Slot& s) {
    return s.state.watermark == kWhole;
  });
}

int64_t HealthMonitor::tally(int disk, int64_t Slot::*which) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Slot& s = slots_[static_cast<size_t>(disk)];
  age_window_locked(s);
  return s.*which;
}

}  // namespace dcode::raid
