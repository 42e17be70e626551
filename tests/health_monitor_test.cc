// HealthMonitor unit tests: the deterministic state machine that decides
// when a noisy (or lying) disk becomes a dead one, plus the array-level
// wiring that feeds verify-on-read checksum mismatches into it. A seeded
// reference model pins the window, which ages by the devices' own
// transfer counts, call by call; a concurrent case runs device transfers
// against a locked entry point; and fail-stop reports are checked
// against the device generation they name.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codes/registry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "raid/address_map.h"
#include "raid/fault_injection.h"
#include "raid/health_monitor.h"
#include "raid/mem_disk.h"
#include "raid/raid6_array.h"
#include "util/rng.h"

namespace dcode::raid {
namespace {

constexpr int64_t kWindow = HealthMonitor::kWindowTransfers;
constexpr int64_t kSuspectTransients = HealthMonitor::kSuspectTransients;
constexpr int64_t kFailTransients = HealthMonitor::kFailTransients;
constexpr int64_t kSuspectMismatches =
    HealthMonitor::kSuspectChecksumMismatches;

// The devices a monitor watches, one fault decorator over a small MemDisk
// per slot. transfer() runs device ops the way every engine attempt does;
// nothing tells the monitor about them.
class Slots {
 public:
  explicit Slots(int n) {
    for (int d = 0; d < n; ++d) {
      devices_.push_back(std::make_unique<FaultInjectingDevice>(blank(d)));
    }
  }
  static std::unique_ptr<BlockDevice> blank(int d) {
    return std::make_unique<MemDisk>(d, 4096);
  }
  std::vector<const FaultInjectingDevice*> views() const {
    std::vector<const FaultInjectingDevice*> out;
    for (const auto& dev : devices_) out.push_back(dev.get());
    return out;
  }
  FaultInjectingDevice& operator[](int d) {
    return *devices_[static_cast<size_t>(d)];
  }
  void transfer(int d, int64_t n = 1) {
    uint8_t byte = 0;
    for (int64_t i = 0; i < n; ++i) {
      (void)(*this)[d].read(0, {&byte, 1});
    }
  }

 private:
  std::vector<std::unique_ptr<FaultInjectingDevice>> devices_;
};

TEST(HealthMonitor, StartsHealthyEverywhere) {
  obs::Registry reg;
  Slots slots(5);
  HealthMonitor mon(slots.views(), reg);
  EXPECT_EQ(mon.disk_count(), 5);
  for (int d = 0; d < 5; ++d) {
    EXPECT_EQ(mon.state(d), DiskHealth::kHealthy);
    EXPECT_EQ(reg.gauge("raid.disk.health", {{"disk", std::to_string(d)}})
                  .value(),
              0);
  }
}

TEST(HealthMonitor, TransientBudgetWalksHealthySuspectFailed) {
  obs::Registry reg;
  Slots slots(3);
  HealthMonitor mon(slots.views(), reg);
  std::vector<int> escalated;
  mon.set_escalation_callback([&](int d) { escalated.push_back(d); });

  for (int64_t i = 1; i < kSuspectTransients; ++i) mon.record_transient(1);
  EXPECT_EQ(mon.state(1), DiskHealth::kHealthy);
  mon.record_transient(1);
  EXPECT_EQ(mon.state(1), DiskHealth::kSuspect);
  EXPECT_EQ(reg.counter("raid.health.suspects").value(), 1);
  EXPECT_TRUE(escalated.empty());

  for (int64_t i = kSuspectTransients + 1; i < kFailTransients; ++i) {
    mon.record_transient(1);
  }
  EXPECT_EQ(mon.state(1), DiskHealth::kSuspect);
  mon.record_transient(1);
  EXPECT_EQ(mon.state(1), DiskHealth::kFailed);
  EXPECT_EQ(escalated, std::vector<int>({1}));
  EXPECT_EQ(reg.counter("raid.health.escalations").value(), 1);
  // Further noise on a failed disk is not a new episode.
  mon.record_transient(1);
  EXPECT_EQ(escalated.size(), 1u);
  // Other disks are unaffected.
  EXPECT_EQ(mon.state(0), DiskHealth::kHealthy);
  EXPECT_EQ(reg.gauge("raid.disk.health", {{"disk", "1"}}).value(), 2);
}

TEST(HealthMonitor, WindowDecayForgivesOldTransients) {
  obs::Registry reg;
  Slots slots(1);
  HealthMonitor mon(slots.views(), reg);

  mon.record_transient(0);
  mon.record_transient(0);
  mon.record_transient(0);
  EXPECT_EQ(mon.state(0), DiskHealth::kHealthy);
  EXPECT_EQ(mon.transients_in_window(0), 3);
  // Clean transfers fill the window and halve the tally: the burst fades
  // instead of accumulating toward suspect forever.
  slots.transfer(0, kWindow - 1);
  EXPECT_EQ(mon.transients_in_window(0), 3);
  slots.transfer(0);
  EXPECT_EQ(mon.transients_in_window(0), 1);
  mon.record_transient(0);
  EXPECT_EQ(mon.state(0), DiskHealth::kHealthy);
}

TEST(HealthMonitor, FailStopFiresOncePerEpisodeAndRecoveryOpensANewOne) {
  obs::Registry reg;
  Slots slots(2);
  HealthMonitor mon(slots.views(), reg);
  int fired = 0;
  mon.set_escalation_callback([&](int) { ++fired; });

  mon.report_fail_stop(0, 0);
  mon.report_fail_stop(0, 0);  // same episode
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(mon.state(0), DiskHealth::kFailed);

  mon.mark_rebuilding(0);
  EXPECT_EQ(mon.state(0), DiskHealth::kRebuilding);
  // A rebuilding disk does not re-escalate on stale transient noise.
  mon.record_transient(0);
  EXPECT_EQ(fired, 1);

  mon.mark_healthy(0);
  EXPECT_EQ(mon.state(0), DiskHealth::kHealthy);
  EXPECT_EQ(reg.counter("raid.health.recoveries").value(), 1);
  EXPECT_EQ(mon.transients_in_window(0), 0);

  mon.report_fail_stop(0, 0);  // new episode after recovery
  EXPECT_EQ(fired, 2);
}

TEST(HealthMonitor, EscalationCallbackMayReenterTheMonitor) {
  // The array's callback promotes a spare and calls mark_rebuilding from
  // inside the escalation — must not deadlock on the per-disk lock.
  obs::Registry reg;
  Slots slots(1);
  HealthMonitor mon(slots.views(), reg);
  mon.set_escalation_callback([&](int d) { mon.mark_rebuilding(d); });
  mon.report_fail_stop(0, 0);
  EXPECT_EQ(mon.state(0), DiskHealth::kRebuilding);
}

// A fail-stop report names the device generation its transfer ran on. One
// naming a device the slot has since replaced is dropped while the
// replacement works, and escalates once the replacement has failed too:
// a failed spare never goes without an episode.
TEST(HealthMonitor, StaleFailStopEscalatesOnlyWhenTheCurrentDeviceFailed) {
  obs::Registry reg;
  Slots slots(2);
  HealthMonitor mon(slots.views(), reg);
  int fired = 0;
  mon.set_escalation_callback([&](int) { ++fired; });

  slots[0].replace(Slots::blank(0));
  ASSERT_EQ(slots[0].generation(), 1u);
  mon.report_fail_stop(0, 0);
  EXPECT_EQ(mon.state(0), DiskHealth::kHealthy);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(reg.counter("raid.health.escalations").value(), 0);

  slots[0].fail();
  mon.report_fail_stop(0, 0);
  EXPECT_EQ(mon.state(0), DiskHealth::kFailed);
  EXPECT_EQ(fired, 1);
  mon.report_fail_stop(0, 1);  // the spare's own report: same episode
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(reg.counter("raid.health.escalations").value(), 1);
  EXPECT_EQ(mon.state(1), DiskHealth::kHealthy);
}

// Every state change lands in the flight recorder as a health_transition
// event: disk, old state, new state.
TEST(HealthMonitor, TransitionsAreFlightRecorded) {
  const int64_t since =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  obs::Registry reg;
  Slots slots(7);
  HealthMonitor mon(slots.views(), reg);
  for (int64_t i = 0; i < kFailTransients; ++i) mon.record_transient(6);
  ASSERT_EQ(mon.state(6), DiskHealth::kFailed);

  std::vector<obs::FlightEvent> events;
  for (const obs::FlightEvent& e : obs::FlightRecorder::global().snapshot()) {
    if (e.kind == obs::FlightEventKind::kHealthTransition && e.disk == 6 &&
        e.ts_ns >= since) {
      events.push_back(e);
    }
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].a, static_cast<int64_t>(DiskHealth::kHealthy));
  EXPECT_EQ(events[0].b, static_cast<int64_t>(DiskHealth::kSuspect));
  EXPECT_EQ(events[1].a, static_cast<int64_t>(DiskHealth::kSuspect));
  EXPECT_EQ(events[1].b, static_cast<int64_t>(DiskHealth::kFailed));
}

// The checksum channel: a disk that returns wrong bytes while reporting
// success. The policy marks it suspect at two mismatches and never fails
// it (the integrity paths re-serve the data from parity).
TEST(HealthMonitor, TwoChecksumMismatchesMarkTheDiskSuspect) {
  obs::Registry reg;
  Slots slots(2);
  HealthMonitor mon(slots.views(), reg);
  ASSERT_EQ(kSuspectMismatches, 2);
  mon.record_checksum_mismatch(1);
  EXPECT_EQ(mon.state(1), DiskHealth::kHealthy);
  mon.record_checksum_mismatch(1);
  EXPECT_EQ(mon.state(1), DiskHealth::kSuspect);
  EXPECT_EQ(mon.checksum_mismatches_in_window(1), 2);
  EXPECT_EQ(reg.counter("raid.health.suspects").value(), 1);
  EXPECT_EQ(mon.state(0), DiskHealth::kHealthy);
  EXPECT_EQ(mon.checksum_mismatches_in_window(0), 0);
}

TEST(HealthMonitor, ChecksumMismatchesNeverFailTheDiskByDefault) {
  obs::Registry reg;
  Slots slots(1);
  HealthMonitor mon(slots.views(), reg);
  int fired = 0;
  mon.set_escalation_callback([&](int) { ++fired; });
  for (int i = 0; i < 1000; ++i) mon.record_checksum_mismatch(0);
  EXPECT_EQ(mon.state(0), DiskHealth::kSuspect);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(reg.counter("raid.health.escalations").value(), 0);
}

TEST(HealthMonitor, WindowDecayHalvesTheChecksumTally) {
  obs::Registry reg;
  Slots slots(1);
  HealthMonitor mon(slots.views(), reg);
  for (int i = 0; i < 4; ++i) mon.record_checksum_mismatch(0);
  EXPECT_EQ(mon.checksum_mismatches_in_window(0), 4);
  // A window of transfers: every tally halves.
  slots.transfer(0, kWindow);
  EXPECT_EQ(mon.checksum_mismatches_in_window(0), 2);
}

// reset_stats() zeroes a device's op counts (DiskHandle::reset_stats
// calls reset_op_stats() on the decorator). The monitor rebases on the
// lower count: the tallies do not halve for it, and the window goes on
// aging from there instead of waiting for the count to climb back.
TEST(HealthMonitor, ResetStatsMidWindowNeitherHalvesNorWedges) {
  obs::Registry reg;
  Slots slots(1);
  HealthMonitor mon(slots.views(), reg);
  slots.transfer(0, 10 * kWindow);
  EXPECT_EQ(mon.transients_in_window(0), 0);
  for (int i = 0; i < 3; ++i) mon.record_transient(0);
  slots.transfer(0, kWindow / 4);
  EXPECT_EQ(mon.transients_in_window(0), 3);

  slots[0].reset_op_stats();
  slots.transfer(0, 5);
  EXPECT_EQ(mon.transients_in_window(0), 3);
  // The window stood three quarters full: half a window more fills it
  // once.
  slots.transfer(0, kWindow / 2);
  EXPECT_EQ(mon.transients_in_window(0), 1);
  EXPECT_EQ(mon.state(0), DiskHealth::kHealthy);
}

// A plain model of one slot: every device transfer ages the window one
// step, a full window halves the count and every tally, and a new
// transient or mismatch is held against the thresholds. The monitor reads
// the device's count only when it needs the window, so it catches up
// many transfers at once; single-threaded, it must match the model
// exactly, call by call.
struct WindowModel {
  DiskHealth state = DiskHealth::kHealthy;
  int64_t ops = 0;
  int64_t transients = 0;
  int64_t mismatches = 0;
  int fired = 0;  // escalation callbacks

  void transfer() {
    if (++ops < kWindow) return;
    ops /= 2;
    transients /= 2;
    mismatches /= 2;
  }
  void evaluate(int64_t* suspects, int64_t* escalations) {
    if (state == DiskHealth::kFailed || state == DiskHealth::kRebuilding) {
      return;
    }
    if (transients >= kFailTransients) {
      fail(escalations);
      return;
    }
    if (state == DiskHealth::kHealthy &&
        (transients >= kSuspectTransients ||
         mismatches >= kSuspectMismatches)) {
      state = DiskHealth::kSuspect;
      ++*suspects;
    }
  }
  void fail(int64_t* escalations) {
    if (state == DiskHealth::kFailed) return;
    state = DiskHealth::kFailed;
    ++*escalations;
    ++fired;
  }
};

bool matches(const HealthMonitor& mon, int d, const WindowModel& m,
             int fired) {
  return mon.state(d) == m.state &&
         mon.transients_in_window(d) == m.transients &&
         mon.checksum_mismatches_in_window(d) == m.mismatches &&
         fired == m.fired;
}

TEST(HealthMonitor, RandomSequencesMatchTheCountBasedWindowModel) {
  // Runs of clean transfers (now and then several windows long, which the
  // monitor catches up in one read), bursts of transients and mismatches
  // (each on a transfer of its own, as the engine's attempts are), rare
  // fail-stops and recoveries: dense enough that the disks walk every
  // state.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    obs::Registry reg;
    Slots slots(2);
    HealthMonitor mon(slots.views(), reg);
    std::vector<int> fired(2, 0);
    mon.set_escalation_callback([&](int d) { ++fired[d]; });
    std::vector<WindowModel> model(2);
    int64_t suspects = 0;
    int64_t escalations = 0;
    int64_t recoveries = 0;
    Pcg32 rng(seed);
    int calls = 0;
    while (calls < 4000) {
      const int d = static_cast<int>(rng.next_below(2));
      WindowModel& m = model[static_cast<size_t>(d)];
      const uint32_t pick = rng.next_below(100);
      const int burst = 1 + static_cast<int>(rng.next_below(5));
      for (int b = 0; b < (pick < 60 ? 1 : burst); ++b, ++calls) {
        std::string what;
        if (pick < 60) {
          const int64_t n =
              1 + rng.next_below(rng.next_below(10) == 0 ? 3 * kWindow : 16);
          what = std::to_string(n) + " transfers";
          slots.transfer(d, n);
          for (int64_t i = 0; i < n; ++i) m.transfer();
        } else if (pick < 82) {
          what = "transient";
          slots.transfer(d);
          m.transfer();
          mon.record_transient(d);
          ++m.transients;
          m.evaluate(&suspects, &escalations);
        } else if (pick < 95) {
          what = "checksum mismatch";
          slots.transfer(d);
          m.transfer();
          mon.record_checksum_mismatch(d);
          ++m.mismatches;
          m.evaluate(&suspects, &escalations);
        } else if (pick < 97) {
          what = "fail-stop";
          mon.report_fail_stop(d, slots[d].generation());
          m.fail(&escalations);
        } else {
          what = "mark healthy";
          mon.mark_healthy(d);
          if (m.state != DiskHealth::kHealthy) ++recoveries;
          m.state = DiskHealth::kHealthy;
          m.ops = m.transients = m.mismatches = 0;
        }
        ASSERT_TRUE(matches(mon, d, m, fired[static_cast<size_t>(d)]))
            << "call " << calls << " on disk " << d << ": " << what
            << "; state " << to_string(mon.state(d)) << " vs "
            << to_string(m.state) << ", transients "
            << mon.transients_in_window(d) << " vs " << m.transients
            << ", mismatches " << mon.checksum_mismatches_in_window(d)
            << " vs " << m.mismatches << ", callbacks "
            << fired[static_cast<size_t>(d)] << " vs " << m.fired;
      }
    }
    EXPECT_EQ(reg.counter("raid.health.suspects").value(), suspects);
    EXPECT_EQ(reg.counter("raid.health.escalations").value(), escalations);
    EXPECT_EQ(reg.counter("raid.health.recoveries").value(), recoveries);
    EXPECT_GT(suspects, 0);
    EXPECT_GT(escalations, 0);
  }
}

TEST(HealthMonitor, ConcurrentSuccessesStillAgeTheWindow) {
  // Four threads of device transfers against one thread of locked
  // transients on the same slot: the transients must still turn the disk
  // suspect, and once they stop, the transfers alone must decay the
  // tally to zero.
  obs::Registry reg;
  Slots slots(1);
  HealthMonitor mon(slots.views(), reg);
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      slots.transfer(0);
      started.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) slots.transfer(0);
    });
  }
  while (started.load() < 4) std::this_thread::yield();
  for (int i = 0; i < 1'000'000 && mon.state(0) != DiskHealth::kSuspect;
       ++i) {
    mon.record_transient(0);
  }
  EXPECT_EQ(mon.state(0), DiskHealth::kSuspect);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (mon.transients_in_window(0) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mon.transients_in_window(0), 0);
  EXPECT_EQ(mon.state(0), DiskHealth::kSuspect);  // decay never heals
  EXPECT_EQ(reg.counter("raid.health.suspects").value(), 1);
}

// Engine -> monitor wiring: an element overwritten behind the array's
// back fails verify-on-read, the read is re-served from parity, and the
// disk that served the bad bytes is charged one mismatch.
TEST(HealthMonitor, VerifyOnReadChargesTheDiskThatServedBadBytes) {
  constexpr size_t kElem = 64;
  obs::Registry reg;
  Raid6Array array(codes::make_layout("dcode", 5), kElem, 2, 1, &reg);
  std::vector<uint8_t> data(static_cast<size_t>(array.capacity()));
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  array.write(0, data);

  const AddressMap map(array.layout());
  const AddressMap::Location loc = map.locate(0);
  const uint64_t offset =
      (static_cast<uint64_t>(loc.stripe) *
           static_cast<uint64_t>(array.layout().rows()) +
       static_cast<uint64_t>(loc.element.row)) *
      kElem;
  std::vector<uint8_t> garbage(kElem, 0xEE);
  array.disk(loc.disk).write(offset, garbage);
  EXPECT_EQ(array.health().checksum_mismatches_in_window(loc.disk), 0);

  std::vector<uint8_t> got(kElem);
  array.read(0, got);
  EXPECT_EQ(got, std::vector<uint8_t>(data.begin(), data.begin() + kElem));
  EXPECT_EQ(array.health().checksum_mismatches_in_window(loc.disk), 1);
  EXPECT_EQ(reg.counter("raid.integrity.read_fallbacks").value(), 1);
}

}  // namespace
}  // namespace dcode::raid
