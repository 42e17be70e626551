// HealthMonitor unit tests: the deterministic state machine that decides
// when a noisy (or lying) disk becomes a dead one, plus the array-level
// wiring that feeds verify-on-read checksum mismatches into it. A seeded
// reference model pins the count-based window call by call, and a
// concurrent case drives the lock-free success path against a locked
// entry point.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "codes/registry.h"
#include "obs/metrics.h"
#include "raid/address_map.h"
#include "raid/health_monitor.h"
#include "raid/raid6_array.h"
#include "util/rng.h"

namespace dcode::raid {
namespace {

TEST(HealthMonitor, StartsHealthyEverywhere) {
  obs::Registry reg;
  HealthMonitor mon(5, {}, reg);
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
  HealthPolicy policy;
  policy.suspect_transients = 3;
  policy.fail_transients = 6;
  HealthMonitor mon(3, policy, reg);
  std::vector<int> escalated;
  mon.set_escalation_callback([&](int d) { escalated.push_back(d); });

  mon.record_transient(1);
  mon.record_transient(1);
  EXPECT_EQ(mon.state(1), DiskHealth::kHealthy);
  mon.record_transient(1);
  EXPECT_EQ(mon.state(1), DiskHealth::kSuspect);
  EXPECT_EQ(reg.counter("raid.health.suspects").value(), 1);
  EXPECT_TRUE(escalated.empty());

  mon.record_transient(1);
  mon.record_transient(1);
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
  HealthPolicy policy;
  policy.window_ops = 8;
  policy.suspect_transients = 4;
  policy.fail_transients = 0;  // never fail on transients here
  HealthMonitor mon(1, policy, reg);

  mon.record_transient(0);
  mon.record_transient(0);
  mon.record_transient(0);
  EXPECT_EQ(mon.state(0), DiskHealth::kHealthy);
  EXPECT_EQ(mon.transients_in_window(0), 3);
  // Clean traffic fills the window and halves the tally: the burst fades
  // instead of accumulating toward suspect forever.
  for (int i = 0; i < 8; ++i) mon.record_success(0, 1'000);
  EXPECT_LT(mon.transients_in_window(0), 3);
  mon.record_transient(0);
  EXPECT_EQ(mon.state(0), DiskHealth::kHealthy);
}

TEST(HealthMonitor, SlowOpsEscalateWhenLatencyTrackingEnabled) {
  obs::Registry reg;
  HealthPolicy policy;
  policy.slow_op_ns = 1'000'000;
  policy.suspect_slow_ops = 2;
  policy.fail_slow_ops = 4;
  HealthMonitor mon(2, policy, reg);
  int fired = 0;
  mon.set_escalation_callback([&](int) { ++fired; });

  mon.record_success(0, 500);  // fast: not slow
  EXPECT_EQ(mon.slow_ops_in_window(0), 0);
  mon.record_success(0, 2'000'000);
  mon.record_success(0, 2'000'000);
  EXPECT_EQ(mon.state(0), DiskHealth::kSuspect);
  mon.record_success(0, 2'000'000);
  mon.record_success(0, 2'000'000);
  EXPECT_EQ(mon.state(0), DiskHealth::kFailed);
  EXPECT_EQ(fired, 1);
}

TEST(HealthMonitor, FailStopFiresOncePerEpisodeAndRecoveryOpensANewOne) {
  obs::Registry reg;
  HealthMonitor mon(2, {}, reg);
  int fired = 0;
  mon.set_escalation_callback([&](int) { ++fired; });

  mon.report_fail_stop(0);
  mon.report_fail_stop(0);  // same episode
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

  mon.report_fail_stop(0);  // new episode after recovery
  EXPECT_EQ(fired, 2);
}

TEST(HealthMonitor, EscalationCallbackMayReenterTheMonitor) {
  // The array's callback promotes a spare and calls mark_rebuilding from
  // inside the escalation — must not deadlock on the per-disk lock.
  obs::Registry reg;
  HealthMonitor mon(1, {}, reg);
  mon.set_escalation_callback([&](int d) { mon.mark_rebuilding(d); });
  mon.report_fail_stop(0);
  EXPECT_EQ(mon.state(0), DiskHealth::kRebuilding);
}

// The checksum channel: a disk that returns wrong bytes while reporting
// success. The default policy marks it suspect at two mismatches and
// never fails it (the integrity paths re-serve the data from parity).
TEST(HealthMonitor, TwoChecksumMismatchesMarkTheDiskSuspect) {
  obs::Registry reg;
  HealthMonitor mon(2, {}, reg);
  ASSERT_EQ(mon.policy().suspect_checksum_mismatches, 2);
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
  HealthMonitor mon(1, {}, reg);
  ASSERT_EQ(mon.policy().fail_checksum_mismatches, 0);
  int fired = 0;
  mon.set_escalation_callback([&](int) { ++fired; });
  for (int i = 0; i < 1000; ++i) mon.record_checksum_mismatch(0);
  EXPECT_EQ(mon.state(0), DiskHealth::kSuspect);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(reg.counter("raid.health.escalations").value(), 0);
}

TEST(HealthMonitor, NthChecksumMismatchFiresTheEscalationOnce) {
  obs::Registry reg;
  HealthPolicy policy;
  policy.fail_checksum_mismatches = 5;
  HealthMonitor mon(1, policy, reg);
  int fired = 0;
  mon.set_escalation_callback([&](int) { ++fired; });
  for (int i = 0; i < 4; ++i) mon.record_checksum_mismatch(0);
  EXPECT_EQ(mon.state(0), DiskHealth::kSuspect);
  EXPECT_EQ(fired, 0);
  mon.record_checksum_mismatch(0);
  EXPECT_EQ(mon.state(0), DiskHealth::kFailed);
  EXPECT_EQ(fired, 1);
  // Further mismatches belong to the same episode.
  for (int i = 0; i < 10; ++i) mon.record_checksum_mismatch(0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(reg.counter("raid.health.escalations").value(), 1);
}

TEST(HealthMonitor, WindowDecayHalvesTheChecksumTally) {
  obs::Registry reg;
  HealthPolicy policy;
  policy.window_ops = 8;
  HealthMonitor mon(1, policy, reg);
  for (int i = 0; i < 4; ++i) mon.record_checksum_mismatch(0);
  EXPECT_EQ(mon.checksum_mismatches_in_window(0), 4);
  // Four successes fill the eight-outcome window: every tally halves.
  for (int i = 0; i < 4; ++i) mon.record_success(0, 1'000);
  EXPECT_EQ(mon.checksum_mismatches_in_window(0), 2);
}

// A plain model of one disk under the count-based window: every outcome
// ages the window, a full window halves the count and every tally, and
// thresholds move the state. Single-threaded calls into HealthMonitor
// must match it exactly, call by call.
struct WindowModel {
  HealthPolicy policy;
  DiskHealth state = DiskHealth::kHealthy;
  int64_t ops = 0;
  int64_t transients = 0;
  int64_t slow_ops = 0;
  int64_t mismatches = 0;
  int fired = 0;  // escalation callbacks

  void age() {
    if (++ops < policy.window_ops) return;
    ops /= 2;
    transients /= 2;
    slow_ops /= 2;
    mismatches /= 2;
  }
  static bool over(int threshold, int64_t tally) {
    return threshold > 0 && tally >= threshold;
  }
  void evaluate(int64_t* suspects, int64_t* escalations) {
    if (state == DiskHealth::kFailed || state == DiskHealth::kRebuilding) {
      return;
    }
    if (over(policy.fail_transients, transients) ||
        over(policy.fail_slow_ops, slow_ops) ||
        over(policy.fail_checksum_mismatches, mismatches)) {
      state = DiskHealth::kFailed;
      ++*escalations;
      ++fired;
      return;
    }
    if (state == DiskHealth::kHealthy &&
        (over(policy.suspect_transients, transients) ||
         over(policy.suspect_slow_ops, slow_ops) ||
         over(policy.suspect_checksum_mismatches, mismatches))) {
      state = DiskHealth::kSuspect;
      ++*suspects;
    }
  }
};

bool matches(const HealthMonitor& mon, int d, const WindowModel& m,
             int fired) {
  return mon.state(d) == m.state &&
         mon.transients_in_window(d) == m.transients &&
         mon.slow_ops_in_window(d) == m.slow_ops &&
         mon.checksum_mismatches_in_window(d) == m.mismatches &&
         fired == m.fired;
}

TEST(HealthMonitor, RandomSequencesMatchTheCountBasedWindowModel) {
  // Latency tracking off (the array's policy: a success takes the
  // lock-free path) and on (every success is locked), each with
  // thresholds low enough, and transients and mismatches bursty enough,
  // that the disks walk every state.
  for (const int64_t slow_op_ns : {int64_t{0}, int64_t{1'000}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("slow_op_ns " + std::to_string(slow_op_ns) + " seed " +
                   std::to_string(seed));
      HealthPolicy policy;
      policy.window_ops = 8;
      policy.suspect_transients = 3;
      policy.fail_transients = 6;
      policy.slow_op_ns = slow_op_ns;
      policy.suspect_slow_ops = 3;
      policy.fail_slow_ops = 5;
      policy.suspect_checksum_mismatches = 2;
      policy.fail_checksum_mismatches = 4;
      obs::Registry reg;
      HealthMonitor mon(2, policy, reg);
      std::vector<int> fired(2, 0);
      mon.set_escalation_callback([&](int d) { ++fired[d]; });
      std::vector<WindowModel> model(2);
      for (WindowModel& m : model) m.policy = policy;
      int64_t suspects = 0;
      int64_t escalations = 0;
      int64_t recoveries = 0;
      Pcg32 rng(seed);
      int calls = 0;
      while (calls < 4000) {
        const int d = static_cast<int>(rng.next_below(2));
        WindowModel& m = model[static_cast<size_t>(d)];
        const uint32_t pick = rng.next_below(100);
        const int burst = 1 + static_cast<int>(rng.next_below(4));
        for (int b = 0; b < (pick < 70 ? 1 : burst); ++b, ++calls) {
          std::string what;
          if (pick < 70) {
            const auto latency = static_cast<int64_t>(rng.next_below(2'000));
            what = "success " + std::to_string(latency);
            mon.record_success(d, latency);
            m.age();
            if (slow_op_ns > 0 && latency >= slow_op_ns) {
              ++m.slow_ops;
              m.evaluate(&suspects, &escalations);
            }
          } else if (pick < 85) {
            what = "transient";
            mon.record_transient(d);
            m.age();
            ++m.transients;
            m.evaluate(&suspects, &escalations);
          } else if (pick < 95) {
            what = "checksum mismatch";
            mon.record_checksum_mismatch(d);
            m.age();
            ++m.mismatches;
            m.evaluate(&suspects, &escalations);
          } else {
            what = "mark healthy";
            mon.mark_healthy(d);
            if (m.state != DiskHealth::kHealthy) ++recoveries;
            m.state = DiskHealth::kHealthy;
            m.ops = m.transients = m.slow_ops = m.mismatches = 0;
          }
          ASSERT_TRUE(matches(mon, d, m, fired[static_cast<size_t>(d)]))
              << "call " << calls << " on disk " << d << ": " << what
              << "; state " << to_string(mon.state(d)) << " vs "
              << to_string(m.state) << ", transients "
              << mon.transients_in_window(d) << " vs " << m.transients
              << ", slow " << mon.slow_ops_in_window(d) << " vs "
              << m.slow_ops << ", mismatches "
              << mon.checksum_mismatches_in_window(d) << " vs "
              << m.mismatches << ", callbacks "
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
}

TEST(HealthMonitor, ConcurrentSuccessesStillAgeTheWindow) {
  // Four threads of lock-free successes against one thread of locked
  // transients on the same disk: the transients must still turn the disk
  // suspect, and once they stop, the successes alone must decay the
  // tally to zero.
  obs::Registry reg;
  HealthPolicy policy;
  policy.window_ops = 1024;
  policy.suspect_transients = 4;
  policy.fail_transients = 0;
  HealthMonitor mon(1, policy, reg);
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      mon.record_success(0, 0);
      started.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) mon.record_success(0, 0);
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
