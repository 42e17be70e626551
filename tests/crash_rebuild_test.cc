// Crash and corruption interactions with repair: power loss during
// rebuild and during journal recovery must leave the array repairable
// after restart, and a silently corrupted survivor must not stop a
// rebuild. Also pins which rebuilds the rebuild throttle paces, and that
// a spare promoted by an escalation is rebuilt under the default options.
#include <gtest/gtest.h>

#include <vector>

#include "codes/registry.h"
#include "obs/metrics.h"
#include "raid/journal.h"
#include "raid/raid6_array.h"
#include "raid/recovery.h"
#include "util/rng.h"

namespace dcode::raid {
namespace {

TEST(CrashDuringRebuild, RestartAndRerunCompletes) {
  Raid6Array array(codes::make_layout("dcode", 7), 256, 8, 1);
  Pcg32 rng(1);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  array.fail_disk(3);
  array.replace_disk(3);
  array.inject_power_loss_after(10);  // dies partway through the rebuild
  EXPECT_THROW(array.rebuild(), PowerLossError);
  EXPECT_TRUE(array.crashed());

  array.restart();
  // The disk is still marked for rebuild; rerunning finishes the job.
  array.rebuild();
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

TEST(CrashDuringRebuild, TwoDiskRebuildInterrupted) {
  Raid6Array array(codes::make_layout("xcode", 7), 256, 8, 2);
  Pcg32 rng(2);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  array.fail_disk(1);
  array.fail_disk(5);
  array.replace_disk(1);
  array.replace_disk(5);
  array.inject_power_loss_after(25);
  EXPECT_THROW(array.rebuild(), PowerLossError);
  array.restart();
  array.rebuild();
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

TEST(CrashDuringJournalRecovery, SecondRecoveryPassFinishes) {
  Raid6Array array(codes::make_layout("dcode", 7), 256, 6, 1);
  array.enable_journal();
  Pcg32 rng(3);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  // Tear a multi-stripe write.
  std::vector<uint8_t> patch(20 * 256);
  rng.fill_bytes(patch.data(), patch.size());
  array.inject_power_loss_after(7);
  EXPECT_THROW(array.write(0, patch), PowerLossError);
  array.restart();

  // Crash again during recovery itself (parity rewrites consume budget).
  if (!array.journal_open_stripes().empty()) {
    array.inject_power_loss_after(3);
    try {
      array.journal_recover();
    } catch (const PowerLossError&) {
    }
    array.restart();
  }
  // A final recovery pass must converge.
  array.journal_recover();
  EXPECT_TRUE(array.journal_open_stripes().empty());
  EXPECT_EQ(array.scrub(), 0);
}

// A silently corrupted survivor that the rebuild reads must not stall or
// abort it: the pass decodes the condemned element as one more erasure,
// re-verifies it against the sidecar, and writes it back beside the
// rebuilt column. Runs with the hot spare rebuilt on the background
// worker and synchronously inside fail_disk().
class ChecksumAwareRebuild : public ::testing::TestWithParam<bool> {};

TEST_P(ChecksumAwareRebuild, CondemnedSurvivorIsRepairedNotFatal) {
  constexpr size_t kElem = 512;
  constexpr int64_t kStripes = 32;
  constexpr int64_t kVictimStripe = 5;
  constexpr int kFailed = 3;
  ArrayOptions opts;
  opts.background_rebuild = GetParam();
  Raid6Array array(codes::make_layout("dcode", 7), kElem, kStripes,
                   /*threads=*/2, nullptr, opts);
  array.add_hot_spares(1);
  Pcg32 rng(16);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  // Overwrite the first survivor the minimal-read plan reads, behind the
  // array's back: the platter changes, the sidecar does not.
  const RecoveryPlan plan = plan_single_disk_recovery(
      array.layout(), kFailed, RecoveryStrategy::kMinimalReads);
  ASSERT_FALSE(plan.reads.empty());
  const codes::Element victim = plan.reads.front();
  const uint64_t offset =
      static_cast<uint64_t>(kVictimStripe * array.layout().rows() +
                            victim.row) *
      kElem;
  std::vector<uint8_t> garbage(kElem);
  rng.fill_bytes(garbage.data(), garbage.size());
  array.disk(victim.col).write(offset, garbage);

  ASSERT_NO_THROW(array.fail_disk(kFailed));
  EXPECT_TRUE(array.wait_for_rebuild());
  EXPECT_EQ(array.failed_disk_count(), 0);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
  EXPECT_EQ(array.scrub(), 0);

  std::vector<uint8_t> on_disk(kElem);
  array.disk(victim.col).read(offset, on_disk);
  EXPECT_EQ(array.io_engine().classify_element(victim.col, kVictimStripe,
                                               victim.row, on_disk.data()),
            IntegrityVerdict::kOk);
}

INSTANTIATE_TEST_SUITE_P(Modes, ChecksumAwareRebuild, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "background" : "synchronous";
                         });

// The rebuild throttle paces the background worker only: the same pass
// run by rebuild() (here inside fail_disk() without background_rebuild)
// never takes a token, so it never records a throttle wait.
class RebuildThrottle : public ::testing::TestWithParam<bool> {};

TEST_P(RebuildThrottle, PacesOnlyTheBackgroundWorker) {
  const bool background = GetParam();
  ArrayOptions opts;
  opts.background_rebuild = background;
  opts.rebuild_rate_stripes_per_sec = 100.0;  // ~150 ms for 16 stripes
  opts.rebuild_burst_stripes = 1.0;
  obs::Registry reg;
  Raid6Array array(codes::make_layout("dcode", 7), 256, /*stripes=*/16,
                   /*threads=*/2, &reg, opts);
  array.add_hot_spares(1);
  Pcg32 rng(17);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  array.fail_disk(2);
  ASSERT_TRUE(array.wait_for_rebuild());
  const obs::Histogram& waits = reg.histogram(
      "raid.rebuild.throttle_wait_ns", obs::latency_bounds_ns());
  if (background) {
    EXPECT_GT(waits.count(), 0);
  } else {
    EXPECT_EQ(waits.count(), 0);
  }
  EXPECT_EQ(reg.counter("raid.rebuild.stripes_rebuilt").value(), 16);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

INSTANTIATE_TEST_SUITE_P(Modes, RebuildThrottle, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "background" : "synchronous";
                         });

// A spare the health monitor promotes (a transient burst past the retry
// budget, seen by a foreground read) is rebuilt with the default
// options too, where no background worker was asked for: every
// promotion starts the rebuild, not only fail_disk()'s.
TEST(EscalatedSpare, IsRebuiltWithoutBackgroundRebuild) {
  obs::Registry reg;
  Raid6Array array(codes::make_layout("dcode", 7), 256, /*stripes=*/8,
                   /*threads=*/2, &reg);
  array.add_hot_spares(1);
  Pcg32 rng(18);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  array.disk(2).faults().inject_transient_errors(1000);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
  EXPECT_EQ(reg.counter("raid.spare_promotions").value(), 1);

  EXPECT_TRUE(array.wait_for_rebuild());
  EXPECT_GE(array.disk(2).readable_stripes(), array.stripes());
  EXPECT_EQ(array.health().state(2), DiskHealth::kHealthy);
  EXPECT_EQ(array.failed_disk_count(), 0);
  array.read(0, out);
  EXPECT_EQ(out, blob);
  EXPECT_EQ(array.scrub(), 0);
}

TEST(CrashBudget, ZeroBudgetCrashesImmediately) {
  Raid6Array array(codes::make_layout("dcode", 5), 128, 2, 1);
  Pcg32 rng(4);
  std::vector<uint8_t> patch(128);
  rng.fill_bytes(patch.data(), patch.size());
  array.inject_power_loss_after(0);
  EXPECT_THROW(array.write(0, patch), PowerLossError);
  array.restart();
  EXPECT_NO_THROW(array.write(0, patch));
}

}  // namespace
}  // namespace dcode::raid
