// Write-hole tests: demonstrate the hole (crash mid-write leaves stale
// parity without journaling), prove the intent journal closes it, fuzz
// crash points across the whole write path, and hold two writers of one
// stripe to one intent each.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "codes/registry.h"
#include "parking_disk.h"
#include "raid/journal.h"
#include "raid/raid6_array.h"
#include "util/rng.h"

namespace dcode::raid {
namespace {

constexpr size_t kElem = 256;

std::vector<uint8_t> random_blob(Pcg32& rng, size_t n) {
  std::vector<uint8_t> v(n);
  rng.fill_bytes(v.data(), n);
  return v;
}

// ---------- the journal itself ----------

TEST(WriteIntentJournal, BeginCommitLifecycle) {
  WriteIntentJournal j(4);
  EXPECT_TRUE(j.empty());
  j.begin(10);
  j.begin(20);
  j.begin(10);  // idempotent
  EXPECT_EQ(j.open_stripes().size(), 2u);
  j.commit(10);
  EXPECT_EQ(j.open_stripes(), std::vector<int64_t>{20});
  j.commit(20);
  EXPECT_TRUE(j.empty());
}

TEST(WriteIntentJournal, FullJournalBackpressure) {
  WriteIntentJournal j(2);
  j.begin(1);
  j.begin(2);
  EXPECT_THROW(j.begin(3), std::logic_error);
  j.commit(1);
  EXPECT_NO_THROW(j.begin(3));
}

TEST(WriteIntentJournal, CommitWithoutBeginRejected) {
  WriteIntentJournal j(2);
  EXPECT_THROW(j.commit(7), std::logic_error);
}

// ---------- the write hole, demonstrated ----------

TEST(WriteHole, CrashMidWriteLeavesStaleParityWithoutJournal) {
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 4, 1);
  Pcg32 rng(1);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  // A single-element write = 1 data write + 2 parity writes. Crash after
  // the data write but before the parities.
  auto patch = random_blob(rng, kElem);
  array.inject_power_loss_after(1);
  EXPECT_THROW(array.write(0, patch), PowerLossError);
  EXPECT_TRUE(array.crashed());
  EXPECT_THROW(array.read(0, patch), PowerLossError) << "array is down";

  array.restart();
  EXPECT_EQ(array.scrub(), 1) << "exactly the torn stripe is inconsistent";
}

TEST(WriteHole, JournalRecoveryRestoresConsistency) {
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 4, 1);
  array.enable_journal();
  Pcg32 rng(2);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);
  ASSERT_TRUE(array.journal_open_stripes().empty())
      << "completed writes must leave no open intents";

  auto patch = random_blob(rng, kElem);
  array.inject_power_loss_after(2);  // journal record + data, no parity
  EXPECT_THROW(array.write(0, patch), PowerLossError);

  array.restart();
  EXPECT_EQ(array.journal_open_stripes().size(), 1u);
  EXPECT_EQ(array.journal_recover(), 1);
  EXPECT_TRUE(array.journal_open_stripes().empty());
  EXPECT_EQ(array.scrub(), 0) << "recovery must close the write hole";

  // The interrupted write is element-atomic: element 0 holds either the
  // old or the new bytes, everything else is untouched.
  std::vector<uint8_t> out(kElem);
  array.read(0, out);
  bool is_old = std::equal(out.begin(), out.end(), blob.begin());
  bool is_new = std::equal(out.begin(), out.end(), patch.begin());
  EXPECT_TRUE(is_old || is_new);
}

TEST(WriteHole, TornStripeSurvivesSubsequentDiskFailure) {
  // The whole point of closing the hole: after journal recovery, a disk
  // failure reconstructs correct data instead of garbage.
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 4, 1);
  array.enable_journal();
  Pcg32 rng(3);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  auto patch = random_blob(rng, 3 * kElem);
  array.inject_power_loss_after(5);
  try {
    array.write(10 * kElem, patch);
    FAIL() << "expected power loss";
  } catch (const PowerLossError&) {
  }
  array.restart();
  ASSERT_GE(array.journal_recover(), 1);

  // Shadow = whatever the array now believes (recovery made it
  // self-consistent, element-atomically).
  std::vector<uint8_t> shadow(blob.size());
  array.read(0, shadow);

  array.fail_disk(2);
  std::vector<uint8_t> degraded(blob.size());
  array.read(0, degraded);
  EXPECT_EQ(degraded, shadow)
      << "degraded reconstruction must agree with the recovered state";
}

TEST(WriteHole, CrashPointFuzz) {
  // Sweep the crash point across an entire multi-stripe write: at every
  // point, journal recovery must restore full parity consistency.
  Pcg32 rng(4);
  for (int64_t crash_after = 0; crash_after < 60; crash_after += 3) {
    Raid6Array array(codes::make_layout("xcode", 5), kElem, 3, 1);
    array.enable_journal();
    auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
    array.write(0, blob);

    auto patch = random_blob(rng, 20 * kElem);  // spans 2 stripes
    array.inject_power_loss_after(crash_after);
    bool crashed = false;
    try {
      array.write(5 * kElem, patch);
    } catch (const PowerLossError&) {
      crashed = true;
    }
    array.restart();
    array.journal_recover();
    EXPECT_EQ(array.scrub(), 0) << "crash_after=" << crash_after;
    if (!crashed) {
      // Write completed before the budget ran out: content must be exact.
      std::vector<uint8_t> out(patch.size());
      array.read(5 * kElem, out);
      EXPECT_EQ(out, patch);
    }
  }
}

// Crash-point sweeps: on a one-stripe journaled D-Code array with
// `failed` disks failed before the write, one write of the data elements
// [first, first + len) is crashed after each k = 0, 1, ... element writes
// until it completes; each crash is followed by restart() and
// journal_recover() on the array as it stands, then a full read.
struct CrashSweep {
  int64_t crash_points = 0;
  int64_t runs_with_a_third_value = 0;
  int64_t third_value_elements = 0;  // read neither old nor new bytes
  int64_t unclean_scrubs = 0;
};

void sweep_write(int p, const std::vector<int>& failed, int64_t first,
                 int64_t len, CrashSweep& sweep) {
  const int64_t data = codes::make_layout("dcode", p)->data_count();
  for (int64_t k = 0;; ++k) {
    Raid6Array array(codes::make_layout("dcode", p), kElem, 1, 1);
    array.enable_journal();
    Pcg32 rng(static_cast<uint64_t>(p * 1000 + first));
    const auto old = random_blob(rng, static_cast<size_t>(array.capacity()));
    array.write(0, old);
    for (int f : failed) array.fail_disk(f);
    const auto fresh = random_blob(rng, static_cast<size_t>(len) * kElem);
    array.inject_power_loss_after(k);
    try {
      array.write(first * static_cast<int64_t>(kElem), fresh);
      break;
    } catch (const PowerLossError&) {
    }
    ++sweep.crash_points;
    array.restart();
    array.journal_recover();
    std::vector<uint8_t> out(old.size());
    array.read(0, out);
    int64_t third = 0;
    for (int64_t e = 0; e < data; ++e) {
      const auto at = static_cast<ptrdiff_t>(e) * ptrdiff_t{kElem};
      const auto got = out.begin() + at;
      const auto end = got + ptrdiff_t{kElem};
      const bool is_old = std::equal(got, end, old.begin() + at);
      const bool is_new =
          e >= first && e < first + len &&
          std::equal(got, end,
                     fresh.begin() + static_cast<ptrdiff_t>(e - first) *
                                         ptrdiff_t{kElem});
      third += !is_old && !is_new;
    }
    sweep.third_value_elements += third;
    sweep.runs_with_a_third_value += third > 0;
    sweep.unclean_scrubs += array.scrub() != 0;
  }
}

// Every data element in turn takes a 1-element write.
CrashSweep sweep_one_element_writes(int p, const std::vector<int>& failed) {
  CrashSweep sweep;
  const int64_t data = codes::make_layout("dcode", p)->data_count();
  for (int64_t target = 0; target < data; ++target) {
    sweep_write(p, failed, target, 1, sweep);
  }
  return sweep;
}

TEST(WriteHole, EveryCrashPointOfAHealthyWriteRecoversOldOrNew) {
  // D-Code p=5 and p=7, healthy: the intent journal closes the hole at
  // every crash point of every 1-element write (5 per target: the intent
  // record, the data write, two parity writes, the commit record).
  for (int p : {5, 7}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const CrashSweep sweep = sweep_one_element_writes(p, {});
    EXPECT_EQ(sweep.crash_points,
              5 * codes::make_layout("dcode", p)->data_count());
    EXPECT_EQ(sweep.runs_with_a_third_value, 0);
    EXPECT_EQ(sweep.third_value_elements, 0);
    EXPECT_EQ(sweep.unclean_scrubs, 0);
  }
}

TEST(WriteHole, EveryCrashPointOfAFullStripeWriteRecoversOldOrNew) {
  // D-Code p=5 and p=7, healthy: a full-stripe write over a written
  // stripe encodes its parity and sends every cell in one batch, so its
  // crash points are the intent record, each of the stripe's cells and
  // the commit record. At each, replay leaves every element old or new
  // and the stripe consistent.
  for (int p : {5, 7}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const auto layout = codes::make_layout("dcode", p);
    CrashSweep sweep;
    sweep_write(p, {}, 0, layout->data_count(), sweep);
    EXPECT_EQ(sweep.crash_points, layout->rows() * layout->cols() + 2);
    EXPECT_EQ(sweep.runs_with_a_third_value, 0);
    EXPECT_EQ(sweep.third_value_elements, 0);
    EXPECT_EQ(sweep.unclean_scrubs, 0);
  }
}

TEST(WriteHole, RecoverRequiresJournalButToleratesDegraded) {
  Raid6Array array(codes::make_layout("dcode", 5), kElem, 2, 1);
  EXPECT_THROW((void)array.journal_recover(), std::logic_error);
  array.enable_journal();
  EXPECT_THROW(array.enable_journal(), std::logic_error);
  // A crash can race a disk failure, so recovery must run on a degraded
  // array (the re-encode decodes lost columns and skips dead devices).
  array.fail_disk(0);
  EXPECT_EQ(array.journal_recover(), 0);
}

TEST(WriteHole, JournaledDegradedWritesAlsoCovered) {
  Raid6Array array(codes::make_layout("rdp", 7), kElem, 3, 1);
  array.enable_journal();
  Pcg32 rng(5);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  array.fail_disk(1);
  auto patch = random_blob(rng, 4 * kElem);
  array.inject_power_loss_after(10);  // stripe-rewrite is many writes
  try {
    array.write(0, patch);
  } catch (const PowerLossError&) {
  }
  array.restart();
  // Repair the failed disk first, then close the hole.
  array.replace_disk(1);
  // Rebuild of a torn stripe may produce stale-but-consistent-with-parity
  // content; journal_recover then re-encodes it. Order: rebuild (needs
  // all disks present), then recover.
  array.rebuild();
  array.journal_recover();
  EXPECT_EQ(array.scrub(), 0);
}

// Two writers of one journaled stripe, each writing its own element of
// stripe 0 over and over: every write must find its own intent open from
// before its first element write to its commit. (With the intent opened
// before the stripe lock and committed after it, one writer's commit
// closed the other's intent: the second commit then threw "commit without
// matching begin" after its bytes had landed.)
TEST(WriteHole, TwoWritersOfOneStripeEachKeepAnIntent) {
  constexpr int kWrites = 20'000;
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 4, 1);
  array.enable_journal();
  Pcg32 rng(41);
  array.write(0, random_blob(rng, static_cast<size_t>(array.capacity())));
  std::atomic<int64_t> errors{0};
  std::vector<std::vector<uint8_t>> last(2, std::vector<uint8_t>(kElem));
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Pcg32 mine(100 + static_cast<uint64_t>(t));
      std::vector<uint8_t>& buf = last[static_cast<size_t>(t)];
      for (int i = 0; i < kWrites; ++i) {
        mine.fill_bytes(buf.data(), buf.size());
        try {
          array.write(t * static_cast<int64_t>(kElem), buf);
        } catch (const std::exception&) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(array.journal_open_stripes().empty());
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> got(2 * kElem);
  array.read(0, got);
  EXPECT_TRUE(std::equal(last[0].begin(), last[0].end(), got.begin()));
  EXPECT_TRUE(std::equal(last[1].begin(), last[1].end(), got.begin() + kElem));
}

// The same two writers, interleaved on purpose: A parks in its first
// device write with its intent open; B starts a write to another element
// of the stripe; A finishes and commits; then B crashes after its data
// write, before its parities. Replay must find B's intent and leave every
// element old or new in a consistent stripe.
TEST(WriteHole, WriterCrashingAfterAnotherCommittedIsReplayed) {
  WriteParking parking;
  const DeviceFactory backend = default_device_factory();
  ArrayOptions opts;
  opts.device_factory = [&](int id, size_t size) {
    return std::unique_ptr<BlockDevice>(
        std::make_unique<ParkingDisk>(backend(id, size), &parking));
  };
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 4, 1, nullptr,
                   std::move(opts));
  array.enable_journal();
  Pcg32 rng(43);
  const auto old = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, old);
  const auto a = random_blob(rng, kElem);
  const auto b = random_blob(rng, kElem);

  std::thread writer_a([&] {
    park_my_writes = true;
    array.write(0, a);
  });
  bool parked = false;
  {
    std::unique_lock<std::mutex> lock(parking.mu);
    parked = parking.cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return parking.parked; });
  }
  EXPECT_TRUE(parked) << "writer A never reached a device";
  bool b_crashed = false;
  std::thread writer_b([&] {
    try {
      array.write(static_cast<int64_t>(kElem), b);
    } catch (const PowerLossError&) {
      b_crashed = true;
    }
  });
  // Let B reach the stripe A holds.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // A's two parity writes and its commit record, B's intent record and
  // its data write: the crash lands before B's first parity write.
  array.inject_power_loss_after(5);
  {
    std::lock_guard<std::mutex> lock(parking.mu);
    parking.released = true;
  }
  parking.cv.notify_all();
  writer_a.join();
  writer_b.join();
  ASSERT_TRUE(b_crashed);

  array.restart();
  array.journal_recover();
  EXPECT_TRUE(array.journal_open_stripes().empty());
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> got(old.size());
  array.read(0, got);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), got.begin()));
  const auto elem1 = got.begin() + kElem;
  EXPECT_TRUE(std::equal(b.begin(), b.end(), elem1) ||
              std::equal(old.begin() + kElem, old.begin() + 2 * kElem, elem1));
  EXPECT_TRUE(std::equal(old.begin() + 2 * kElem, old.end(),
                         got.begin() + 2 * kElem));
}

}  // namespace
}  // namespace dcode::raid
