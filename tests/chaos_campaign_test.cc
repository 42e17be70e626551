// The deterministic chaos campaign: seeded fault schedules (fail-stop,
// transient bursts, silent corruption, power loss mid-write, and the
// acknowledged-but-wrong write families — misdirected, torn, lost)
// injected under a concurrent workload, with the self-healing
// invariants checked after every round:
//
//   * no data loss while concurrent failures stay within RAID-6
//     tolerance (reads always return what was written);
//   * repair-mode scrub converges to zero inconsistent stripes — for
//     the wrong-path write families that convergence is only possible
//     through the checksum sidecar (parity syndromes alone cannot
//     localize a lie the device acknowledged);
//   * journal recovery leaves no open intents and a consistent array;
//   * declared failures promote spares and rebuild to completion with
//     zero failed user reads.
//
// Everything is seeded through the repo's Pcg32 — same seed, same
// faults, same op streams — so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "chaos_schedule.h"
#include "codes/registry.h"
#include "raid/pipeline.h"
#include "raid/raid6_array.h"
#include "util/rng.h"
#include "volume/storage_pool.h"

namespace dcode::raid {
namespace {

constexpr size_t kElem = 256;
constexpr int64_t kStripes = 13;  // stripe 0 reserved for corruption
constexpr int kWorkers = 3;
constexpr int kOpsPerRound = 15;
constexpr int kRounds = 6;

struct ByteRange {
  int64_t offset = 0;
  int64_t len = 0;
};

// One workload thread's world: an exclusive byte region, its shadow
// copy, and what went wrong mid-round.
struct Worker {
  int64_t begin = 0;
  int64_t end = 0;
  std::vector<uint8_t> shadow;  // absolute-offset indexed via begin
  std::vector<ByteRange> suspects;  // writes interrupted by power loss
  int64_t verify_mismatches = 0;
  int64_t hard_failures = 0;  // DiskFailedError escaping the array
};

class ChaosCampaign : public ::testing::TestWithParam<uint64_t> {};

// Mixed read/verify/write ops over the worker's exclusive region. The
// shadow is updated *before* each write so an interrupted write's
// intended content survives as the repair source.
void run_workload(Raid6Array& array, Worker& w, uint64_t seed, int round) {
  Pcg32 rng(seed * 7919 + static_cast<uint64_t>(round) * 104729 + 13);
  const int64_t span = w.end - w.begin;
  for (int op = 0; op < kOpsPerRound; ++op) {
    const int64_t len =
        rng.next_in_range(1, static_cast<int>(3 * kElem));
    const int64_t off =
        w.begin + static_cast<int64_t>(rng.next_below(
                      static_cast<uint32_t>(span - len)));
    const bool is_write = rng.next_below(3) != 0;
    try {
      if (is_write) {
        rng.fill_bytes(w.shadow.data() + (off - w.begin),
                       static_cast<size_t>(len));
        ByteRange pending{off, len};
        array.write(off, std::span<const uint8_t>(
                             w.shadow.data() + (off - w.begin),
                             static_cast<size_t>(len)));
        (void)pending;  // completed: fully applied, shadow already matches
      } else {
        std::vector<uint8_t> out(static_cast<size_t>(len));
        array.read(off, out);
        if (std::memcmp(out.data(), w.shadow.data() + (off - w.begin),
                        static_cast<size_t>(len)) != 0) {
          ++w.verify_mismatches;
        }
      }
    } catch (const PowerLossError&) {
      if (is_write) w.suspects.push_back({off, len});
      return;  // array is down until the campaign restarts it
    } catch (const DiskFailedError&) {
      ++w.hard_failures;
      return;
    }
  }
}

TEST_P(ChaosCampaign, InvariantsHoldUnderSeededFaults) {
  const uint64_t seed = GetParam();
  auto layout = codes::make_layout("dcode", 7);
  const int disks = layout->cols();
  const int rows = layout->rows();
  const int64_t stripe_bytes =
      static_cast<int64_t>(layout->data_count()) *
      static_cast<int64_t>(kElem);

  ArrayOptions opts;
  opts.background_rebuild = true;
  obs::Registry reg;
  Raid6Array array(std::move(layout), kElem, kStripes, 4, &reg, opts);
  array.add_hot_spares(2 * kRounds);
  array.enable_journal(64);

  // Disjoint stripe-aligned regions, leaving stripe 0 as the quiet zone
  // silent corruption targets (no workload thread ever touches it, so
  // its content is exactly what repair-scrub must restore).
  const int64_t region_stripes = (kStripes - 1) / kWorkers;
  std::vector<Worker> workers(kWorkers);
  for (int t = 0; t < kWorkers; ++t) {
    workers[t].begin = (1 + t * region_stripes) * stripe_bytes;
    workers[t].end = workers[t].begin + region_stripes * stripe_bytes;
  }

  // Seed the array (and shadows) with known content.
  {
    Pcg32 rng(seed);
    std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
    rng.fill_bytes(blob.data(), blob.size());
    array.write(0, blob);
    for (auto& w : workers) {
      w.shadow.assign(blob.begin() + w.begin, blob.begin() + w.end);
    }
  }
  ASSERT_EQ(array.scrub(), 0);

  const ChaosSchedule sched = make_chaos_schedule(seed, kRounds, disks);
  for (int round = 0; round < kRounds; ++round) {
    const ChaosEvent& ev = sched.rounds[static_cast<size_t>(round)];
    SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                 std::to_string(round) + " fault " + to_string(ev.kind));

    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (int t = 0; t < kWorkers; ++t) {
      threads.emplace_back([&, t] {
        run_workload(array, workers[static_cast<size_t>(t)], seed, round);
      });
    }
    // Let the workload get in flight, then strike.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    switch (ev.kind) {
      case ChaosFault::kNone:
        break;
      case ChaosFault::kFailStop:
        if (array.failed_disk_count() < 2 && !array.disk(ev.disk).failed()) {
          array.fail_disk(ev.disk);
        }
        break;
      case ChaosFault::kDoubleFailStop:
        for (int d : {ev.disk, ev.disk2}) {
          if (array.failed_disk_count() < 2 && !array.disk(d).failed()) {
            array.fail_disk(d);
          }
        }
        break;
      case ChaosFault::kTransientShort:
      case ChaosFault::kTransientLong:
        if (!array.disk(ev.disk).failed()) {
          array.disk(ev.disk).faults().inject_transient_errors(ev.param);
        }
        break;
      case ChaosFault::kSilentCorruption: {
        // Flip bits in one element of quiet stripe 0 through the
        // unaccounted backdoor (deterministic, delta never zero).
        const int row = ev.disk % rows;
        const uint64_t off = static_cast<uint64_t>(row) * kElem;
        std::vector<uint8_t> buf(static_cast<size_t>(ev.param));
        array.disk(ev.disk).read(off, buf);
        for (auto& b : buf) b ^= 0x5A;
        array.disk(ev.disk).write(off, buf);
        break;
      }
      case ChaosFault::kPowerLoss:
        array.inject_power_loss_after(ev.param);
        break;
      // The acknowledged-but-wrong families: the device reports success
      // while the platter holds something else. Parity never sees an
      // error; only the checksum sidecar can localize these, so the
      // quiesce-time repair scrub below is their real assertion.
      case ChaosFault::kMisdirectedWrite:
        if (!array.disk(ev.disk).failed()) {
          array.disk(ev.disk).faults().inject_misdirected_writes(
              1, static_cast<uint64_t>(ev.param) * kElem);
        }
        break;
      case ChaosFault::kTornWrite:
        if (!array.disk(ev.disk).failed()) {
          array.disk(ev.disk).faults().inject_torn_writes(
              1, static_cast<size_t>(ev.param));
        }
        break;
      case ChaosFault::kLostWrite:
        if (!array.disk(ev.disk).failed()) {
          array.disk(ev.disk).faults().inject_lost_writes(
              static_cast<int>(ev.param));
        }
        break;
    }
    for (auto& th : threads) th.join();

    // --- quiesce and verify every invariant ---------------------------
    // Clears both a consumed crash and an unconsumed write budget.
    array.restart();
    // Disarm any unconsumed wrong-path write budget: the repair writes
    // the scrub below issues must actually land.
    for (int d = 0; d < disks; ++d) {
      array.disk(d).faults().clear_wrong_path_writes();
    }
    if (!array.wait_for_rebuild()) {
      array.rebuild();  // crash interrupted the worker: finish in sync
    }
    EXPECT_TRUE(array.wait_for_rebuild());
    EXPECT_EQ(array.failed_disk_count(), 0);
    if (!array.journal_open_stripes().empty()) {
      array.journal_recover();
    }
    EXPECT_TRUE(array.journal_open_stripes().empty());
    // Interrupted writes: journal recovery made the stripes consistent
    // (possibly torn between old and new data); reissue the intended
    // content from the shadow.
    for (auto& w : workers) {
      for (const ByteRange& r : w.suspects) {
        array.write(r.offset,
                    std::span<const uint8_t>(
                        w.shadow.data() + (r.offset - w.begin),
                        static_cast<size_t>(r.len)));
      }
      w.suspects.clear();
    }
    // Repair-scrub converges: one pass fixes what it finds, the second
    // finds nothing.
    ScrubReport rep = array.scrub_report({.repair = true});
    EXPECT_EQ(rep.stripes_unrepairable, 0);
    if (rep.stripes_unrepairable != 0) {
      std::string ss;
      for (int64_t s : rep.inconsistent_stripes) {
        ss += std::to_string(s) + " ";
      }
      ADD_FAILURE() << "unrepairable diagnostic: inconsistent stripes [ "
                    << ss << "] located=" << rep.elements_located
                    << " repaired=" << rep.elements_repaired
                    << " skipped=" << rep.equations_skipped;
    }
    // Leftover transients from the burst can escalate DURING the scrub
    // (health budget), promoting a spare mid-pass; drain that rebuild so
    // the convergence check runs against a fully live array.
    EXPECT_TRUE(array.wait_for_rebuild());
    EXPECT_EQ(array.scrub(), 0);
    // No data loss: every region reads back exactly as its shadow.
    for (auto& w : workers) {
      EXPECT_EQ(w.hard_failures, 0);
      EXPECT_EQ(w.verify_mismatches, 0);
      std::vector<uint8_t> out(static_cast<size_t>(w.end - w.begin));
      array.read(w.begin, out);
      EXPECT_EQ(out, w.shadow);
    }
  }

  // Campaign-level accounting: every escalated disk was promoted and
  // rebuilt; nothing is left failed or mid-rebuild. (kSuspect is fine —
  // absorbed transient bursts legitimately leave a disk on watch.)
  EXPECT_EQ(reg.gauge("raid.rebuild.in_progress").value(), 0);
  for (int d = 0; d < disks; ++d) {
    EXPECT_NE(array.health().state(d), DiskHealth::kFailed) << "disk " << d;
    EXPECT_NE(array.health().state(d), DiskHealth::kRebuilding)
        << "disk " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosCampaign,
                         ::testing::Range<uint64_t>(1, 11),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- the pipelined campaign ------------------------------------------------
// Same invariants as the synchronous campaign, but the workload now
// flows through a shared StripePipeline: two submitters race pipelined
// reads/writes (merging on, several workers) over exclusive
// stripe-aligned regions while fail-stop / double-fail-stop / power-loss
// faults strike mid-flight. Proves the journal, the failover replay
// contract, and the rebuild watermark hold under true inter-stripe
// concurrency — ops on distinct stripes really do execute in parallel
// here, unlike the per-thread synchronous calls above.

class PipelineChaosCampaign : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineChaosCampaign, InvariantsHoldUnderConcurrentSchedules) {
  const uint64_t seed = GetParam();
  auto layout = codes::make_layout("dcode", 7);
  const int disks = layout->cols();
  const int64_t stripe_bytes =
      static_cast<int64_t>(layout->data_count()) *
      static_cast<int64_t>(kElem);
  constexpr int kSubmitters = 2;
  constexpr int kPipelineRounds = 5;
  constexpr int kSubmitsPerRound = 24;

  ArrayOptions opts;
  opts.background_rebuild = true;
  obs::Registry reg;
  Raid6Array array(std::move(layout), kElem, kStripes, 4, &reg, opts);
  array.add_hot_spares(2 * kPipelineRounds);
  array.enable_journal(64);

  const int64_t region_stripes = (kStripes - 1) / kSubmitters;
  std::vector<Worker> workers(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    workers[t].begin = (1 + t * region_stripes) * stripe_bytes;
    workers[t].end = workers[t].begin + region_stripes * stripe_bytes;
  }
  {
    Pcg32 rng(seed);
    std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
    rng.fill_bytes(blob.data(), blob.size());
    array.write(0, blob);
    for (auto& w : workers) {
      w.shadow.assign(blob.begin() + w.begin, blob.begin() + w.end);
    }
  }
  ASSERT_EQ(array.scrub(), 0);

  const ChaosSchedule sched =
      make_concurrent_chaos_schedule(seed, kPipelineRounds, disks);
  for (int round = 0; round < kPipelineRounds; ++round) {
    const ChaosEvent& ev = sched.rounds[static_cast<size_t>(round)];
    SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                 std::to_string(round) + " fault " + to_string(ev.kind));

    {
      // Fresh pipeline per round; its destructor drains every queued op
      // before the quiesce block runs.
      StripePipeline pipe(array, {.workers = 3, .queue_depth = 64});
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(kSubmitters));
      for (int t = 0; t < kSubmitters; ++t) {
        threads.emplace_back([&, t] {
          Worker& w = workers[static_cast<size_t>(t)];
          Pcg32 rng(seed * 6151 + static_cast<uint64_t>(round) * 3271 +
                    static_cast<uint64_t>(t));
          struct Pending {
            OpFuture f;
            bool is_write;
            ByteRange range;
            std::unique_ptr<std::vector<uint8_t>> read_buf;
            std::vector<uint8_t> expect;  // reads: shadow at submit time
          };
          std::vector<Pending> pending;
          auto settle = [&](size_t keep) {
            while (pending.size() > keep) {
              Pending p = std::move(pending.front());
              pending.erase(pending.begin());
              try {
                p.f.get();
                if (!p.is_write &&
                    std::memcmp(p.read_buf->data(), p.expect.data(),
                                p.expect.size()) != 0) {
                  ++w.verify_mismatches;
                }
              } catch (const PowerLossError&) {
                if (p.is_write) w.suspects.push_back(p.range);
              } catch (const DiskFailedError&) {
                ++w.hard_failures;
              }
            }
          };
          for (int op = 0; op < kSubmitsPerRound; ++op) {
            const int64_t span = w.end - w.begin;
            const int64_t len =
                rng.next_in_range(1, static_cast<int>(3 * kElem));
            const int64_t off =
                w.begin + static_cast<int64_t>(rng.next_below(
                              static_cast<uint32_t>(span - len)));
            const bool is_write = rng.next_below(3) != 0;
            if (is_write) {
              rng.fill_bytes(w.shadow.data() + (off - w.begin),
                             static_cast<size_t>(len));
              auto f = pipe.submit_write(
                  off, std::span<const uint8_t>(
                           w.shadow.data() + (off - w.begin),
                           static_cast<size_t>(len)));
              pending.push_back(
                  {std::move(f), true, {off, len}, nullptr, {}});
            } else {
              auto buf = std::make_unique<std::vector<uint8_t>>(
                  static_cast<size_t>(len));
              std::vector<uint8_t> expect(
                  w.shadow.begin() + (off - w.begin),
                  w.shadow.begin() + (off - w.begin) + len);
              auto f = pipe.submit_read(
                  off, std::span<uint8_t>(buf->data(), buf->size()));
              pending.push_back({std::move(f),
                                 false,
                                 {off, len},
                                 std::move(buf),
                                 std::move(expect)});
            }
            settle(6);
          }
          settle(0);
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      switch (ev.kind) {
        case ChaosFault::kNone:
          break;
        case ChaosFault::kFailStop:
          if (array.failed_disk_count() < 2 &&
              !array.disk(ev.disk).failed()) {
            array.fail_disk(ev.disk);
          }
          break;
        case ChaosFault::kDoubleFailStop:
          for (int d : {ev.disk, ev.disk2}) {
            if (array.failed_disk_count() < 2 && !array.disk(d).failed()) {
              array.fail_disk(d);
            }
          }
          break;
        case ChaosFault::kPowerLoss:
          array.inject_power_loss_after(ev.param);
          break;
        default:
          break;
      }
      for (auto& th : threads) th.join();
    }  // ~StripePipeline: queue closed, drained, workers joined

    // --- quiesce and verify (same block as the synchronous campaign) ---
    array.restart();
    if (!array.wait_for_rebuild()) {
      array.rebuild();
    }
    EXPECT_TRUE(array.wait_for_rebuild());
    EXPECT_EQ(array.failed_disk_count(), 0);
    if (!array.journal_open_stripes().empty()) {
      array.journal_recover();
    }
    EXPECT_TRUE(array.journal_open_stripes().empty());
    for (auto& w : workers) {
      for (const ByteRange& r : w.suspects) {
        array.write(r.offset,
                    std::span<const uint8_t>(
                        w.shadow.data() + (r.offset - w.begin),
                        static_cast<size_t>(r.len)));
      }
      w.suspects.clear();
    }
    ScrubReport rep = array.scrub_report({.repair = true});
    EXPECT_EQ(rep.stripes_unrepairable, 0);
    EXPECT_TRUE(array.wait_for_rebuild());
    EXPECT_EQ(array.scrub(), 0);
    for (auto& w : workers) {
      EXPECT_EQ(w.hard_failures, 0);
      EXPECT_EQ(w.verify_mismatches, 0);
      std::vector<uint8_t> out(static_cast<size_t>(w.end - w.begin));
      array.read(w.begin, out);
      EXPECT_EQ(out, w.shadow);
    }
  }

  EXPECT_EQ(reg.gauge("raid.rebuild.in_progress").value(), 0);
  for (int d = 0; d < disks; ++d) {
    EXPECT_NE(array.health().state(d), DiskHealth::kFailed) << "disk " << d;
    EXPECT_NE(array.health().state(d), DiskHealth::kRebuilding)
        << "disk " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineChaosCampaign,
                         ::testing::Range<uint64_t>(1, 6),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// The focused TSan target: a disk dies and a spare is promoted while
// reads and writes are in flight on every pool thread; nothing may
// surface to callers and the rebuild must run to completion.
TEST(ConcurrentFailover, SparePromotionUnderConcurrentLoad) {
  auto layout = codes::make_layout("dcode", 7);
  const int64_t stripe_bytes =
      static_cast<int64_t>(layout->data_count()) *
      static_cast<int64_t>(kElem);
  ArrayOptions opts;
  opts.background_rebuild = true;
  obs::Registry reg;
  Raid6Array array(std::move(layout), kElem, /*stripes=*/12, 4, &reg, opts);
  array.add_hot_spares(1);

  Pcg32 seed_rng(99);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  seed_rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  constexpr int kThreads = 4;
  const int64_t region = 3 * stripe_bytes;
  std::atomic<int64_t> errors{0};
  std::vector<std::vector<uint8_t>> shadows(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    const int64_t begin = t * region;
    shadows[static_cast<size_t>(t)].assign(blob.begin() + begin,
                                           blob.begin() + begin + region);
    threads.emplace_back([&, t, begin] {
      auto& shadow = shadows[static_cast<size_t>(t)];
      Pcg32 rng(1000 + static_cast<uint64_t>(t));
      for (int op = 0; op < 30; ++op) {
        const int64_t len = rng.next_in_range(1, static_cast<int>(2 * kElem));
        const int64_t off = begin + static_cast<int64_t>(rng.next_below(
                                        static_cast<uint32_t>(region - len)));
        try {
          if (rng.next_below(2) == 0) {
            rng.fill_bytes(shadow.data() + (off - begin),
                           static_cast<size_t>(len));
            array.write(off, std::span<const uint8_t>(
                                 shadow.data() + (off - begin),
                                 static_cast<size_t>(len)));
          } else {
            std::vector<uint8_t> out(static_cast<size_t>(len));
            array.read(off, out);
            if (std::memcmp(out.data(), shadow.data() + (off - begin),
                            static_cast<size_t>(len)) != 0) {
              errors.fetch_add(1);
            }
          }
        } catch (...) {
          errors.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  array.fail_disk(2);
  for (auto& th : threads) th.join();

  EXPECT_TRUE(array.wait_for_rebuild());
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(array.failed_disk_count(), 0);
  EXPECT_EQ(array.hot_spares(), 0);
  EXPECT_EQ(array.health().state(2), DiskHealth::kHealthy);
  EXPECT_EQ(reg.counter("raid.spare_promotions").value(), 1);
  EXPECT_EQ(array.scrub(), 0);
  for (int t = 0; t < kThreads; ++t) {
    std::vector<uint8_t> out(static_cast<size_t>(region));
    array.read(t * region, out);
    EXPECT_EQ(out, shadows[static_cast<size_t>(t)]) << "region " << t;
  }
}

// Rebuild watermark protocol: while the background worker is throttled
// to a crawl, reads above the watermark serve degraded and reads below
// serve from the spare — both return correct data throughout.
TEST(ConcurrentFailover, ThrottledRebuildServesReadsAroundTheWatermark) {
  ArrayOptions opts;
  opts.background_rebuild = true;
  opts.rebuild_rate_stripes_per_sec = 200.0;  // ~60ms for 12 stripes
  opts.rebuild_burst_stripes = 1.0;
  obs::Registry reg;
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 12, 2, &reg, opts);
  array.add_hot_spares(1);

  Pcg32 rng(7);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  array.fail_disk(3);
  EXPECT_EQ(array.failed_disk_count(), 0);  // spare promoted instantly
  // Reads while the rebuild crawls: all must be correct regardless of
  // which side of the watermark they land on.
  std::vector<uint8_t> out(static_cast<size_t>(array.capacity()));
  for (int i = 0; i < 5; ++i) {
    std::fill(out.begin(), out.end(), 0);
    array.read(0, out);
    ASSERT_EQ(out, blob) << "iteration " << i;
  }
  EXPECT_TRUE(array.wait_for_rebuild());
  EXPECT_EQ(array.scrub(), 0);
  EXPECT_GT(reg.counter("raid.rebuild.stripes_rebuilt").value(), 0);
}

// A transfer that fail-stopped on the dead disk can report after a spare
// has replaced it. That late report names the old device's generation:
// the spare keeps its rebuild (before, it was failed in turn and the next
// spare taken). The spare failing for real is still a new episode.
TEST(ConcurrentFailover, LateFailStopFromTheReplacedDiskSparesTheSpare) {
  ArrayOptions opts;
  opts.background_rebuild = true;
  opts.rebuild_rate_stripes_per_sec = 5.0;  // outlasts the steps below
  opts.rebuild_burst_stripes = 1.0;
  obs::Registry reg;
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 12, 2, &reg, opts);
  array.add_hot_spares(2);

  Pcg32 rng(23);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  array.fail_disk(3);
  ASSERT_EQ(array.health().state(3), DiskHealth::kRebuilding);
  ASSERT_EQ(array.disk(3).faults().generation(), 1u);
  // The engine's report for a transfer that failed on the old device.
  array.health().report_fail_stop(3, /*generation=*/0);
  EXPECT_FALSE(array.disk(3).failed());
  EXPECT_EQ(array.health().state(3), DiskHealth::kRebuilding);
  EXPECT_EQ(array.hot_spares(), 1);

  array.fail_disk(3);  // the spare itself
  EXPECT_FALSE(array.disk(3).failed());
  EXPECT_EQ(array.health().state(3), DiskHealth::kRebuilding);
  EXPECT_EQ(array.hot_spares(), 0);
  EXPECT_EQ(reg.counter("raid.spare_promotions").value(), 2);

  array.set_rebuild_rate(0.0);
  EXPECT_TRUE(array.wait_for_rebuild());
  EXPECT_EQ(array.failed_disk_count(), 0);
  EXPECT_EQ(array.health().state(3), DiskHealth::kHealthy);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

// The same late report, landing after the spare's rebuild has finished:
// it still names the replaced device, so the rebuilt disk keeps serving
// instead of costing the second spare and a whole second rebuild.
TEST(ConcurrentFailover, LateFailStopAfterTheRebuildFinishedSparesTheDisk) {
  ArrayOptions opts;
  opts.background_rebuild = true;
  obs::Registry reg;
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 12, 2, &reg, opts);
  array.add_hot_spares(2);

  Pcg32 rng(29);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  array.fail_disk(3);
  ASSERT_TRUE(array.wait_for_rebuild());
  ASSERT_EQ(array.health().state(3), DiskHealth::kHealthy);
  array.health().report_fail_stop(3, /*generation=*/0);
  EXPECT_TRUE(array.wait_for_rebuild());
  EXPECT_FALSE(array.disk(3).failed());
  EXPECT_EQ(array.health().state(3), DiskHealth::kHealthy);
  EXPECT_EQ(array.hot_spares(), 1);
  EXPECT_EQ(reg.counter("raid.spare_promotions").value(), 1);
  EXPECT_EQ(array.disk(3).faults().generation(), 1u);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

// A backend whose first write waits until the test lets it go: the
// rebuild pass's write of stripe 0 to a spare, held in flight.
class HeldFirstWriteDisk : public BlockDevice {
 public:
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool held = false;
    bool released = false;
    void release() {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
      cv.notify_all();
    }
  };
  HeldFirstWriteDisk(std::unique_ptr<BlockDevice> inner, Gate& gate)
      : BlockDevice(inner->id(), inner->size()),
        inner_(std::move(inner)),
        gate_(gate) {}
  std::string_view backend_name() const override {
    return inner_->backend_name();
  }
  uint32_t capabilities() const override { return inner_->capabilities(); }

 protected:
  IoResult do_read(uint64_t offset, std::span<uint8_t> out) override {
    return inner_->read(offset, out);
  }
  IoResult do_write(uint64_t offset, std::span<const uint8_t> in) override {
    std::unique_lock<std::mutex> lock(gate_.mu);
    if (!gate_.held) {
      gate_.held = true;
      gate_.cv.notify_all();
      gate_.cv.wait(lock, [&] { return gate_.released; });
    }
    lock.unlock();
    return inner_->write(offset, in);
  }

 private:
  std::unique_ptr<BlockDevice> inner_;
  Gate& gate_;
};

// A spare that fails while the pass is writing its stripe 0: the next
// spare's promotion resets the watermark to 0 before that write lands,
// so a watermark CAS alone would take the pass's stripe 0 (written to the
// replaced spare) as rebuilt on the blank one. The pass advances only the
// device generation it started on, and the next pass rebuilds stripe 0.
TEST(ConcurrentFailover, SpareFailingMidStripeZeroLeavesNoStripeBlank) {
  auto layout = codes::make_layout("dcode", 7);
  const int disks = layout->cols();
  HeldFirstWriteDisk::Gate gate;
  std::atomic<int> created{0};
  DeviceFactory base = default_device_factory();
  ArrayOptions opts;
  opts.background_rebuild = true;
  opts.device_factory = [&](int id,
                            size_t size) -> std::unique_ptr<BlockDevice> {
    const int n = created.fetch_add(1);
    if (n == disks) {  // the first spare: hold its first write
      return std::make_unique<HeldFirstWriteDisk>(base(id, size), gate);
    }
    // The second spare is built inside its promotion, after the watermark
    // reset and before the swap, which waits for the held write.
    if (n == disks + 1) gate.release();
    return base(id, size);
  };
  obs::Registry reg;
  Raid6Array array(std::move(layout), kElem, 12, 2, &reg, opts);
  array.add_hot_spares(2);
  Pcg32 rng(31);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  array.fail_disk(3);
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.cv.wait(lock, [&] { return gate.held; });
  }
  array.fail_disk(3);  // the first spare, mid-write
  gate.release();      // in case no second promotion let the write go
  EXPECT_TRUE(array.wait_for_rebuild());
  EXPECT_EQ(reg.counter("raid.spare_promotions").value(), 2);
  EXPECT_EQ(array.health().state(3), DiskHealth::kHealthy);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
  EXPECT_EQ(reg.counter("raid.integrity.read_fallbacks").value(), 0);
  EXPECT_EQ(array.scrub(), 0);
}

// A failure discovered by a foreground op is escalated on that op's
// thread: spare promotion, then the background worker start. A
// wait_for_rebuild() from another thread in between must wait for both,
// not report "nothing to rebuild" (or "not rebuilt") from the gap. The
// spare's device factory stalls to hold the escalation open.
TEST(ConcurrentFailover, WaitForRebuildCoversAForegroundEscalation) {
  auto layout = codes::make_layout("dcode", 7);
  const int disks = layout->cols();
  std::atomic<int> created{0};
  std::atomic<bool> promoting{false};
  DeviceFactory base = default_device_factory();
  ArrayOptions opts;
  opts.background_rebuild = true;
  opts.device_factory = [&](int id, size_t size) {
    if (created.fetch_add(1) >= disks) {  // the spare, at promotion
      promoting.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return base(id, size);
  };
  obs::Registry reg;
  Raid6Array array(std::move(layout), kElem, /*stripes=*/8, 1, &reg, opts);
  array.add_hot_spares(1);
  Pcg32 rng(17);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  // A transient burst longer than the retry budget: the foreground
  // read's own retry loop fail-stops the device and escalates.
  array.disk(2).faults().inject_transient_errors(1'000'000);
  std::vector<uint8_t> out(blob.size());
  std::thread foreground([&] { array.read(0, out); });
  for (int ms = 0; ms < 10'000 && !promoting.load(); ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!promoting.load()) {
    foreground.join();
    FAIL() << "the foreground read never escalated disk 2";
  }
  EXPECT_TRUE(array.wait_for_rebuild());
  EXPECT_EQ(array.failed_disk_count(), 0);  // the spare holds the slot
  EXPECT_EQ(array.hot_spares(), 0);
  EXPECT_EQ(array.health().state(2), DiskHealth::kHealthy);
  EXPECT_EQ(reg.counter("raid.spare_promotions").value(), 1);
  foreground.join();
  EXPECT_EQ(out, blob);
  EXPECT_EQ(array.scrub(), 0);
}

// --- the pool campaign -----------------------------------------------------
// Scale-out invariants: every round attaches a shard to a StoragePool
// and, while the throttled restripe is mid-migration and concurrent
// writers hit every shard, one shard takes a fail-stop or power-loss
// fault. After each round the pool must converge: the restripe runs to
// completion (resumed after a crash stalls it), journals are clean
// pool-wide, repair-scrub finds nothing unrepairable on any shard, and
// the entire logical space — including data that crossed placements
// mid-fault — reads back exactly as the shadow.

class PoolChaosCampaign : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PoolChaosCampaign, ShardFaultsMidRestripeKeepPoolInvariants) {
  const uint64_t seed = GetParam();
  constexpr int kPoolRounds = 3;
  constexpr int kPoolWorkers = 3;
  constexpr int kPoolOps = 12;
  constexpr size_t kPoolElem = 256;

  volume::ShardSpec spec;
  spec.prime = 5;
  spec.element_size = kPoolElem;
  spec.stripes = 16;
  spec.array.background_rebuild = true;
  spec.hot_spares = kPoolRounds;  // worst case: every round hits one shard
  spec.journal_slots = 64;

  int disks_per_shard = 0;
  int64_t shard_cap = 0;
  {
    auto layout = codes::make_layout(spec.code, spec.prime);
    disks_per_shard = layout->cols();
    shard_cap = spec.stripes *
                static_cast<int64_t>(layout->data_count()) *
                static_cast<int64_t>(kPoolElem);
  }

  volume::PoolOptions popts;
  popts.chunk_bytes = shard_cap / 16;  // 16 chunks per shard
  popts.pipeline.workers = 2;
  obs::Registry reg;
  volume::StoragePool pool(spec, 2, popts, &reg);

  // The shadow covers the pool's live capacity; each round seeds the
  // space the previous restripe grew before the workload starts.
  std::vector<uint8_t> shadow;
  Pcg32 seed_rng(seed * 31 + 7);
  auto grow_shadow = [&] {
    const size_t cap = static_cast<size_t>(pool.capacity());
    if (shadow.size() < cap) {
      const size_t old = shadow.size();
      shadow.resize(cap);
      seed_rng.fill_bytes(shadow.data() + old, cap - old);
      pool.write(static_cast<int64_t>(old),
                 std::span<const uint8_t>(shadow.data() + old, cap - old));
    }
  };
  grow_shadow();
  ASSERT_EQ(pool.scrub_all(), 0);

  // Mixed ops over an exclusive region of the pooled space; lengths span
  // multiple chunks so single ops cross shard boundaries mid-restripe.
  auto run_pool_workload = [&](Worker& w, int round) {
    Pcg32 rng(seed * 4099 + static_cast<uint64_t>(round) * 9173 + 11);
    const int64_t span = w.end - w.begin;
    const int64_t max_len =
        std::min<int64_t>(span - 1, 5 * popts.chunk_bytes / 2);
    for (int op = 0; op < kPoolOps; ++op) {
      const int64_t len = rng.next_in_range(1, static_cast<int>(max_len));
      const int64_t off =
          w.begin + static_cast<int64_t>(rng.next_below(
                        static_cast<uint32_t>(span - len)));
      const bool is_write = rng.next_below(3) != 0;
      try {
        if (is_write) {
          rng.fill_bytes(shadow.data() + off, static_cast<size_t>(len));
          pool.write(off, std::span<const uint8_t>(
                              shadow.data() + off,
                              static_cast<size_t>(len)));
        } else {
          std::vector<uint8_t> out(static_cast<size_t>(len));
          pool.read(off, out);
          if (std::memcmp(out.data(), shadow.data() + off,
                          static_cast<size_t>(len)) != 0) {
            ++w.verify_mismatches;
          }
        }
      } catch (const PowerLossError&) {
        // A multi-shard write may have landed on the healthy shards
        // already; the shadow holds the intended content either way.
        if (is_write) w.suspects.push_back({off, len});
        return;  // the victim shard is down until the quiesce restarts it
      } catch (const DiskFailedError&) {
        ++w.hard_failures;
        return;
      }
    }
  };

  const ChaosSchedule sched =
      make_pool_chaos_schedule(seed, kPoolRounds, disks_per_shard);
  for (int round = 0; round < kPoolRounds; ++round) {
    const ChaosEvent& ev = sched.rounds[static_cast<size_t>(round)];
    SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                 std::to_string(round) + " fault " + to_string(ev.kind));
    grow_shadow();
    const int64_t cap = pool.capacity();

    std::vector<Worker> workers(kPoolWorkers);
    const int64_t region = cap / kPoolWorkers;
    for (int t = 0; t < kPoolWorkers; ++t) {
      workers[static_cast<size_t>(t)].begin = t * region;
      workers[static_cast<size_t>(t)].end = (t + 1) * region;
    }

    // Throttle the migrator to a crawl so the fault lands mid-restripe,
    // then attach the shard and let the writers race the watermark.
    pool.set_restripe_rate(150.0, 1.0);
    pool.add_shard();
    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (int t = 0; t < kPoolWorkers; ++t) {
      threads.emplace_back([&, t] {
        run_pool_workload(workers[static_cast<size_t>(t)], round);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    EXPECT_TRUE(pool.restripe_in_progress());
    const int victim = ev.disk2 % pool.shard_count();
    switch (ev.kind) {
      case ChaosFault::kNone:
        break;
      case ChaosFault::kFailStop: {
        Raid6Array& a = pool.shard_array(victim);
        if (a.failed_disk_count() < 2 && !a.disk(ev.disk).failed()) {
          a.fail_disk(ev.disk);
        }
        break;
      }
      case ChaosFault::kPowerLoss:
        pool.shard_array(victim).inject_power_loss_after(ev.param);
        break;
      default:
        break;
    }
    for (auto& th : threads) th.join();

    // --- quiesce and verify the pool-wide invariants -------------------
    pool.set_restripe_rate(0.0);  // unthrottle the rest of the migration
    // Reboot: pauses the migrator, restarts + replays the crashed
    // shard's journal before any copy can touch it, then resumes a
    // stalled restripe — which must now run to completion.
    pool.restart_all();
    for (int i = 0; i < pool.shard_count(); ++i) {
      if (!pool.shard_array(i).wait_for_rebuild()) {
        pool.shard_array(i).rebuild();  // crash interrupted the worker
      }
    }
    EXPECT_TRUE(pool.wait_for_rebuilds());
    ASSERT_TRUE(pool.wait_for_restripe());
    pool.journal_recover_all();
    EXPECT_EQ(pool.journal_open_intents(), 0);
    EXPECT_EQ(pool.capacity(), cap + shard_cap);
    // Interrupted writes: journal recovery left the stripes consistent
    // (possibly torn); reissue the intended bytes — now routed through
    // the completed new placement.
    for (auto& w : workers) {
      for (const ByteRange& r : w.suspects) {
        pool.write(r.offset,
                   std::span<const uint8_t>(shadow.data() + r.offset,
                                            static_cast<size_t>(r.len)));
      }
      w.suspects.clear();
    }
    ScrubReport rep = pool.scrub_repair_all();
    EXPECT_EQ(rep.stripes_unrepairable, 0);
    if (rep.stripes_unrepairable != 0) {
      for (int i = 0; i < pool.shard_count(); ++i) {
        ScrubReport r = pool.shard_array(i).scrub_report({});
        if (r.inconsistent_stripes.empty()) continue;
        std::string ss;
        for (int64_t s : r.inconsistent_stripes) ss += std::to_string(s) + " ";
        ADD_FAILURE() << "shard " << i << " inconsistent stripes [ " << ss
                      << "] skipped=" << r.equations_skipped
                      << " failed_disks="
                      << pool.shard_array(i).failed_disk_count()
                      << " rebuilding="
                      << !pool.shard_array(i).wait_for_rebuild();
      }
    }
    EXPECT_TRUE(pool.wait_for_rebuilds());
    EXPECT_EQ(pool.scrub_all(), 0);
    for (auto& w : workers) {
      EXPECT_EQ(w.hard_failures, 0);
      EXPECT_EQ(w.verify_mismatches, 0);
    }
    std::vector<uint8_t> out(shadow.size());
    pool.read(0, out);
    EXPECT_EQ(out, shadow);
  }

  // Campaign accounting: every capacity add completed, nothing is left
  // failed, crashed, or mid-rebuild anywhere in the pool.
  EXPECT_EQ(pool.shard_count(), 2 + kPoolRounds);
  EXPECT_EQ(pool.capacity(),
            static_cast<int64_t>(2 + kPoolRounds) * shard_cap);
  const volume::PoolHealth health = pool.health();
  EXPECT_EQ(health.degraded_shards, 0);
  EXPECT_EQ(health.rebuilding_shards, 0);
  EXPECT_EQ(health.crashed_shards, 0);
  EXPECT_FALSE(health.restriping);
  EXPECT_EQ(reg.counter("pool.restripes").value(), kPoolRounds);
  EXPECT_GT(reg.counter("pool.restripe.chunks_moved").value(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolChaosCampaign,
                         ::testing::Range<uint64_t>(1, 6),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dcode::raid
