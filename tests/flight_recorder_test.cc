// Flight recorder: ring semantics, dump format, the slow-op watchdog
// integration, and a TSan-facing concurrent stress (writers on many
// threads while a reader dumps continuously — the seqlock protocol must
// hold under the race detector).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "codes/registry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "raid/raid6_array.h"
#include "util/rng.h"

namespace dcode::obs {
namespace {

TEST(FlightRecorder, RecordsAndSnapshotsInOrder) {
  FlightRecorder rec(64);
  rec.record(FlightEventKind::kReadBegin, /*op_id=*/7, /*disk=*/-1, 100, 200);
  rec.record(FlightEventKind::kDiskRead, 7, /*disk=*/3, 4096, 2);
  rec.record(FlightEventKind::kReadEnd, 7, -1, 1234, 0);

  auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kReadBegin);
  EXPECT_EQ(events[0].op_id, 7u);
  EXPECT_EQ(events[0].disk, -1);
  EXPECT_EQ(events[0].a, 100);
  EXPECT_EQ(events[0].b, 200);
  EXPECT_EQ(events[1].kind, FlightEventKind::kDiskRead);
  EXPECT_EQ(events[1].disk, 3);
  EXPECT_EQ(events[2].kind, FlightEventKind::kReadEnd);
  // Timestamps are monotone within one thread's ring.
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[1].ts_ns, events[2].ts_ns);
}

TEST(FlightRecorder, RingOverwritesOldestAndKeepsCapacity) {
  FlightRecorder rec(8);  // rounds to 8 slots
  EXPECT_EQ(rec.capacity_per_thread(), 8u);
  for (int i = 0; i < 100; ++i) {
    rec.record(FlightEventKind::kCustom, 0, -1, i, 0);
  }
  auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are exactly the most recent 8, oldest first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 92 + static_cast<int64_t>(i));
  }
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  FlightRecorder rec(64);
  rec.set_enabled(false);
  rec.record(FlightEventKind::kCustom, 0, -1, 1, 2);
  EXPECT_TRUE(rec.snapshot().empty());
  rec.set_enabled(true);
  rec.record(FlightEventKind::kCustom, 0, -1, 3, 4);
  EXPECT_EQ(rec.snapshot().size(), 1u);
}

TEST(FlightRecorder, DumpEmitsHeaderAndOneLinePerEvent) {
  FlightRecorder rec(64);
  rec.record(FlightEventKind::kDiskWrite, 42, 5, 8192, 3);
  std::ostringstream os;
  rec.dump(os, "unit_test");
  const std::string text = os.str();
  EXPECT_NE(text.find("\"type\":\"flight_dump\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"disk_write\""), std::string::npos);
  EXPECT_NE(text.find("\"op\":42"), std::string::npos);
  EXPECT_NE(text.find("\"disk\":5"), std::string::npos);
}

TEST(FlightRecorder, RequestDumpAppendsToPathAndRateLimits) {
  const std::string path = "/tmp/dcode_flight_test.jsonl";
  std::remove(path.c_str());
  FlightRecorder rec(64);
  rec.set_dump_path(path);
  rec.record(FlightEventKind::kCustom, 1, -1, 0, 0);

  EXPECT_TRUE(rec.request_dump("first"));
  // Inside the min interval: suppressed.
  EXPECT_FALSE(rec.request_dump("suppressed"));
  EXPECT_EQ(rec.dumps_written(), 1);

  rec.set_min_dump_interval_ns(0);
  EXPECT_TRUE(rec.request_dump("second"));
  EXPECT_EQ(rec.dumps_written(), 2);

  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"reason\":\"first\""), std::string::npos);
  EXPECT_EQ(text.find("\"reason\":\"suppressed\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"second\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, NoDumpPathMeansNoDump) {
  FlightRecorder rec(64);
  rec.record(FlightEventKind::kCustom, 1, -1, 0, 0);
  EXPECT_FALSE(rec.request_dump("nowhere"));
  EXPECT_EQ(rec.dumps_written(), 0);
}

// Writers on many threads, a reader snapshotting/dumping concurrently.
// Correctness bar: no crash, no torn slot surfacing as a bogus kind, and
// TSan (the suite runs under it in CI) sees no data race.
TEST(FlightRecorder, ConcurrentRecordAndDumpStress) {
  FlightRecorder rec(256);
  std::atomic<bool> stop{false};
  const int writers = 6;
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&rec, &stop, w] {
      uint64_t i = 0;
      // do-while: every writer contributes events even if the reader
      // finishes its rounds before this thread gets scheduled.
      do {
        rec.record(FlightEventKind::kDiskRead, i, w, static_cast<int64_t>(i),
                   1);
        rec.record(FlightEventKind::kDiskWrite, i, w, static_cast<int64_t>(i),
                   2);
        ++i;
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  int64_t total_seen = 0;
  auto check_events = [&](const std::vector<FlightEvent>& events) {
    total_seen += static_cast<int64_t>(events.size());
    for (const auto& e : events) {
      // Only the two kinds the writers emit can ever surface.
      EXPECT_TRUE(e.kind == FlightEventKind::kDiskRead ||
                  e.kind == FlightEventKind::kDiskWrite)
          << static_cast<int>(e.kind);
      EXPECT_GE(e.disk, 0);
      EXPECT_LT(e.disk, writers);
    }
  };
  for (int round = 0; round < 50; ++round) {
    check_events(rec.snapshot());
    std::ostringstream os;
    rec.dump(os, "stress");
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  // Quiescent pass: with the writers joined, the rings must hold every
  // guarantee the concurrent rounds could only sample.
  check_events(rec.snapshot());
  EXPECT_GT(total_seen, 0);
}

// Short-lived threads (a background rebuild pass, a bench set-up's fill)
// must not each leave a ring behind: a joined thread's ring serves the
// next one, and until it is overwritten still names who wrote it.
TEST(FlightRecorder, RingsOfExitedThreadsAreReused) {
  FlightRecorder rec(64);
  const int64_t events = 3 * static_cast<int64_t>(rec.capacity_per_thread());
  for (int t = 0; t < 64; ++t) {
    int tid = -1;
    std::thread thread([&] {
      tid = detail::this_thread_trace_id();
      for (int64_t i = 0; i < events; ++i) {
        rec.record(FlightEventKind::kCustom, 0, -1, t, i);
      }
    });
    thread.join();
    bool last_seen = false;
    for (const FlightEvent& e : rec.snapshot()) {
      EXPECT_EQ(e.tid, tid) << "thread " << t;
      last_seen |= e.a == t && e.b == events - 1;
    }
    EXPECT_TRUE(last_seen) << "thread " << t;
  }
  EXPECT_LE(rec.ring_count(), 2u);
}

// End-to-end: an array with a (deliberately absurd) slow-op threshold of
// 1ns trips the watchdog on the first op — the slow_ops counter moves
// and the configured dump file appears.
TEST(FlightRecorder, SlowOpWatchdogDumpsThroughTheArray) {
  const std::string path = "/tmp/dcode_flight_slowop_test.jsonl";
  std::remove(path.c_str());
  // The global recorder is process-wide state; restore its path after.
  auto& rec = FlightRecorder::global();
  const std::string old_path = rec.dump_path();

  rec.set_dump_path(path);

  obs::Registry reg;
  raid::ArrayOptions opts;
  opts.slow_op_threshold_ns = 1;
  raid::Raid6Array array(codes::make_layout("dcode", 5), 64, 2, 1, &reg,
                         std::move(opts));
  std::vector<uint8_t> data(static_cast<size_t>(array.capacity()), 0x5A);
  array.write(0, data);

  EXPECT_GT(reg.counter("raid.slow_ops").value(), 0);
  EXPECT_GT(rec.dumps_written(), 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "slow-op breach did not write " << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"reason\":\"slow_op\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"slow_op\""), std::string::npos);

  rec.set_dump_path(old_path);
  std::remove(path.c_str());
}

// The p999 workflow in docs/observability.md reads rebuild_stripe events
// between an op's disk reads: the rebuild pass records exactly one per
// rebuilt stripe, naming the target, the stripe, and the element reads it
// cost (the minimal-read plan's 26 for D-Code p=7).
TEST(FlightRecorder, RebuildRecordsOneEventPerRebuiltStripe) {
  constexpr int64_t kStripes = 10;
  constexpr int kFailed = 4;
  auto rebuild_events = [] {
    std::vector<FlightEvent> out;
    for (const FlightEvent& e : FlightRecorder::global().snapshot()) {
      if (e.kind == FlightEventKind::kRebuildStripe) out.push_back(e);
    }
    return out;
  };
  obs::Registry reg;
  raid::Raid6Array array(codes::make_layout("dcode", 7), 64, kStripes, 2,
                         &reg);
  std::vector<uint8_t> data(static_cast<size_t>(array.capacity()));
  Pcg32 rng(11);
  rng.fill_bytes(data.data(), data.size());
  array.write(0, data);
  array.fail_disk(kFailed);
  array.replace_disk(kFailed);

  const size_t before = rebuild_events().size();
  array.rebuild();
  const std::vector<FlightEvent> events = rebuild_events();
  ASSERT_EQ(events.size() - before, static_cast<size_t>(kStripes));
  std::vector<int> seen(static_cast<size_t>(kStripes), 0);
  for (size_t i = before; i < events.size(); ++i) {
    EXPECT_EQ(events[i].disk, kFailed);
    EXPECT_EQ(events[i].b, 26);
    ASSERT_GE(events[i].a, 0);
    ASSERT_LT(events[i].a, kStripes);
    ++seen[static_cast<size_t>(events[i].a)];
  }
  EXPECT_EQ(seen, std::vector<int>(static_cast<size_t>(kStripes), 1));
}

}  // namespace
}  // namespace dcode::obs
