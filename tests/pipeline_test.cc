// Request-pipeline tests: the OpQueue, the StripeRangeLock admission
// protocol, the StripeLockTable, and the StripePipeline's end-to-end
// ordering contract — any concurrent schedule of ops, from clients that
// wait for each op and clients that keep several in flight, leaves the
// array bit-identical to a serial array that applied the same ops in
// admission order (the seeded property tests at the bottom, also run
// under TSan via the `pipeline` ctest label).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codes/registry.h"
#include "raid/journal.h"
#include "raid/pipeline.h"
#include "raid/raid6_array.h"
#include "util/rng.h"

namespace dcode::raid {
namespace {

constexpr size_t kElem = 128;

std::vector<uint8_t> random_blob(Pcg32& rng, size_t n) {
  std::vector<uint8_t> v(n);
  rng.fill_bytes(v.data(), n);
  return v;
}

PendingOp make_write(int64_t offset, int64_t len, uint8_t fill) {
  PendingOp op;
  op.is_write = true;
  op.offset = offset;
  op.len = len;
  op.owned.assign(static_cast<size_t>(len), fill);
  op.write_src = op.owned.data();
  op.state = std::make_shared<OpState>();
  return op;
}

PendingOp make_read(int64_t offset, int64_t len) {
  PendingOp op;
  op.is_write = false;
  op.offset = offset;
  op.len = len;
  op.state = std::make_shared<OpState>();
  return op;
}

const obs::MetricSnapshot& find_metric(const obs::RegistrySnapshot& snap,
                                       const std::string& name) {
  for (const auto& m : snap.metrics)
    if (m.name == name) return m;
  throw std::logic_error("metric not found: " + name);
}

// ---------- OpQueue ----------

TEST(OpQueue, PopsOneOpAtATimeInAdmissionOrder) {
  StripeRangeLock rl;
  OpQueue q(16, rl);
  ASSERT_TRUE(q.push(make_write(0, 10, 1)));
  ASSERT_TRUE(q.push(make_write(10, 10, 2)));  // adjoins: still its own op
  ASSERT_TRUE(q.push(make_read(5, 10)));
  uint64_t last_seq = 0;
  for (int i = 0; i < 3; ++i) {
    PendingOp op;
    ASSERT_TRUE(q.pop(&op));
    EXPECT_GT(op.seq, last_seq);
    EXPECT_EQ(op.state->seq, op.seq);
    last_seq = op.seq;
  }
  EXPECT_EQ(q.depth(), 0u);
}

TEST(OpQueue, AdmitsTicketAtPushUnderTheQueueLock) {
  StripeRangeLock rl;
  OpQueue q(16, rl);
  ASSERT_TRUE(q.push(make_write(0, 10, 1)));
  // The ticket exists before any worker pops the op, so an op admitted
  // later straight on the range lock orders behind it.
  EXPECT_EQ(rl.registered(), 1u);
  const uint64_t direct_seq = rl.admit(0, 0, /*is_write=*/false);
  ASSERT_TRUE(q.push(make_write(10, 10, 2)));
  PendingOp a, b;
  ASSERT_TRUE(q.pop(&a));
  ASSERT_TRUE(q.pop(&b));
  EXPECT_LT(a.seq, direct_seq);
  EXPECT_LT(direct_seq, b.seq);
  EXPECT_EQ(rl.registered(), 3u);  // popping does not retire tickets
  for (uint64_t seq : {a.seq, direct_seq, b.seq}) rl.release(seq);
}

TEST(OpQueue, BackpressureBlocksPushUntilPop) {
  StripeRangeLock rl;
  OpQueue q(2, rl);
  ASSERT_TRUE(q.push(make_read(0, 10)));
  ASSERT_TRUE(q.push(make_read(10, 10)));
  std::atomic<bool> pushed{false};
  std::thread t([&] {
    EXPECT_TRUE(q.push(make_read(20, 10)));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());       // still at depth 2
  EXPECT_EQ(rl.registered(), 2u);    // a blocked push holds no ticket
  PendingOp op;
  ASSERT_TRUE(q.pop(&op));
  t.join();
  EXPECT_TRUE(pushed.load());
}

TEST(OpQueue, CloseDrainsThenStops) {
  StripeRangeLock rl;
  OpQueue q(16, rl);
  ASSERT_TRUE(q.push(make_read(0, 10)));
  q.close();
  EXPECT_FALSE(q.push(make_read(10, 10)));
  EXPECT_EQ(rl.registered(), 1u);  // the refused push was not admitted
  PendingOp op;
  EXPECT_TRUE(q.pop(&op));   // drains the queued op
  EXPECT_FALSE(q.pop(&op));  // then reports closed
}

// ---------- StripeRangeLock: admission protocol ----------

TEST(StripeRangeLock, OverlappingWritersSerializeInAdmissionOrder) {
  StripeRangeLock rl;
  const uint64_t t1 = rl.admit(0, 2, /*is_write=*/true);
  const uint64_t t2 = rl.admit(2, 4, /*is_write=*/true);  // overlaps stripe 2
  EXPECT_LT(t1, t2);
  rl.acquire(t1);
  std::atomic<bool> acquired2{false};
  std::thread t([&] {
    rl.acquire(t2);
    acquired2.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired2.load());
  rl.release(t1);
  t.join();
  EXPECT_TRUE(acquired2.load());
  rl.release(t2);
  EXPECT_EQ(rl.registered(), 0u);
}

TEST(StripeRangeLock, DisjointRangesProceedConcurrently) {
  StripeRangeLock rl;
  const uint64_t t1 = rl.admit(0, 1, true);
  const uint64_t t2 = rl.admit(5, 6, true);
  rl.acquire(t1);
  rl.acquire(t2);  // must not block: no overlap
  rl.release(t1);
  rl.release(t2);
}

TEST(StripeRangeLock, ReadersShareReadersButNotWriters) {
  StripeRangeLock rl;
  const uint64_t t1 = rl.admit(0, 3, false);
  const uint64_t t2 = rl.admit(1, 2, false);
  rl.acquire(t1);
  rl.acquire(t2);  // read/read overlap is fine
  const uint64_t t3 = rl.admit(1, 1, true);
  std::atomic<bool> acquired3{false};
  std::thread t([&] {
    rl.acquire(t3);
    acquired3.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired3.load());  // writer waits for both readers
  rl.release(t2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired3.load());
  rl.release(t1);
  t.join();
  rl.release(t3);
}

// ---------- StripeLockTable ----------

TEST(StripeLockTable, ConfigurableSlotCountAndModuloSharding) {
  StripeLockTable t(7);
  EXPECT_EQ(t.slot_count(), 7u);
  auto l = t.lock(3);
  EXPECT_TRUE(l.owns_lock());
  auto m = t.lock(4);  // different slot: no deadlock, both held
  EXPECT_TRUE(m.owns_lock());
}

TEST(StripeLockTable, RecordsContendedWaits) {
  obs::Registry reg;
  auto& h = reg.histogram("t.wait_ns", obs::latency_bounds_ns(), {}, "");
  StripeLockTable t(4, &h);
  auto l = t.lock(0);
  std::thread waiter([&] {
    auto w = t.lock(4);  // same slot as stripe 0 (4 % 4)
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  l.unlock();
  waiter.join();
  EXPECT_GE(find_metric(reg.snapshot(), "t.wait_ns").count, 1);
}

// ---------- StripePipeline: end-to-end ----------

Raid6Array make_array(obs::Registry& reg, int64_t stripes = 8) {
  return Raid6Array(codes::make_layout("dcode", 7), kElem, stripes, 2, &reg);
}

TEST(StripePipeline, ReadsAndWritesRoundTrip) {
  obs::Registry reg;
  auto array = make_array(reg);
  Pcg32 rng(42);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  StripePipeline pipe(array, {.workers = 3, .queue_depth = 32});
  std::vector<OpFuture> futs;
  const int64_t chunk = 1000;
  for (int64_t off = 0; off < array.capacity(); off += chunk) {
    const int64_t n = std::min(chunk, array.capacity() - off);
    futs.push_back(pipe.submit_write(
        off, std::span<const uint8_t>(blob.data() + off,
                                      static_cast<size_t>(n))));
  }
  for (auto& f : futs) f.get();
  std::vector<uint8_t> back(blob.size());
  std::vector<OpFuture> reads;
  for (int64_t off = 0; off < array.capacity(); off += chunk) {
    const int64_t n = std::min(chunk, array.capacity() - off);
    reads.push_back(pipe.submit_read(
        off, std::span<uint8_t>(back.data() + off, static_cast<size_t>(n))));
  }
  pipe.drain();
  for (auto& f : reads) EXPECT_TRUE(f.ready());
  EXPECT_EQ(back, blob);
  EXPECT_EQ(array.scrub(), 0);
  auto snap = reg.snapshot();
  EXPECT_EQ(find_metric(snap, "pipeline.ops_submitted").value,
            find_metric(snap, "pipeline.ops_completed").value);
  EXPECT_EQ(find_metric(snap, "pipeline.queue_depth").value, 0);
}

TEST(StripePipeline, SequenceNumbersFollowSubmissionOrder) {
  obs::Registry reg;
  auto array = make_array(reg);
  StripePipeline pipe(array, {.workers = 2});
  std::vector<uint8_t> d(64, 0xAB);
  auto f1 = pipe.submit_write(0, d);
  auto f2 = pipe.submit_write(0, d);
  auto f3 = pipe.submit_read(0, d);
  EXPECT_LT(f1.sequence(), f2.sequence());
  EXPECT_LT(f2.sequence(), f3.sequence());
  EXPECT_NE(f1.op_id(), f2.op_id());
  pipe.drain();
  EXPECT_GT(f1.latency_ns(), 0);
}

TEST(StripePipeline, ZeroLengthOpsCompleteInline) {
  obs::Registry reg;
  auto array = make_array(reg);
  StripePipeline pipe(array, {.workers = 1});
  std::vector<uint8_t> empty;
  auto f = pipe.submit_write(0, empty);
  EXPECT_TRUE(f.ready());
  f.get();
}

TEST(StripePipeline, OutOfRangeSubmitThrowsSynchronously) {
  obs::Registry reg;
  auto array = make_array(reg);
  StripePipeline pipe(array, {.workers = 1});
  std::vector<uint8_t> d(64);
  EXPECT_THROW(pipe.submit_write(array.capacity(), d), std::logic_error);
  EXPECT_THROW(pipe.submit_read(-1, d), std::logic_error);
}

TEST(StripePipeline, PowerLossSurfacesOnTheFuture) {
  obs::Registry reg;
  auto array = make_array(reg);
  array.enable_journal();
  std::vector<uint8_t> d(256, 0x5A);
  array.write(0, d);
  array.inject_power_loss_after(0);
  StripePipeline pipe(array, {.workers = 1});
  auto f = pipe.submit_write(0, d);
  EXPECT_FALSE(f.wait());
  EXPECT_THROW(f.get(), PowerLossError);
  // The pipeline itself survives; recovery follows the normal protocol.
  array.restart();
  array.journal_recover();
  EXPECT_EQ(array.scrub(), 0);
}

// ---------- the ordering property test ----------
//
// Seeded generator over deliberately overlapping byte ranges, several
// client threads — some waiting for each op (submit_*().get()), some
// keeping several in flight — on one pipeline. After the fact, the array
// must be bit-identical to a serial array that applied the same writes
// in admission (sequence) order — and every read must equal the serial
// prefix state of its range at its admission point.

struct LoggedOp {
  uint64_t seq = 0;
  bool is_write = false;
  int64_t offset = 0;
  int64_t len = 0;
  std::vector<uint8_t> data;  // payload (write) or observed bytes (read)
};

TEST(StripePipelineProperty, AnyScheduleEqualsSerialAdmissionOrder) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    obs::Registry reg;
    auto array = make_array(reg, /*stripes=*/8);
    const int64_t cap = array.capacity();
    Pcg32 seed_rng(seed);
    auto initial = random_blob(seed_rng, static_cast<size_t>(cap));
    array.write(0, initial);

    constexpr int kSubmitters = 4;
    constexpr int kOpsPerSubmitter = 120;
    std::vector<std::vector<LoggedOp>> logs(kSubmitters);
    {
      StripePipeline pipe(array, {.workers = 3, .queue_depth = 64});
      std::vector<std::thread> subs;
      for (int s = 0; s < kSubmitters; ++s) {
        subs.emplace_back([&, s] {
          const bool one_at_a_time = s % 2 == 1;
          Pcg32 rng(seed * 1000 + static_cast<uint64_t>(s));
          std::vector<std::pair<OpFuture, size_t>> pending;
          for (int i = 0; i < kOpsPerSubmitter; ++i) {
            LoggedOp op;
            op.is_write = rng.next_u32() % 3 != 0;  // 2:1 writes
            // Cluster offsets into a quarter of the capacity so ranges
            // genuinely collide across submitters.
            const int64_t window = cap / 4;
            const int64_t base = (rng.next_u32() % 2) * window;
            op.offset =
                base + static_cast<int64_t>(rng.next_u32() %
                                            static_cast<uint32_t>(window));
            op.len = 1 + static_cast<int64_t>(rng.next_u32() % 700);
            op.len = std::min(op.len, cap - op.offset);
            op.data.resize(static_cast<size_t>(op.len));
            if (op.is_write) rng.fill_bytes(op.data.data(), op.data.size());
            if (one_at_a_time) {
              OpFuture f = op.is_write ? pipe.submit_write(op.offset, op.data)
                                       : pipe.submit_read(op.offset, op.data);
              op.seq = f.sequence();
              f.get();
              logs[static_cast<size_t>(s)].push_back(std::move(op));
              continue;
            }
            if (op.is_write) {
              auto f = pipe.submit_write(op.offset, op.data);
              op.seq = f.sequence();
              logs[static_cast<size_t>(s)].push_back(std::move(op));
              pending.emplace_back(std::move(f), 0);
            } else {
              logs[static_cast<size_t>(s)].push_back(std::move(op));
              auto& slot = logs[static_cast<size_t>(s)].back();
              auto f = pipe.submit_read(
                  slot.offset, std::span<uint8_t>(slot.data.data(),
                                                  slot.data.size()));
              slot.seq = f.sequence();
              pending.emplace_back(std::move(f),
                                   logs[static_cast<size_t>(s)].size() - 1);
            }
            // Bounded in-flight window per submitter.
            if (pending.size() >= 8) {
              pending.front().first.get();
              pending.erase(pending.begin());
            }
          }
          for (auto& [f, idx] : pending) f.get();
        });
      }
      for (auto& t : subs) t.join();
      pipe.drain();
    }

    // Replay on a serial reference array in admission order.
    obs::Registry ref_reg;
    auto ref = make_array(ref_reg, /*stripes=*/8);
    ref.write(0, initial);
    std::vector<const LoggedOp*> all;
    for (auto& l : logs)
      for (auto& op : l) all.push_back(&op);
    std::sort(all.begin(), all.end(),
              [](const LoggedOp* a, const LoggedOp* b) {
                return a->seq < b->seq;
              });
    for (const LoggedOp* op : all) {
      if (op->is_write) ref.write(op->offset, op->data);
      // (Reads don't mutate; per-read snapshot checks need a single
      // submitter — see ReadsObserveSerialPrefixState below.)
    }
    std::vector<uint8_t> got(static_cast<size_t>(cap));
    std::vector<uint8_t> want(static_cast<size_t>(cap));
    array.read(0, got);
    ref.read(0, want);
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(array.scrub(), 0) << "seed " << seed;
  }
}

// With a single client thread, admission order == program order, so
// every read must return exactly the bytes produced by the serial prefix
// of writes before it — the range lock may not let any later overlapping
// write sneak ahead, and an op the client waits for may not overtake a
// queued one that is still waiting for a worker.
TEST(StripePipelineProperty, ReadsObserveSerialPrefixState) {
  for (uint64_t seed : {3u, 11u}) {
    obs::Registry reg;
    auto array = make_array(reg, /*stripes=*/8);
    const int64_t cap = array.capacity();
    Pcg32 seed_rng(seed);
    auto initial = random_blob(seed_rng, static_cast<size_t>(cap));
    array.write(0, initial);

    obs::Registry ref_reg;
    auto ref = make_array(ref_reg, /*stripes=*/8);
    ref.write(0, initial);
    std::vector<uint8_t> shadow = initial;  // serial prefix image

    StripePipeline pipe(array, {.workers = 3, .queue_depth = 64});
    Pcg32 rng(seed * 77);
    struct InFlight {
      OpFuture f;
      bool is_write;
      int64_t offset;
      std::vector<uint8_t> expect;       // reads: serial prefix bytes
      std::vector<uint8_t>* dst;         // reads: where the pipeline wrote
    };
    std::vector<std::unique_ptr<std::vector<uint8_t>>> read_bufs;
    std::vector<InFlight> pending;
    auto settle = [&](size_t keep) {
      while (pending.size() > keep) {
        auto& p = pending.front();
        p.f.get();
        if (!p.is_write) {
          EXPECT_EQ(*p.dst, p.expect);
        }
        pending.erase(pending.begin());
      }
    };
    for (int i = 0; i < 250; ++i) {
      const bool is_write = rng.next_u32() % 2 == 0;
      const int64_t window = cap / 3;
      const int64_t offset = static_cast<int64_t>(
          rng.next_u32() % static_cast<uint32_t>(window));
      const int64_t len = std::min(
          1 + static_cast<int64_t>(rng.next_u32() % 600), cap - offset);
      const bool wait_now = rng.next_u32() % 3 == 0;
      if (is_write) {
        std::vector<uint8_t> d(static_cast<size_t>(len));
        rng.fill_bytes(d.data(), d.size());
        std::copy(d.begin(), d.end(),
                  shadow.begin() + static_cast<size_t>(offset));
        if (wait_now) {
          pipe.submit_write(offset, d).get();
        } else {
          pending.push_back(
              {pipe.submit_write(offset, d), true, offset, {}, nullptr});
        }
      } else if (wait_now) {
        std::vector<uint8_t> buf(static_cast<size_t>(len));
        pipe.submit_read(offset, buf).get();
        EXPECT_TRUE(std::equal(buf.begin(), buf.end(),
                               shadow.begin() + static_cast<size_t>(offset)));
      } else {
        read_bufs.push_back(std::make_unique<std::vector<uint8_t>>(
            static_cast<size_t>(len)));
        auto* buf = read_bufs.back().get();
        std::vector<uint8_t> expect(
            shadow.begin() + static_cast<size_t>(offset),
            shadow.begin() + static_cast<size_t>(offset + len));
        auto f = pipe.submit_read(offset,
                                  std::span<uint8_t>(buf->data(), buf->size()));
        pending.push_back({std::move(f), false, offset, std::move(expect),
                           buf});
      }
      settle(6);
    }
    settle(0);
    pipe.drain();
    std::vector<uint8_t> got(static_cast<size_t>(cap));
    array.read(0, got);
    EXPECT_EQ(got, shadow) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dcode::raid
