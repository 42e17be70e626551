// Runtime observability of the RAID layer: the array's per-disk element
// access counters must agree exactly with the planner's IoPlan
// predictions (healthy and degraded), operation counters must track what
// the array actually did, and the ThreadPool/scrub/journal introspection
// must report truthfully.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "codes/registry.h"
#include "obs/metrics.h"
#include "raid/planner.h"
#include "raid/raid6_array.h"
#include "raid/recovery.h"
#include "sim/io_stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcode::raid {
namespace {

constexpr size_t kElem = 64;

std::unique_ptr<Raid6Array> make_array(obs::Registry& reg, int p = 7,
                                       int64_t stripes = 4) {
  return std::make_unique<Raid6Array>(codes::make_layout("dcode", p), kElem,
                                      stripes, /*threads=*/1, &reg);
}

std::vector<uint8_t> random_bytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> buf(n);
  Pcg32 rng(seed);
  rng.fill_bytes(buf.data(), buf.size());
  return buf;
}

// Per-disk access tally predicted by a plan (reads and writes both count
// one element access, matching MemDisk element granularity).
std::vector<int64_t> predicted(const IoPlan& plan, int disks) {
  std::vector<int64_t> per_disk(static_cast<size_t>(disks), 0);
  for (const auto& a : plan.accesses) {
    per_disk[static_cast<size_t>(a.disk)]++;
  }
  return per_disk;
}

TEST(RuntimeVsPlanner, HealthyReadMatchesIoPlan) {
  obs::Registry reg;
  auto array = make_array(reg);
  auto data = random_bytes(static_cast<size_t>(array->capacity()), 1);
  array->write(0, data);

  const int64_t start = 3;
  const int len = 11;
  array->reset_stats();
  std::vector<uint8_t> out(static_cast<size_t>(len) * kElem);
  array->read(start * static_cast<int64_t>(kElem), out);

  AddressMap map(array->layout());
  IoPlanner planner(map);
  EXPECT_EQ(array->per_disk_element_accesses(),
            predicted(planner.plan_read(start, len), array->layout().cols()));
}

TEST(RuntimeVsPlanner, DegradedReadMatchesIoPlan) {
  obs::Registry reg;
  auto array = make_array(reg);
  auto data = random_bytes(static_cast<size_t>(array->capacity()), 2);
  array->write(0, data);

  const int failed = 2;
  array->fail_disk(failed);
  const int64_t start = 0;
  const int len = 13;
  array->reset_stats();
  std::vector<uint8_t> out(static_cast<size_t>(len) * kElem);
  array->read(start * static_cast<int64_t>(kElem), out);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));

  AddressMap map(array->layout());
  IoPlanner planner(map);
  int fd[1] = {failed};
  EXPECT_EQ(array->per_disk_element_accesses(),
            predicted(planner.plan_degraded_read(start, len, fd),
                      array->layout().cols()));
}

TEST(RuntimeVsPlanner, DoubleDegradedReadMatchesIoPlan) {
  obs::Registry reg;
  auto array = make_array(reg, /*p=*/7, /*stripes=*/2);
  auto data = random_bytes(static_cast<size_t>(array->capacity()), 3);
  array->write(0, data);

  array->fail_disk(1);
  array->fail_disk(4);
  array->reset_stats();
  const int len = 9;
  std::vector<uint8_t> out(static_cast<size_t>(len) * kElem);
  array->read(0, out);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));

  AddressMap map(array->layout());
  IoPlanner planner(map);
  int fd[2] = {1, 4};
  EXPECT_EQ(array->per_disk_element_accesses(),
            predicted(planner.plan_degraded_read(0, len, fd),
                      array->layout().cols()));
}

TEST(RuntimeVsPlanner, HealthyWriteMatchesRmwIoPlan) {
  obs::Registry reg;
  auto array = make_array(reg);
  auto data = random_bytes(static_cast<size_t>(array->capacity()), 4);
  array->write(0, data);

  const int64_t start = 5;
  const int len = 7;
  array->reset_stats();
  auto fresh = random_bytes(static_cast<size_t>(len) * kElem, 5);
  array->write(start * static_cast<int64_t>(kElem), fresh);

  // The byte-level array applies delta-based read-modify-write to a
  // healthy partial-stripe write, so the RMW plan is the exact prediction.
  AddressMap map(array->layout());
  IoPlanner planner(map);
  EXPECT_EQ(
      array->per_disk_element_accesses(),
      predicted(planner.plan_write(start, len, WritePolicy::kReadModifyWrite),
                array->layout().cols()));
}

// A healthy write that covers a whole stripe encodes its parity and reads
// nothing there: a range that runs partial, full, partial over three
// stripes costs, disk by disk, RMW + reconstruct-write + RMW.
TEST(RuntimeVsPlanner, FullStripeWriteMatchesRcwIoPlan) {
  obs::Registry reg;
  auto array = make_array(reg);
  auto data = random_bytes(static_cast<size_t>(array->capacity()), 8);
  array->write(0, data);

  AddressMap map(array->layout());
  IoPlanner planner(map);
  const int per_stripe = static_cast<int>(map.data_per_stripe());
  const auto esize = static_cast<int64_t>(kElem);
  // Elements per_stripe - 3 to 2 * per_stripe + 3, the first and last
  // partly.
  const int64_t offset = (per_stripe - 3) * esize + 5;
  const int64_t bytes = (per_stripe + 7) * esize - 9;
  auto fresh = random_bytes(static_cast<size_t>(bytes), 9);
  array->reset_stats();
  array->write(offset, fresh);
  std::copy(fresh.begin(), fresh.end(), data.begin() + offset);

  const IoPlan rcw = planner.plan_write(per_stripe, per_stripe,
                                        WritePolicy::kReconstructWrite);
  EXPECT_EQ(rcw.reads(), 0);
  IoPlan expected =
      planner.plan_write(per_stripe - 3, 3, WritePolicy::kReadModifyWrite);
  for (const IoPlan& part :
       {rcw, planner.plan_write(2 * per_stripe, 4,
                                WritePolicy::kReadModifyWrite)}) {
    expected.accesses.insert(expected.accesses.end(), part.accesses.begin(),
                             part.accesses.end());
  }
  EXPECT_EQ(array->per_disk_element_accesses(),
            predicted(expected, array->layout().cols()));
  std::vector<uint8_t> out(data.size());
  array->read(0, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(array->scrub(), 0);
}

// A degraded write reads and writes, disk by disk, exactly what
// plan_degraded_write names: with one lost column and with two, for a
// write landing on a live element, one landing on a lost element, a
// range with partial edges across two stripes, and a full stripe.
TEST(RuntimeVsPlanner, DegradedWriteMatchesIoPlan) {
  for (const std::vector<int>& failed :
       std::vector<std::vector<int>>{{2}, {1, 4}}) {
    obs::Registry reg;
    auto array = make_array(reg);
    auto data = random_bytes(static_cast<size_t>(array->capacity()), 6);
    array->write(0, data);
    for (int f : failed) array->fail_disk(f);

    AddressMap map(array->layout());
    IoPlanner planner(map);
    auto lost = [&](int64_t g) {
      return std::find(failed.begin(), failed.end(), map.locate(g).disk) !=
             failed.end();
    };
    int64_t on_live = 0;
    while (lost(on_live)) ++on_live;
    int64_t on_lost = 0;
    while (!lost(on_lost)) ++on_lost;
    const int64_t per_stripe = map.data_per_stripe();
    const auto esize = static_cast<int64_t>(kElem);
    struct Case {
      const char* name;
      int64_t offset;  // bytes
      int64_t bytes;
    };
    const Case cases[] = {
        {"live element", on_live * esize, esize},
        {"lost element", on_lost * esize, esize},
        {"partial edges across two stripes",
         (per_stripe - 3) * esize + 5, 6 * esize - 9},
        {"full stripe", 2 * per_stripe * esize, per_stripe * esize},
    };
    Pcg32 rng(7);
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + ", " +
                   std::to_string(failed.size()) + " lost");
      std::vector<uint8_t> fresh(static_cast<size_t>(c.bytes));
      rng.fill_bytes(fresh.data(), fresh.size());
      array->reset_stats();
      array->write(c.offset, fresh);
      std::copy(fresh.begin(), fresh.end(), data.begin() + c.offset);

      const int64_t first = c.offset / esize;
      const int64_t last = (c.offset + c.bytes - 1) / esize;
      EXPECT_EQ(array->per_disk_element_accesses(),
                predicted(planner.plan_degraded_write(
                              first, static_cast<int>(last - first + 1),
                              failed),
                          array->layout().cols()));
    }
    std::vector<uint8_t> out(data.size());
    array->read(0, out);
    EXPECT_EQ(out, data);
  }
}

// EVENODD and liberation with two failed disks rebuild some lost elements
// only through a full-stripe decode (equation -1). The degraded read and
// the degraded write then read each live cell once, as their plans say.
TEST(RuntimeVsPlanner, FullStripeDecodeFallbackMatchesIoPlan) {
  for (const char* code : {"evenodd", "liberation"}) {
    SCOPED_TRACE(code);
    obs::Registry reg;
    Raid6Array array(codes::make_layout(code, 7), kElem, 2, /*threads=*/1,
                     &reg);
    auto data = random_bytes(static_cast<size_t>(array.capacity()), 8);
    array.write(0, data);
    const std::vector<int> failed = {0, 1};
    for (int f : failed) array.fail_disk(f);
    AddressMap map(array.layout());
    IoPlanner planner(map);
    const int64_t per_stripe = map.data_per_stripe();
    const IoPlan read_plan = planner.plan_degraded_read(0, 4, failed);
    ASSERT_TRUE(std::any_of(
        read_plan.reconstructions.begin(), read_plan.reconstructions.end(),
        [](const Reconstruction& r) { return r.equation < 0; }));

    array.reset_stats();
    std::vector<uint8_t> out(4 * kElem);
    array.read(0, out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
    EXPECT_EQ(array.per_disk_element_accesses(),
              predicted(read_plan, array.layout().cols()));

    array.reset_stats();
    auto fresh = random_bytes(3 * kElem, 9);
    const int64_t at = per_stripe + 1;
    array.write(at * static_cast<int64_t>(kElem), fresh);
    std::copy(fresh.begin(), fresh.end(),
              data.begin() + at * static_cast<int64_t>(kElem));
    EXPECT_EQ(array.per_disk_element_accesses(),
              predicted(planner.plan_degraded_write(at, 3, failed),
                        array.layout().cols()));
    std::vector<uint8_t> all(data.size());
    array.read(0, all);
    EXPECT_EQ(all, data);
  }
}

// A quiesced single-disk rebuild of `failed` reads exactly what the
// minimal-read recovery plan names on every stripe, and writes one
// element per row per stripe onto the replacement — nothing else.
void expect_rebuild_follows_minimal_plan(const Raid6Array& array,
                                         int failed) {
  const codes::CodeLayout& layout = array.layout();
  const RecoveryPlan plan = plan_single_disk_recovery(
      layout, failed, RecoveryStrategy::kMinimalReads);
  std::vector<int64_t> reads(static_cast<size_t>(layout.cols()), 0);
  for (const codes::Element& e : plan.reads) {
    reads[static_cast<size_t>(e.col)] += array.stripes();
  }
  for (int d = 0; d < layout.cols(); ++d) {
    EXPECT_EQ(array.disk(d).reads(), reads[static_cast<size_t>(d)])
        << "disk " << d;
    EXPECT_EQ(array.disk(d).writes(),
              d == failed ? layout.rows() * array.stripes() : 0)
        << "disk " << d;
  }
}

TEST(RuntimeVsPlanner, SingleDiskRebuildReadsTheMinimalPlan) {
  constexpr int64_t kStripes = 6;
  constexpr int kFailed = 2;
  // D-Code p=7 (paper §III-D): 26 of the 42 survivor elements per stripe,
  // 4-5 on each surviving column.
  const RecoveryPlan plan = plan_single_disk_recovery(
      *codes::make_layout("dcode", 7), kFailed,
      RecoveryStrategy::kMinimalReads);
  EXPECT_EQ(plan.reads.size(), 26u);
  std::vector<int> per_column(7, 0);
  for (const codes::Element& e : plan.reads) ++per_column[e.col];
  for (int c = 0; c < 7; ++c) {
    if (c == kFailed) continue;
    EXPECT_GE(per_column[c], 4) << "column " << c;
    EXPECT_LE(per_column[c], 5) << "column " << c;
  }
  std::vector<uint8_t> data;

  {  // replace_disk + rebuild() on the caller's thread
    obs::Registry reg;
    Raid6Array array(codes::make_layout("dcode", 7), kElem, kStripes,
                     /*threads=*/2, &reg);
    data = random_bytes(static_cast<size_t>(array.capacity()), 41);
    array.write(0, data);
    array.fail_disk(kFailed);
    array.replace_disk(kFailed);
    array.reset_stats();
    array.rebuild();
    expect_rebuild_follows_minimal_plan(array, kFailed);
  }
  {  // hot-spare promotion rebuilt on the background worker
    obs::Registry reg;
    ArrayOptions opts;
    opts.background_rebuild = true;
    Raid6Array array(codes::make_layout("dcode", 7), kElem, kStripes,
                     /*threads=*/2, &reg, opts);
    array.add_hot_spares(1);
    array.write(0, data);
    array.reset_stats();
    array.fail_disk(kFailed);
    ASSERT_TRUE(array.wait_for_rebuild());
    expect_rebuild_follows_minimal_plan(array, kFailed);
  }
}

TEST(RuntimeVsPlanner, TwoDiskRebuildReadsEachSurvivorOnce) {
  obs::Registry reg;
  auto array = make_array(reg, /*p=*/7, /*stripes=*/5);
  array->write(0, random_bytes(static_cast<size_t>(array->capacity()), 42));
  array->fail_disk(1);
  array->fail_disk(4);
  array->replace_disk(1);
  array->replace_disk(4);
  array->reset_stats();
  array->rebuild();
  const int64_t per_disk = array->layout().rows() * array->stripes();
  for (int d = 0; d < array->layout().cols(); ++d) {
    const bool target = d == 1 || d == 4;
    EXPECT_EQ(array->disk(d).reads(), target ? 0 : per_disk) << "disk " << d;
    EXPECT_EQ(array->disk(d).writes(), target ? per_disk : 0) << "disk " << d;
  }
}

TEST(RuntimeVsPlanner, PerDiskCountersMirrorObsCountersAndMemDisks) {
  obs::Registry reg;
  auto array = make_array(reg);
  auto data = random_bytes(static_cast<size_t>(array->capacity()), 6);
  array->write(0, data);
  std::vector<uint8_t> out(static_cast<size_t>(array->capacity()));
  array->read(0, out);

  auto per_disk = array->per_disk_element_accesses();
  ASSERT_EQ(per_disk.size(), static_cast<size_t>(array->layout().cols()));
  for (int d = 0; d < array->layout().cols(); ++d) {
    const auto& disk = array->disk(d);
    EXPECT_EQ(per_disk[static_cast<size_t>(d)], disk.reads() + disk.writes());
    // The labeled registry counters saw every one of those accesses too
    // (this registry is private to the array, so the totals coincide).
    obs::Labels l = {{"disk", std::to_string(d)}};
    EXPECT_EQ(reg.counter("raid.disk.element_reads", l).value(),
              disk.reads());
    EXPECT_EQ(reg.counter("raid.disk.element_writes", l).value(),
              disk.writes());
  }

  array->publish_disk_metrics(reg);
  EXPECT_EQ(reg.gauge("raid.disk.reads", {{"disk", "0"}}).value(),
            array->disk(0).reads());
  EXPECT_EQ(reg.gauge("raid.disk.failed", {{"disk", "0"}}).value(), 0);
}

TEST(RuntimeVsPlanner, OperationCountersTrackWhatHappened) {
  obs::Registry reg;
  auto array = make_array(reg);
  auto data = random_bytes(static_cast<size_t>(array->capacity()), 7);
  array->write(0, data);
  std::vector<uint8_t> out(kElem);
  array->read(0, out);
  array->read(static_cast<int64_t>(kElem), out);

  array->fail_disk(0);
  array->read(0, out);  // degraded
  array->write(0, std::vector<uint8_t>(kElem, 0xAB));  // degraded

  array->replace_disk(0);
  array->rebuild();

  EXPECT_EQ(reg.counter("raid.reads").value(), 2);
  EXPECT_EQ(reg.counter("raid.writes").value(), 1);
  EXPECT_EQ(reg.counter("raid.degraded_reads").value(), 1);
  EXPECT_EQ(reg.counter("raid.degraded_writes").value(), 1);
  EXPECT_EQ(reg.counter("raid.rebuilds").value(), 1);
  EXPECT_GT(reg.counter("raid.elements_reconstructed").value(), 0);
  EXPECT_EQ(reg.counter("raid.bytes_read").value(),
            static_cast<int64_t>(3 * kElem));
  EXPECT_EQ(reg.gauge("raid.disks_failed").value(), 0);  // repaired
  EXPECT_EQ(reg.counter("raid.disk.failures", {{"disk", "0"}}).value(), 1);

  // Latency histograms observed one sample per operation.
  auto snap = reg.snapshot();
  for (const auto& m : snap.metrics) {
    if (m.name == "raid.read_latency_ns") {
      EXPECT_EQ(m.count, 3);
    } else if (m.name == "raid.write_latency_ns") {
      EXPECT_EQ(m.count, 2);
    } else if (m.name == "raid.rebuild_latency_ns") {
      EXPECT_EQ(m.count, 1);
    }
  }
}

TEST(RuntimeVsPlanner, ScrubReportNamesTheInconsistentStripes) {
  obs::Registry reg;
  auto array = make_array(reg, /*p=*/7, /*stripes=*/5);
  auto data = random_bytes(static_cast<size_t>(array->capacity()), 8);
  array->write(0, data);
  EXPECT_EQ(array->scrub(), 0);

  // Corrupt one data byte in stripes 1 and 3, bypassing the array.
  const int rows = array->layout().rows();
  for (int64_t stripe : {int64_t{1}, int64_t{3}}) {
    uint8_t byte;
    size_t off = static_cast<size_t>(stripe) * rows * kElem;
    array->disk(0).read(off, {&byte, 1});
    byte ^= 0xFF;
    array->disk(0).write(off, {&byte, 1});
  }

  ScrubReport report = array->scrub_report();
  EXPECT_EQ(report.stripes_checked, 5);
  EXPECT_EQ(report.inconsistent_stripes, (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(reg.counter("raid.scrub.stripes_inconsistent").value(), 2);
  EXPECT_GE(reg.counter("raid.scrub.stripes_checked").value(), 10);
}

TEST(RuntimeVsPlanner, JournalMetricsCountIntentsAndRecovery) {
  obs::Registry reg;
  auto array = make_array(reg, /*p=*/7, /*stripes=*/3);
  array->enable_journal();
  auto data = random_bytes(static_cast<size_t>(array->capacity()), 9);
  array->write(0, data);
  EXPECT_EQ(reg.counter("raid.journal.intents_opened").value(), 3);
  EXPECT_EQ(reg.counter("raid.journal.commits").value(), 3);

  // Crash mid-write, then recover: exactly the open stripes replay.
  array->inject_power_loss_after(3);
  EXPECT_THROW(array->write(0, std::vector<uint8_t>(kElem, 0x55)),
               PowerLossError);
  array->restart();
  int64_t repaired = array->journal_recover();
  EXPECT_EQ(repaired, 1);
  EXPECT_EQ(reg.counter("raid.journal.recoveries").value(), 1);
  EXPECT_EQ(reg.counter("raid.journal.replayed_stripes").value(), 1);
}

// --- Coalescing equivalence -----------------------------------------------
// The engine may merge adjacent element accesses into vectored transfers
// and fan disks across the pool, but the element-granular accounting (and
// the returned bytes) must be identical to the naive element-at-a-time
// configuration: same per-disk counts the planner predicts, different
// device op counts.

std::unique_ptr<Raid6Array> make_array_mode(obs::Registry& reg, bool batched,
                                            int p = 7, int64_t stripes = 4) {
  ArrayOptions o;
  o.coalesce = batched;
  o.parallel_user_io = batched;
  return std::make_unique<Raid6Array>(codes::make_layout("dcode", p), kElem,
                                      stripes, batched ? 4u : 1u, &reg,
                                      std::move(o));
}

// Both arrays hold the same contents; returns them reset and verified.
std::pair<std::unique_ptr<Raid6Array>, std::unique_ptr<Raid6Array>>
make_twin_arrays(obs::Registry& r1, obs::Registry& r2, uint64_t seed,
                 int p = 7, int64_t stripes = 4) {
  auto batched = make_array_mode(r1, true, p, stripes);
  auto naive = make_array_mode(r2, false, p, stripes);
  auto data = random_bytes(static_cast<size_t>(batched->capacity()), seed);
  batched->write(0, data);
  naive->write(0, data);
  batched->reset_stats();
  naive->reset_stats();
  return {std::move(batched), std::move(naive)};
}

TEST(CoalescingEquivalence, HealthyReadAccountingMatches) {
  obs::Registry r1, r2;
  auto [batched, naive] = make_twin_arrays(r1, r2, 20);
  std::vector<uint8_t> out1(static_cast<size_t>(batched->capacity()));
  std::vector<uint8_t> out2(out1.size());
  batched->read(0, out1);
  naive->read(0, out2);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(batched->per_disk_element_accesses(),
            naive->per_disk_element_accesses());
  // The naive engine issues one device op per element; the batched one
  // strictly fewer (full columns are contiguous).
  EXPECT_EQ(naive->disk(0).device_read_ops(), naive->disk(0).reads());
  EXPECT_LT(batched->disk(0).device_read_ops(), batched->disk(0).reads());
  EXPECT_EQ(batched->disk(0).reads(), naive->disk(0).reads());
}

TEST(CoalescingEquivalence, RmwWriteAccountingMatches) {
  obs::Registry r1, r2;
  auto [batched, naive] = make_twin_arrays(r1, r2, 21);
  auto fresh = random_bytes(9 * kElem, 22);
  batched->write(2 * static_cast<int64_t>(kElem), fresh);
  naive->write(2 * static_cast<int64_t>(kElem), fresh);
  EXPECT_EQ(batched->per_disk_element_accesses(),
            naive->per_disk_element_accesses());

  std::vector<uint8_t> out1(static_cast<size_t>(batched->capacity()));
  std::vector<uint8_t> out2(out1.size());
  batched->read(0, out1);
  naive->read(0, out2);
  EXPECT_EQ(out1, out2);
}

TEST(CoalescingEquivalence, DegradedReadAccountingMatches) {
  obs::Registry r1, r2;
  auto [batched, naive] = make_twin_arrays(r1, r2, 23);
  batched->fail_disk(2);
  naive->fail_disk(2);
  batched->reset_stats();
  naive->reset_stats();

  std::vector<uint8_t> out1(13 * kElem);
  std::vector<uint8_t> out2(out1.size());
  batched->read(0, out1);
  naive->read(0, out2);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(batched->per_disk_element_accesses(),
            naive->per_disk_element_accesses());
}

TEST(CoalescingEquivalence, DoubleDegradedReadAccountingMatches) {
  obs::Registry r1, r2;
  auto [batched, naive] = make_twin_arrays(r1, r2, 24, /*p=*/7, /*stripes=*/2);
  for (auto* a : {batched.get(), naive.get()}) {
    a->fail_disk(1);
    a->fail_disk(4);
    a->reset_stats();
  }

  std::vector<uint8_t> out1(9 * kElem);
  std::vector<uint8_t> out2(out1.size());
  batched->read(0, out1);
  naive->read(0, out2);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(batched->per_disk_element_accesses(),
            naive->per_disk_element_accesses());
}

TEST(IoStatsBridge, VectorConstructorAndMerge) {
  sim::IoStats runtime(std::vector<int64_t>{4, 0, 6});
  EXPECT_EQ(runtime.disks(), 3);
  EXPECT_EQ(runtime.total(), 10);
  EXPECT_EQ(runtime.max_load(), 6);
  EXPECT_EQ(runtime.min_load(), 0);
  EXPECT_TRUE(std::isinf(runtime.load_balancing_factor()));

  sim::IoStats more(3);
  more.add(0, 1);
  more.add(1, 2);
  more.add(2, 3);
  runtime.merge(more);
  EXPECT_EQ(runtime.per_disk(), (std::vector<int64_t>{5, 2, 9}));
  EXPECT_EQ(runtime.min_load(), 2);

  sim::IoStats wrong(4);
  EXPECT_THROW(runtime.merge(wrong), std::logic_error);

  sim::IoStats empty(0);
  EXPECT_EQ(empty.min_load(), 0);
  EXPECT_EQ(empty.max_load(), 0);
}

TEST(IoStatsBridge, RuntimeAccessesFeedTheSimMetrics) {
  obs::Registry reg;
  auto array = make_array(reg);
  auto data = random_bytes(static_cast<size_t>(array->capacity()), 10);
  array->write(0, data);
  array->reset_stats();
  std::vector<uint8_t> out(static_cast<size_t>(array->capacity()));
  array->read(0, out);

  sim::IoStats stats(array->per_disk_element_accesses());
  // A full read touches every data element once and no parities: with
  // D-Code's two parity rows per disk, every disk carries data, so no
  // disk is idle and LF is finite.
  EXPECT_EQ(stats.total(),
            array->layout().data_count() * array->stripes());
  EXPECT_GE(stats.load_balancing_factor(), 1.0);
  EXPECT_FALSE(std::isinf(stats.load_balancing_factor()));
}

TEST(ThreadPoolStats, CountsTasksAndQueueHighWater) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  pool.parallel_for(1000, [&sum](size_t i) {
    sum.fetch_add(static_cast<int64_t>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);

  ThreadPool::Stats stats = pool.stats();
  // 1000 items over 4 workers dispatch as 4 chunks.
  EXPECT_EQ(stats.tasks_run, 4);
  EXPECT_GE(stats.queue_depth_high_water, 1);
  EXPECT_LE(stats.queue_depth_high_water, 4);
  EXPECT_GE(stats.busy_ns, 0);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.active_workers, 0u);

  // Inline execution (single-item range) bypasses the queue: no new
  // dispatched tasks are recorded.
  pool.parallel_for(1, [](size_t) {});
  EXPECT_EQ(pool.stats().tasks_run, 4);
}

}  // namespace
}  // namespace dcode::raid
