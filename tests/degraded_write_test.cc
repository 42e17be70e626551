// Degraded-write tests: the planner's degraded write plans must mirror
// the byte-level array's actual I/O and never cost more than a stripe
// rewrite, a write landing on a lost element must cost more than a
// healthy one (the quantity the degraded-load experiment reports), and a
// second disk failing inside a degraded write must lose nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "codes/registry.h"
#include "raid/block_device.h"
#include "raid/mem_disk.h"
#include "raid/planner.h"
#include "raid/raid6_array.h"
#include "util/rng.h"

namespace dcode::raid {
namespace {

TEST(DegradedWrite, NoFailuresEqualsHealthyPlan) {
  // With nothing lost, a partial-stripe write is the healthy RMW plan.
  auto layout = codes::make_layout("dcode", 7);
  AddressMap map(*layout);
  IoPlanner planner(map);
  std::vector<int> none;
  const IoPlan plan = planner.plan_degraded_write(3, 9, none);
  const IoPlan rmw = planner.plan_write(3, 9, WritePolicy::kReadModifyWrite);
  EXPECT_EQ(plan.reads(), rmw.reads());
  EXPECT_EQ(plan.writes(), rmw.writes());
  EXPECT_EQ(plan.total(), rmw.total());
}

// The plan with no failed disk is what the array runs on a healthy stripe
// (RMW for a partial stripe, the encode for a whole one), not plan_write's
// cheaper-of choice: on D-Code p=7 (35 data elements per stripe), kAuto
// plans 20 elements from the start as RCW's 15 reads + 31 writes and 13
// as 22 + 23, where the array reads and writes 31 + 31 and 23 + 23.
TEST(DegradedWrite, NoFailuresPlansWhatTheArrayRuns) {
  constexpr size_t kElem = 128;
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 2, 1);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  Pcg32 rng(11);
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);
  AddressMap map(array.layout());
  IoPlanner planner(map);
  const std::vector<int> none;
  struct Case {
    int len;
    int64_t reads;
    int64_t writes;
  };
  for (const Case& c : {Case{20, 31, 31}, Case{13, 23, 23}, Case{9, 17, 17},
                        Case{35, 0, 49}}) {
    SCOPED_TRACE("len " + std::to_string(c.len));
    const IoPlan plan = planner.plan_degraded_write(0, c.len, none);
    EXPECT_EQ(plan.reads(), c.reads);
    EXPECT_EQ(plan.writes(), c.writes);
    std::vector<uint8_t> fresh(static_cast<size_t>(c.len) * kElem);
    rng.fill_bytes(fresh.data(), fresh.size());
    array.reset_stats();
    array.write(0, fresh);
    int64_t reads = 0;
    int64_t writes = 0;
    for (int d = 0; d < array.layout().cols(); ++d) {
      reads += array.disk(d).reads();
      writes += array.disk(d).writes();
    }
    EXPECT_EQ(reads, c.reads);
    EXPECT_EQ(writes, c.writes);
  }
}

TEST(DegradedWrite, PlansNeverTouchFailedDisks) {
  for (const char* name : {"dcode", "xcode", "rdp", "hdp"}) {
    auto layout = codes::make_layout(name, 7);
    AddressMap map(*layout);
    IoPlanner planner(map);
    Pcg32 rng(3);
    for (int f = 0; f < layout->cols(); ++f) {
      int fd[1] = {f};
      for (int trial = 0; trial < 10; ++trial) {
        int64_t start = rng.next_below(
            static_cast<uint32_t>(layout->data_count()));
        int len = rng.next_in_range(1, 20);
        IoPlan plan = planner.plan_degraded_write(start, len, fd);
        for (const auto& a : plan.accesses) {
          EXPECT_NE(a.disk, f) << name;
        }
      }
    }
  }
}

TEST(DegradedWrite, CostsMoreThanHealthyWrites) {
  // D-Code p=11. A degraded write updates only what it touches, so it is
  // never dearer than rewriting each stripe it lands in (read every live
  // cell, write the live written data and every live parity)...
  auto layout = codes::make_layout("dcode", 11);
  AddressMap map(*layout);
  IoPlanner planner(map);
  const int cols = layout->cols();
  const int64_t per_stripe = layout->data_count();
  std::vector<std::vector<int>> lost_sets;
  for (int a = 0; a < cols; ++a) {
    lost_sets.push_back({a});
    for (int b = a + 1; b < cols; ++b) lost_sets.push_back({a, b});
  }
  int64_t cheaper = 0;
  for (const std::vector<int>& lost : lost_sets) {
    const int live_cols = cols - static_cast<int>(lost.size());
    int live_parities = 0;
    for (int r = 0; r < layout->rows(); ++r) {
      for (int c = 0; c < cols; ++c) {
        live_parities += layout->is_parity(r, c) &&
                         std::find(lost.begin(), lost.end(), c) == lost.end();
      }
    }
    for (int64_t start = 0; start < per_stripe; ++start) {
      for (int len = 1; len <= 20; ++len) {
        int64_t rewrite = 0;
        int64_t stripe = -1;
        for (int64_t g = start; g < start + len; ++g) {
          const auto loc = map.locate(g);
          if (loc.stripe != stripe) {
            stripe = loc.stripe;
            rewrite += int64_t{layout->rows()} * live_cols + live_parities;
          }
          rewrite += std::find(lost.begin(), lost.end(), loc.disk) ==
                     lost.end();
        }
        const int64_t cost = planner.plan_degraded_write(start, len, lost)
                                 .total();
        ASSERT_LE(cost, rewrite) << "start " << start << " len " << len;
        cheaper += cost < rewrite;
      }
    }
  }
  EXPECT_GT(cheaper, 0);
  // ...but a write landing on a lost element still pays to rebuild its
  // old value, so it costs more than the same write on a healthy array.
  int fd[1] = {4};
  int64_t on_lost = 0;
  while (map.locate(on_lost).disk != fd[0]) ++on_lost;
  EXPECT_GT(planner.plan_degraded_write(on_lost, 1, fd).total(),
            planner.plan_write(on_lost, 1).total());
}

TEST(DegradedWrite, ArrayAccessCountsMatchPlanner) {
  // The consistency bridge: execute a degraded write on the byte array
  // and compare per-operation disk access counts with the plan.
  auto layout = codes::make_layout("xcode", 7);
  const size_t esize = 128;
  Raid6Array array(codes::make_layout("xcode", 7), esize, 3, 1);
  Pcg32 rng(4);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);
  array.fail_disk(2);
  array.reset_stats();

  AddressMap map(*layout);
  IoPlanner planner(map);
  int fd[1] = {2};
  const int64_t start = 5;
  const int len = 6;
  IoPlan plan = planner.plan_degraded_write(start, len, fd);

  std::vector<uint8_t> patch(static_cast<size_t>(len) * esize);
  rng.fill_bytes(patch.data(), patch.size());
  array.write(start * static_cast<int64_t>(esize), patch);

  int64_t accesses = 0;
  for (int d = 0; d < array.layout().cols(); ++d) {
    accesses += array.disk(d).reads() + array.disk(d).writes();
  }
  EXPECT_EQ(accesses, plan.total());
}

TEST(DegradedWrite, HealthyStripesInARangeStayCheap) {
  // A multi-stripe write where only the second stripe hosts failed data:
  // with rotation, disk 0 is column 0 only in stripe 0.
  auto layout = codes::make_layout("dcode", 5);
  AddressMap rotating(*layout, /*rotate=*/true);
  IoPlanner planner(rotating);
  int fd[1] = {0};
  // All stripes still host physical disk 0 somewhere, so every stripe is
  // degraded here — but the *cost* must match stripe-by-stripe rewrite
  // accounting: reads = surviving cells per stripe.
  IoPlan plan = planner.plan_degraded_write(0, 2 * layout->data_count(), fd);
  int64_t surviving_cells =
      static_cast<int64_t>(layout->rows()) * (layout->cols() - 1);
  EXPECT_EQ(plan.reads(), 2 * surviving_cells);
}

// Which disk fails next, and at what: its next transfer, or its next
// device write (the engine sees IoStatus::kFailed and fail-stops it).
struct FailArm {
  int disk = -1;
  bool writes_only = false;
  bool fired = false;
};

class FailOnceDisk : public BlockDevice {
 public:
  FailOnceDisk(std::unique_ptr<BlockDevice> inner, FailArm* arm)
      : BlockDevice(inner->id(), inner->size()),
        inner_(std::move(inner)),
        arm_(arm) {}
  std::string_view backend_name() const override {
    return inner_->backend_name();
  }
  uint32_t capabilities() const override { return inner_->capabilities(); }

 protected:
  IoResult do_read(uint64_t offset, std::span<uint8_t> out) override {
    return fire(false) ? IoResult::failed() : inner_->read(offset, out);
  }
  IoResult do_write(uint64_t offset, std::span<const uint8_t> in) override {
    return fire(true) ? IoResult::failed() : inner_->write(offset, in);
  }
  IoResult do_readv(uint64_t offset, std::span<const IoVec> iov) override {
    return fire(false) ? IoResult::failed() : inner_->readv(offset, iov);
  }
  IoResult do_writev(uint64_t offset,
                     std::span<const ConstIoVec> iov) override {
    return fire(true) ? IoResult::failed() : inner_->writev(offset, iov);
  }
  IoResult do_flush() override { return inner_->flush(); }

 private:
  bool fire(bool write) {
    if (arm_->disk != id() || (arm_->writes_only && !write)) return false;
    arm_->disk = -1;
    arm_->fired = true;
    return true;
  }

  std::unique_ptr<BlockDevice> inner_;
  FailArm* arm_;
};

TEST(DegradedWrite, SecondFailureMidUpdateKeepsEveryByte) {
  // A degraded D-Code p=7 array loses a second disk inside a write: each
  // live disk in turn fails at its first transfer of the write (an
  // old-value read, before the stripe's first device write, so write()
  // re-plans around both disks) or at its first device write (after
  // others landed, so the executor replays its captured targets and
  // skips the disk). Either way the write returns, reads match the
  // shadow, and replacing and rebuilding both disks leaves a clean
  // stripe set.
  constexpr size_t kElem = 256;
  constexpr int kLost = 2;
  const int cols = codes::make_layout("dcode", 7)->cols();
  int fired = 0;
  for (bool writes_only : {false, true}) {
    for (int second = 0; second < cols; ++second) {
      if (second == kLost) continue;
      SCOPED_TRACE(std::string(writes_only ? "first write" : "first transfer") +
                   " on disk " + std::to_string(second));
      FailArm arm;
      ArrayOptions opts;
      opts.device_factory = [&arm](int id, size_t size) {
        return std::make_unique<FailOnceDisk>(
            std::make_unique<MemDisk>(id, size), &arm);
      };
      Raid6Array array(codes::make_layout("dcode", 7), kElem, 3, 1, nullptr,
                       opts);
      Pcg32 rng(40 + static_cast<uint64_t>(second));
      std::vector<uint8_t> shadow(static_cast<size_t>(array.capacity()));
      rng.fill_bytes(shadow.data(), shadow.size());
      array.write(0, shadow);
      array.fail_disk(kLost);

      // Elements 30..41 with partial edges: the tail of stripe 0 and the
      // head of stripe 1.
      const int64_t offset = 30 * static_cast<int64_t>(kElem) + 77;
      std::vector<uint8_t> patch(12 * kElem - 150);
      rng.fill_bytes(patch.data(), patch.size());
      arm.disk = second;
      arm.writes_only = writes_only;
      array.write(offset, patch);
      std::copy(patch.begin(), patch.end(),
                shadow.begin() + static_cast<ptrdiff_t>(offset));
      arm.disk = -1;
      EXPECT_EQ(array.disk(second).failed(), arm.fired);
      fired += arm.fired;

      std::vector<uint8_t> out(shadow.size());
      array.read(0, out);
      EXPECT_EQ(out, shadow);

      array.replace_disk(kLost);
      if (arm.fired) array.replace_disk(second);
      array.rebuild();
      EXPECT_EQ(array.failed_disk_count(), 0);
      EXPECT_EQ(array.scrub(), 0);
      array.read(0, out);
      EXPECT_EQ(out, shadow);
    }
  }
  // Every live disk serves both a transfer and a device write of it.
  EXPECT_EQ(fired, 2 * (cols - 1));
}

TEST(HotSpares, AutomaticRebuildKeepsArrayHealthy) {
  Raid6Array array(codes::make_layout("dcode", 7), 256, 4, 2);
  array.add_hot_spares(3);
  Pcg32 rng(5);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  // Three sequential failures, each absorbed by a spare.
  for (int f : {1, 4, 6}) {
    array.fail_disk(f);
    EXPECT_EQ(array.failed_disk_count(), 0) << "spare must absorb disk " << f;
    EXPECT_EQ(array.scrub(), 0);
  }
  EXPECT_EQ(array.hot_spares(), 0);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);

  // Spares exhausted: the next failure degrades the array normally.
  array.fail_disk(0);
  EXPECT_EQ(array.failed_disk_count(), 1);
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

}  // namespace
}  // namespace dcode::raid
