// Reproduction regression locks: the headline paper-shape results from
// EXPERIMENTS.md, asserted with tolerance bands at reduced operation
// counts. If a change to a layout, planner, or the disk model breaks the
// reproduction, this file says so before the benches do.
#include <gtest/gtest.h>

#include <cmath>

#include "codes/decoder.h"
#include "codes/encoder.h"
#include "codes/registry.h"
#include "raid/recovery.h"
#include "sim/experiments.h"
#include "util/rng.h"

namespace dcode {
namespace {

constexpr uint64_t kSeed = 0x2EF20;
constexpr int kOps = 800;

double io_cost(const char* name, sim::WorkloadKind kind) {
  auto layout = codes::make_layout(name, 13);
  return static_cast<double>(
      sim::run_load_experiment(*layout, kind, kSeed, false, kOps).io_cost);
}

TEST(ReproductionLock, Figure5ReadIntensiveDeltasAtP13) {
  // Paper: D-Code 16.0% / 15.3% below HDP / X-Code; we lock 10–25%.
  double dc = io_cost("dcode", sim::WorkloadKind::kReadIntensive);
  double hdp = io_cost("hdp", sim::WorkloadKind::kReadIntensive);
  double xc = io_cost("xcode", sim::WorkloadKind::kReadIntensive);
  EXPECT_GT(1.0 - dc / hdp, 0.10);
  EXPECT_LT(1.0 - dc / hdp, 0.25);
  EXPECT_GT(1.0 - dc / xc, 0.10);
  EXPECT_LT(1.0 - dc / xc, 0.25);
}

TEST(ReproductionLock, Figure5MixedDeltasAtP13) {
  // Paper: 23.1% / 22.2%; we lock 15–30%. RDP/H-Code within ±6%.
  double dc = io_cost("dcode", sim::WorkloadKind::kMixed);
  EXPECT_GT(1.0 - dc / io_cost("hdp", sim::WorkloadKind::kMixed), 0.15);
  EXPECT_LT(1.0 - dc / io_cost("hdp", sim::WorkloadKind::kMixed), 0.30);
  EXPECT_GT(1.0 - dc / io_cost("xcode", sim::WorkloadKind::kMixed), 0.15);
  double rdp = io_cost("rdp", sim::WorkloadKind::kMixed);
  EXPECT_LT(std::abs(dc - rdp) / rdp, 0.06);
}

TEST(ReproductionLock, Figure4BalanceClasses) {
  // Well-balanced codes stay under 1.2 on mixed; RDP stays above 3 at
  // p=13; H-Code sits in between.
  auto lf = [&](const char* name) {
    auto layout = codes::make_layout(name, 13);
    return sim::run_load_experiment(*layout, sim::WorkloadKind::kMixed,
                                    kSeed, false, kOps)
        .load_balancing_factor;
  };
  EXPECT_LT(lf("dcode"), 1.2);
  EXPECT_LT(lf("xcode"), 1.2);
  EXPECT_LT(lf("hdp"), 1.2);
  EXPECT_GT(lf("rdp"), 3.0);
  double hc = lf("hcode");
  EXPECT_GT(hc, 1.2);
  EXPECT_LT(hc, 3.0);
}

TEST(ReproductionLock, Figure6NormalReadOrdering) {
  sim::DiskModelParams params;
  auto speed = [&](const char* name) {
    auto layout = codes::make_layout(name, 13);
    return sim::run_normal_read_experiment(*layout, kSeed, params, 400)
        .read_mb_s;
  };
  double dc = speed("dcode");
  EXPECT_NEAR(dc / speed("xcode"), 1.0, 0.01) << "identical data layouts";
  EXPECT_GT(dc, speed("rdp"));
  EXPECT_GT(dc, speed("hcode"));
}

TEST(ReproductionLock, Figure7DegradedReadOrdering) {
  sim::DiskModelParams params;
  auto speed = [&](const char* name) {
    auto layout = codes::make_layout(name, 13);
    return sim::run_degraded_read_experiment(*layout, kSeed, params, 30)
        .read_mb_s;
  };
  double dc = speed("dcode");
  // Paper: D-Code 11.6–26.0% over X-Code (ours runs larger at p=13);
  // RDP/H-Code slightly above D-Code.
  EXPECT_GT(dc / speed("xcode"), 1.10);
  EXPECT_GT(speed("rdp"), dc * 0.98);
  EXPECT_GT(speed("hcode"), dc * 0.98);
}

TEST(ReproductionLock, TwoDiskDecodeXorCounts) {
  // §III-D decoding complexity, as bench_complexity measures it: one
  // hybrid_decode of disks {0, cols/2}, one step per lost element. D-Code
  // costs n-3 XORs per lost element (56 / 14 at p=7, 260 / 26 at p=13).
  const struct {
    int p;
    std::vector<size_t> xor_ops;  // in all_code_names() order
  } kExpected[] = {
      {7, {56, 56, 60, 129, 60, 42, 18, 125, 222}},
      {13, {260, 260, 264, 510, 264, 228, 108, 400, 847}},
  };
  for (const auto& row : kExpected) {
    const auto& names = codes::all_code_names();
    ASSERT_EQ(names.size(), row.xor_ops.size());
    for (size_t i = 0; i < names.size(); ++i) {
      SCOPED_TRACE(names[i] + " p=" + std::to_string(row.p));
      auto layout = codes::make_layout(names[i], row.p);
      Pcg32 rng(1);
      codes::Stripe s(*layout, 16);
      s.randomize_data(rng);
      codes::encode_stripe(s);
      codes::Stripe broken = s.clone();
      const int fd[2] = {0, layout->cols() / 2};
      const auto lost = codes::elements_of_disks(*layout, fd);
      for (int d : fd) broken.erase_disk(d);
      const codes::DecodeResult res = codes::hybrid_decode(broken, lost);
      ASSERT_TRUE(res.success);
      EXPECT_TRUE(broken.equals(s));
      EXPECT_EQ(res.steps, lost.size());
      EXPECT_EQ(res.xor_ops, row.xor_ops[i]);
    }
  }
}

TEST(ReproductionLock, RecoveryReadSavingAtP13) {
  // Paper §III-D (via Xu et al.): ~25% asymptotically; 21.8% measured at
  // p=13; we lock 18–26% and the D-Code == X-Code identity (Theorem 1).
  for (const char* name : {"dcode", "xcode"}) {
    auto layout = codes::make_layout(name, 13);
    double conv = 0, opt = 0;
    for (int f = 0; f < layout->cols(); ++f) {
      conv += static_cast<double>(
          raid::plan_single_disk_recovery(
              *layout, f, raid::RecoveryStrategy::kConventional)
              .reads.size());
      opt += static_cast<double>(
          raid::plan_single_disk_recovery(
              *layout, f, raid::RecoveryStrategy::kMinimalReads)
              .reads.size());
    }
    double saving = 1.0 - opt / conv;
    EXPECT_GT(saving, 0.18) << name;
    EXPECT_LT(saving, 0.26) << name;
  }
  auto d = codes::make_layout("dcode", 13);
  auto x = codes::make_layout("xcode", 13);
  for (int f = 0; f < 13; ++f) {
    EXPECT_EQ(raid::plan_single_disk_recovery(
                  *d, f, raid::RecoveryStrategy::kMinimalReads)
                  .reads.size(),
              raid::plan_single_disk_recovery(
                  *x, f, raid::RecoveryStrategy::kMinimalReads)
                  .reads.size())
        << "Theorem 1 identity broken at disk " << f;
  }
}

}  // namespace
}  // namespace dcode
