// Property tests for the decoders across every code: cost accounting
// against theory, peel/GE agreement on random erasure patterns, parity
// column losses, idempotence, and the peel schedule the decoders and the
// degraded-read planner share.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <tuple>

#include "codes/decoder.h"
#include "codes/encoder.h"
#include "codes/registry.h"
#include "codes/solve.h"
#include "raid/planner.h"
#include "util/rng.h"

namespace dcode::codes {
namespace {

using Param = std::tuple<std::string, int>;

class DecoderProperties : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    layout_ = make_layout(std::get<0>(GetParam()), std::get<1>(GetParam()));
    Pcg32 rng(0xDEC0DE);
    stripe_ = std::make_unique<Stripe>(*layout_, kEsize);
    stripe_->randomize_data(rng);
    encode_stripe(*stripe_);
  }

  static constexpr size_t kEsize = 24;
  std::unique_ptr<CodeLayout> layout_;
  std::unique_ptr<Stripe> stripe_;
};

INSTANTIATE_TEST_SUITE_P(
    AllCodes, DecoderProperties,
    ::testing::Combine(::testing::Values("dcode", "xcode", "rdp", "evenodd",
                                         "hcode", "hdp", "pcode",
                                         "liberation"),
                       ::testing::Values(5, 7, 13)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(DecoderProperties, SingleDataElementLossCostsOneEquation) {
  // Losing one data element must cost exactly |smallest containing
  // equation| - 1 XOR element-ops when peeled.
  Element e = layout_->data_element(layout_->data_count() / 2);
  Stripe broken = stripe_->clone();
  std::memset(broken.at(e), 0, kEsize);
  std::vector<Element> lost = {e};
  auto res = peel_decode(broken, lost);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(broken.equals(*stripe_));

  size_t smallest = SIZE_MAX;
  for (int qi : layout_->equations_containing(e.row, e.col)) {
    smallest = std::min(smallest,
                        layout_->equations()[static_cast<size_t>(qi)]
                            .sources.size());
  }
  // Peeling uses whatever ready equation it finds first; the cost is that
  // equation's fan-in (sources count, parity included, minus the target),
  // bounded by the largest equation.
  EXPECT_GE(res.xor_ops + 1, smallest);
  EXPECT_EQ(res.steps, 1u);
}

TEST_P(DecoderProperties, ParityColumnsAloneAlwaysRecompute) {
  // Losing only parity elements is always recoverable by re-encoding.
  std::vector<Element> lost;
  for (int r = 0; r < layout_->rows(); ++r) {
    for (int c = 0; c < layout_->cols(); ++c) {
      if (layout_->is_parity(r, c)) lost.push_back(make_element(r, c));
    }
  }
  EXPECT_TRUE(is_recoverable(*layout_, lost));
  Stripe broken = stripe_->clone();
  for (const Element& e : lost) std::memset(broken.at(e), 0xEE, kEsize);
  auto res = hybrid_decode(broken, lost);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(broken.equals(*stripe_));
}

TEST_P(DecoderProperties, PeelAndGeAgreeOnRandomRecoverablePatterns) {
  Pcg32 rng(99);
  int agreements = 0;
  for (int trial = 0; trial < 40; ++trial) {
    // Random pattern confined to two columns (always recoverable).
    int c1 = rng.next_in_range(0, layout_->cols() - 1);
    int c2 = rng.next_in_range(0, layout_->cols() - 1);
    std::set<Element> chosen;
    int n = rng.next_in_range(1, layout_->rows());
    while (static_cast<int>(chosen.size()) < n) {
      int col = rng.next_below(2) ? c1 : c2;
      chosen.insert(make_element(
          rng.next_in_range(0, layout_->rows() - 1), col));
    }
    std::vector<Element> lost(chosen.begin(), chosen.end());
    ASSERT_TRUE(is_recoverable(*layout_, lost));

    Stripe via_ge = stripe_->clone();
    for (const Element& e : lost) std::memset(via_ge.at(e), 1, kEsize);
    ASSERT_TRUE(ge_decode(via_ge, lost).success);
    EXPECT_TRUE(via_ge.equals(*stripe_));

    Stripe via_hybrid = stripe_->clone();
    for (const Element& e : lost) std::memset(via_hybrid.at(e), 2, kEsize);
    ASSERT_TRUE(hybrid_decode(via_hybrid, lost).success);
    EXPECT_TRUE(via_hybrid.equals(*stripe_));
    ++agreements;
  }
  EXPECT_EQ(agreements, 40);
}

TEST_P(DecoderProperties, DecodeIsIdempotent) {
  // Decoding an intact stripe (nothing lost) is a no-op; decoding twice
  // gives the same bytes.
  std::vector<Element> none;
  Stripe copy = stripe_->clone();
  EXPECT_TRUE(hybrid_decode(copy, none).success);
  EXPECT_TRUE(copy.equals(*stripe_));

  int f = layout_->cols() / 2;
  Stripe broken = stripe_->clone();
  broken.erase_disk(f);
  int fd[1] = {f};
  auto lost = elements_of_disks(*layout_, fd);
  ASSERT_TRUE(hybrid_decode(broken, lost).success);
  ASSERT_TRUE(hybrid_decode(broken, lost).success);  // again, from valid data
  EXPECT_TRUE(broken.equals(*stripe_));
}

TEST_P(DecoderProperties, EncoderIsDeterministicAndIdempotent) {
  Stripe again = stripe_->clone();
  encode_stripe(again);
  EXPECT_TRUE(again.equals(*stripe_));
}

TEST_P(DecoderProperties, PeelScheduleIsWhatTheDecodersAndPlannerRun) {
  // Every one- and two-column erasure set: applying the schedule's steps
  // restores the erased bytes it reaches, it reaches everything exactly
  // when peel_decode succeeds, and a whole-stripe two-column degraded
  // read rebuilds each target through the schedule's equation for it.
  const int cols = layout_->cols();
  const raid::AddressMap map(*layout_);
  const raid::IoPlanner planner(map);
  size_t chained = 0;  // reconstructions checked against the schedule
  for (int c1 = 0; c1 < cols; ++c1) {
    for (int c2 = c1; c2 < cols; ++c2) {
      SCOPED_TRACE("columns " + std::to_string(c1) + "," +
                   std::to_string(c2));
      std::vector<int> failed = {c1};
      if (c2 != c1) failed.push_back(c2);
      const std::vector<Element> lost = elements_of_disks(*layout_, failed);
      const PeelSchedule sched = peel_schedule(*layout_, lost);

      Stripe broken = stripe_->clone();
      for (const Element& e : lost) std::memset(broken.at(e), 0xA5, kEsize);
      for (const PeelStep& step : sched.steps) {
        solve(layout_->equations()[static_cast<size_t>(step.equation)],
              step.target, broken);
      }
      std::set<Element> reached;
      for (const PeelStep& step : sched.steps) {
        EXPECT_TRUE(reached.insert(step.target).second);
        EXPECT_EQ(0, std::memcmp(broken.at(step.target),
                                 stripe_->at(step.target), kEsize));
      }
      for (const Element& e : sched.unreached) {
        EXPECT_TRUE(reached.insert(e).second);
      }
      EXPECT_EQ(reached, std::set<Element>(lost.begin(), lost.end()));

      Stripe peeled = stripe_->clone();
      for (const Element& e : lost) std::memset(peeled.at(e), 0x5A, kEsize);
      EXPECT_EQ(peel_decode(peeled, lost).success, sched.unreached.empty());

      if (failed.size() != 2) continue;
      const raid::IoPlan plan =
          planner.plan_degraded_read(0, layout_->data_count(), failed);
      for (const raid::Reconstruction& rec : plan.reconstructions) {
        EXPECT_EQ(rec.equation,
                  sched.equation[static_cast<size_t>(rec.target.row * cols +
                                                     rec.target.col)])
            << "target (" << rec.target.row << "," << rec.target.col << ")";
        chained += rec.equation >= 0;
      }
    }
  }
  EXPECT_GT(chained, 0u);
}

TEST_P(DecoderProperties, WholeStripeLossIsUnrecoverable) {
  std::vector<Element> all;
  for (int r = 0; r < layout_->rows(); ++r) {
    for (int c = 0; c < layout_->cols(); ++c) {
      all.push_back(make_element(r, c));
    }
  }
  EXPECT_FALSE(is_recoverable(*layout_, all));
}

}  // namespace
}  // namespace dcode::codes
