// Property tests for the logical address map and rotation.
#include <gtest/gtest.h>

#include <set>

#include "codes/registry.h"
#include "raid/address_map.h"

namespace dcode::raid {
namespace {

TEST(AddressMap, LocateRoundTripsWithinStripes) {
  for (const auto& name : codes::all_code_names()) {
    auto layout = codes::make_layout(name, 7);
    AddressMap map(*layout);
    const int64_t dps = map.data_per_stripe();
    EXPECT_EQ(dps, layout->data_count());
    for (int64_t g : {int64_t{0}, dps - 1, dps, 3 * dps + 5}) {
      auto loc = map.locate(g);
      EXPECT_EQ(loc.stripe, g / dps);
      EXPECT_EQ(layout->data_index(loc.element.row, loc.element.col),
                static_cast<int>(g % dps));
      EXPECT_EQ(loc.disk, loc.element.col) << "no rotation: identity";
    }
  }
}

TEST(AddressMap, ConsecutiveElementsAdvanceRowMajor) {
  auto layout = codes::make_layout("dcode", 7);
  AddressMap map(*layout);
  for (int64_t g = 0; g + 1 < 2 * map.data_per_stripe(); ++g) {
    auto a = map.locate(g);
    auto b = map.locate(g + 1);
    if (a.stripe == b.stripe) {
      // Row-major: strictly increasing (row, col).
      EXPECT_LT(a.element, b.element);
    } else {
      EXPECT_EQ(b.stripe, a.stripe + 1);
      EXPECT_EQ(b.element, layout->data_element(0));
    }
  }
}

TEST(AddressMap, RotationIsAPermutationPerStripe) {
  auto layout = codes::make_layout("rdp", 7);
  AddressMap map(*layout, /*rotate=*/true);
  for (int64_t s = 0; s < 10; ++s) {
    std::set<int> disks;
    for (int c = 0; c < layout->cols(); ++c) {
      int d = map.physical_disk(s, c);
      EXPECT_GE(d, 0);
      EXPECT_LT(d, layout->cols());
      EXPECT_TRUE(disks.insert(d).second) << "collision in stripe " << s;
    }
  }
}

TEST(AddressMap, RotationShiftsByOneEachStripe) {
  auto layout = codes::make_layout("dcode", 5);
  AddressMap map(*layout, /*rotate=*/true);
  EXPECT_EQ(map.physical_disk(0, 0), 0);
  EXPECT_EQ(map.physical_disk(1, 0), 1);
  EXPECT_EQ(map.physical_disk(4, 0), 4);
  EXPECT_EQ(map.physical_disk(5, 0), 0);  // wraps at cols
  EXPECT_EQ(map.physical_disk(1, 4), 0);
}

TEST(AddressMap, RotationSpreadsAColumnAcrossAllDisks) {
  // Over cols consecutive stripes, column 0 visits every physical disk —
  // the "global" balance rotation buys (and the only balance it buys).
  auto layout = codes::make_layout("rdp", 7);
  AddressMap map(*layout, true);
  std::set<int> seen;
  for (int64_t s = 0; s < layout->cols(); ++s) {
    seen.insert(map.physical_disk(s, layout->cols() - 1));  // parity col
  }
  EXPECT_EQ(static_cast<int>(seen.size()), layout->cols());
}

TEST(AddressMap, LogicalColumnInvertsPhysicalDisk) {
  auto layout = codes::make_layout("dcode", 7);
  for (bool rotate : {false, true}) {
    AddressMap map(*layout, rotate);
    for (int64_t s : {int64_t{0}, int64_t{1}, int64_t{6}, int64_t{7},
                      int64_t{123457}}) {
      for (int c = 0; c < layout->cols(); ++c) {
        EXPECT_EQ(map.logical_column(s, map.physical_disk(s, c)), c)
            << "rotate " << rotate << " stripe " << s;
      }
    }
  }
}

TEST(AddressMap, NegativeAddressRejected) {
  auto layout = codes::make_layout("dcode", 5);
  AddressMap map(*layout);
  EXPECT_THROW((void)map.locate(-1), std::logic_error);
}

}  // namespace
}  // namespace dcode::raid
