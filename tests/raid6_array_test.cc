// End-to-end tests for the byte-level Raid6Array: round-trips, degraded
// operation, rebuild, and scrubbing — across all codes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "codes/registry.h"
#include "parking_disk.h"
#include "raid/raid6_array.h"
#include "util/rng.h"

namespace dcode::raid {
namespace {

constexpr size_t kElem = 512;
constexpr int64_t kStripes = 6;

std::vector<uint8_t> random_blob(Pcg32& rng, size_t n) {
  std::vector<uint8_t> v(n);
  rng.fill_bytes(v.data(), n);
  return v;
}

class ArrayAllCodes : public ::testing::TestWithParam<std::string> {
 protected:
  Raid6Array make(unsigned threads = 1) {
    return Raid6Array(codes::make_layout(GetParam(), 7), kElem, kStripes,
                      threads);
  }
};

INSTANTIATE_TEST_SUITE_P(Codes, ArrayAllCodes,
                         ::testing::Values("dcode", "xcode", "rdp", "evenodd",
                                           "hcode", "hdp", "pcode",
                                           "liberation"),
                         [](const auto& info) { return info.param; });

TEST_P(ArrayAllCodes, WriteReadRoundTripWholeArray) {
  Raid6Array array = make();
  Pcg32 rng(1);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
  EXPECT_EQ(array.scrub(), 0) << "parities must be consistent after writes";
}

TEST_P(ArrayAllCodes, UnalignedOffsetsAndSizes) {
  Raid6Array array = make();
  Pcg32 rng(2);
  auto base = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, base);

  // Overwrite odd ranges, re-read everything and compare to a shadow copy.
  for (int trial = 0; trial < 25; ++trial) {
    int64_t off = static_cast<int64_t>(
        rng.next_u64() % static_cast<uint64_t>(array.capacity() - 1));
    size_t len = 1 + rng.next_below(static_cast<uint32_t>(
                          std::min<int64_t>(3000, array.capacity() - off)));
    auto patch = random_blob(rng, len);
    array.write(off, patch);
    std::copy(patch.begin(), patch.end(),
              base.begin() + static_cast<ptrdiff_t>(off));
  }
  std::vector<uint8_t> out(base.size());
  array.read(0, out);
  EXPECT_EQ(out, base);
  EXPECT_EQ(array.scrub(), 0);
}

TEST_P(ArrayAllCodes, DegradedReadAfterOneFailure) {
  Raid6Array array = make();
  Pcg32 rng(3);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  for (int f = 0; f < array.layout().cols(); ++f) {
    Raid6Array a2 = make();
    a2.write(0, blob);
    a2.fail_disk(f);
    std::vector<uint8_t> out(blob.size());
    a2.read(0, out);
    EXPECT_EQ(out, blob) << "failed disk " << f;
  }
}

TEST_P(ArrayAllCodes, DegradedReadAfterTwoFailures) {
  Pcg32 rng(4);
  // Disk indices valid for every code's geometry (HDP p=7 has 6 disks).
  for (auto [f1, f2] :
       std::vector<std::pair<int, int>>{{0, 1}, {2, 5}, {1, 4}}) {
    Raid6Array array = make();
    auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
    array.write(0, blob);
    array.fail_disk(f1);
    array.fail_disk(f2);
    std::vector<uint8_t> out(blob.size());
    array.read(0, out);
    EXPECT_EQ(out, blob) << f1 << "," << f2;
  }
}

TEST_P(ArrayAllCodes, RebuildSingleDiskRestoresEverything) {
  Raid6Array array = make(/*threads=*/4);
  Pcg32 rng(5);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  array.fail_disk(3);
  array.replace_disk(3);
  array.rebuild();
  EXPECT_EQ(array.failed_disk_count(), 0);
  EXPECT_EQ(array.scrub(), 0) << "rebuild must restore parity consistency";
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

TEST_P(ArrayAllCodes, RebuildTwoDisksRestoresEverything) {
  Raid6Array array = make(/*threads=*/4);
  Pcg32 rng(6);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  array.fail_disk(1);
  array.fail_disk(4);
  array.replace_disk(1);
  array.replace_disk(4);
  array.rebuild();
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

TEST_P(ArrayAllCodes, DegradedWriteThenRebuild) {
  Raid6Array array = make();
  Pcg32 rng(7);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  array.fail_disk(2);
  // Write while degraded (delta update around the lost column).
  auto patch = random_blob(rng, 5000);
  array.write(1234, patch);
  std::copy(patch.begin(), patch.end(), blob.begin() + 1234);

  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob) << "degraded read after degraded write";

  array.replace_disk(2);
  array.rebuild();
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> out2(blob.size());
  array.read(0, out2);
  EXPECT_EQ(out2, blob);
}

TEST_P(ArrayAllCodes, DegradedWriteSweepMatchesShadowThenRebuilds) {
  // With one and with two failed disks: a seeded write from every start
  // in a stripe, 1 to one and a half stripes long, every other one with
  // partial edges; after each, the whole array must read as the shadow.
  // Then the disks are replaced and rebuilt: the stripes the writes
  // skipped on the lost columns must come back consistent and exact.
  for (const std::vector<int>& failed :
       std::vector<std::vector<int>>{{2}, {1, 4}}) {
    SCOPED_TRACE("failed disks " + std::to_string(failed.front()) +
                 (failed.size() > 1 ? "," + std::to_string(failed[1]) : ""));
    Raid6Array array = make();
    Pcg32 rng(30 + failed.size());
    auto shadow = random_blob(rng, static_cast<size_t>(array.capacity()));
    array.write(0, shadow);
    for (int f : failed) array.fail_disk(f);

    const int64_t per_stripe = array.layout().data_count();
    const auto esize = static_cast<int64_t>(kElem);
    std::vector<uint8_t> out(shadow.size());
    for (int64_t start = 0; start < per_stripe; ++start) {
      // Stripes 0..3 hold the start; a stripe and a half more stays
      // inside the array's kStripes = 6.
      const int64_t first = (start % 4) * per_stripe + start;
      const int64_t elements = 1 + rng.next_below(static_cast<uint32_t>(
                                       per_stripe * 3 / 2));
      int64_t offset = first * esize;
      int64_t len = elements * esize;
      if (start % 2 == 1) {
        const auto edge = static_cast<uint32_t>(kElem - 1);
        const int64_t head = 1 + rng.next_below(edge);
        offset += head;
        len -= head;
        if (elements > 1) len -= 1 + rng.next_below(edge);
      }
      auto patch = random_blob(rng, static_cast<size_t>(len));
      array.write(offset, patch);
      std::copy(patch.begin(), patch.end(),
                shadow.begin() + static_cast<ptrdiff_t>(offset));
      array.read(0, out);
      ASSERT_EQ(out, shadow) << "after the write at " << offset << "+" << len;
    }

    for (int f : failed) array.replace_disk(f);
    array.rebuild();
    EXPECT_EQ(array.failed_disk_count(), 0);
    EXPECT_EQ(array.scrub(), 0);
    array.read(0, out);
    EXPECT_EQ(out, shadow);
  }
}

TEST_P(ArrayAllCodes, ScrubDetectsSilentCorruption) {
  Raid6Array array = make();
  Pcg32 rng(8);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);
  ASSERT_EQ(array.scrub(), 0);

  array.disk(2).corrupt(kElem / 2, 16, rng);
  EXPECT_EQ(array.scrub(), 1) << "corruption confined to one stripe";
}

TEST(Raid6Array, StatsAccounting) {
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 2, 1);
  array.reset_stats();
  std::vector<uint8_t> buf(kElem);
  array.read(0, buf);
  EXPECT_EQ(array.disk(0).reads(), 1);
  for (int d = 1; d < 7; ++d) EXPECT_EQ(array.disk(d).reads(), 0);

  Pcg32 rng(9);
  rng.fill_bytes(buf.data(), buf.size());
  array.write(0, buf);
  // One data write plus exactly two parity updates (optimal update
  // complexity): disk 0 gets the data write, two other disks get
  // read+write of their parity.
  int64_t total_writes = 0;
  for (int d = 0; d < 7; ++d) total_writes += array.disk(d).writes();
  EXPECT_EQ(total_writes, 3);
}

TEST(Raid6Array, CapacityAndBoundsChecks) {
  Raid6Array array(codes::make_layout("dcode", 5), 64, 2, 1);
  EXPECT_EQ(array.capacity(), 2 * 15 * 64);
  std::vector<uint8_t> buf(65);
  EXPECT_THROW(array.read(array.capacity() - 64, buf), std::logic_error);
  EXPECT_THROW(array.write(-1, buf), std::logic_error);
  EXPECT_THROW(array.fail_disk(5), std::logic_error);
  EXPECT_THROW(array.replace_disk(0), std::logic_error);  // not failed
}

TEST(Raid6Array, ThreeFailuresAreFatal) {
  Raid6Array array(codes::make_layout("dcode", 7), 64, 2, 1);
  Pcg32 rng(10);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);
  array.fail_disk(0);
  array.fail_disk(1);
  array.fail_disk(2);
  std::vector<uint8_t> out(64);
  EXPECT_THROW(array.read(0, out), std::logic_error);
}

TEST(Raid6Array, ParallelRebuildMatchesSerial) {
  Pcg32 rng(11);
  std::vector<uint8_t> blob;
  auto build = [&](unsigned threads) {
    Raid6Array a(codes::make_layout("xcode", 11), 256, 32, threads);
    if (blob.empty())
      blob = random_blob(rng, static_cast<size_t>(a.capacity()));
    a.write(0, blob);
    a.fail_disk(2);
    a.fail_disk(7);
    a.replace_disk(2);
    a.replace_disk(7);
    a.rebuild();
    std::vector<uint8_t> out(blob.size());
    a.read(0, out);
    return out;
  };
  auto serial = build(1);
  auto parallel = build(8);
  EXPECT_EQ(serial, blob);
  EXPECT_EQ(parallel, blob);
}

// A degraded read decodes a lost element through the other members of
// its equations, so it must not run while a write to a neighbouring
// element of the same stripe is half applied. Geometry (D-Code p=5,
// 512-byte elements, disk 1 failed): element 30 or 31 is lost and
// decodes through element 32 or 33 and the parity on disk 3, all in
// stripe 2. The write of elements 32-33 is parked inside disk 3, after
// its data elements landed and before that parity did.
TEST(Raid6Array, DegradedReadWaitsForAnInFlightWriteToItsStripe) {
  WriteParking parking;
  const DeviceFactory backend = default_device_factory();
  ArrayOptions opts;
  opts.device_factory = [&](int id, size_t size) {
    return std::unique_ptr<BlockDevice>(std::make_unique<ParkingDisk>(
        backend(id, size), id == 3 ? &parking : nullptr));
  };
  Raid6Array array(codes::make_layout("dcode", 5), kElem, 4, /*threads=*/1,
                   nullptr, std::move(opts));
  Pcg32 rng(12);
  std::vector<uint8_t> shadow =
      random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, shadow);
  array.fail_disk(1);

  const std::vector<uint8_t> patch = random_blob(rng, 2 * kElem);
  std::thread writer([&] {
    park_my_writes = true;
    array.write(32 * static_cast<int64_t>(kElem), patch);
  });
  bool parked = false;
  {
    std::unique_lock<std::mutex> lock(parking.mu);
    parked = parking.cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return parking.parked; });
  }
  EXPECT_TRUE(parked) << "the write never reached disk 3";
  std::vector<uint8_t> got(2 * kElem);
  std::atomic<bool> read_done{false};
  std::thread reader([&] {
    array.read(30 * static_cast<int64_t>(kElem), got);
    read_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(read_done) << "the read ran while stripe 2 was mid-update";
  {
    std::lock_guard<std::mutex> lock(parking.mu);
    parking.released = true;
  }
  parking.cv.notify_all();
  writer.join();
  reader.join();
  EXPECT_EQ(0, std::memcmp(got.data(), shadow.data() + 30 * kElem,
                           got.size()));
  std::memcpy(shadow.data() + 32 * kElem, patch.data(), patch.size());
  std::vector<uint8_t> back(shadow.size());
  array.read(0, back);
  EXPECT_EQ(back, shadow);
}

}  // namespace
}  // namespace dcode::raid
