// Foreground stripe I/O without per-element buffers.
//
// Raid6Array's foreground stripe paths (the RMW write, healthy or with a
// lost column, the degraded read and a healthy read's partial edges)
// work in reused scratch and in the caller's buffer. This binary
// replaces the global operator new/delete (plain and std::align_val_t
// forms) with a counting shim, so it stands alone: once an array is
// warmed up, none of those paths may allocate a buffer of element size
// or more. A second counter sees allocations of any size: once warm, on
// a one-worker pool, the healthy paths (RMW writes, reads) and the
// degraded ones with one or two failed disks (recovery chains included)
// allocate nothing at all, so a change that adds one shows here.
//
// The second suite pins the ownership rule that makes the reuse safe: a
// whole-stripe scratch points at its array's layout, so it must belong
// to the array. Arrays of every RAID-6 code come and go on one thread
// with healthy and degraded ops interleaved between two live arrays; a
// scratch cached past its array would carry the wrong stripe shape into
// the next one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "codes/registry.h"
#include "obs/metrics.h"
#include "raid/mem_disk.h"
#include "raid/raid6_array.h"
#include "util/aligned_buffer.h"
#include "util/rng.h"

namespace {

// While armed, every allocation is counted in g_any, and each of at
// least g_min_bytes in g_large as well.
std::atomic<bool> g_armed{false};
std::atomic<size_t> g_min_bytes{0};
std::atomic<int64_t> g_large{0};
std::atomic<int64_t> g_any{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_any.fetch_add(1, std::memory_order_relaxed);
    if (n >= g_min_bytes.load(std::memory_order_relaxed)) {
      g_large.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_nothrow(std::size_t n, std::size_t align) noexcept {
  try {
    return counted_alloc(n, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dcode::raid {
namespace {

// --- the allocation guard --------------------------------------------------

constexpr size_t kElem = 4096;
constexpr int64_t kStripes = 4;

// D-Code p=7 (35 data elements per stripe) on MemDisk, one pool thread so
// every transfer runs on the calling thread.
class ForegroundAllocations : public ::testing::Test {
 protected:
  ForegroundAllocations() {
    ArrayOptions opts;
    opts.device_factory = [](int id, size_t size) {
      return std::make_unique<MemDisk>(id, size);
    };
    array_ = std::make_unique<Raid6Array>(codes::make_layout("dcode", 7),
                                          kElem, kStripes, /*threads=*/1,
                                          &reg_, opts);
    Pcg32 rng(18);
    shadow_.resize(static_cast<size_t>(array_->capacity()));
    rng.fill_bytes(shadow_.data(), shadow_.size());
    array_->write(0, shadow_);
  }

  struct Allocations {
    int64_t large = 0;  // of at least one element
    int64_t any = 0;    // of any size
  };

  // Runs `op` once to warm up, then again with the counters armed;
  // returns the armed run's allocations.
  static Allocations allocations(const std::function<void()>& op) {
    op();
    g_large.store(0);
    g_any.store(0);
    g_min_bytes.store(kElem);
    g_armed.store(true);
    op();
    g_armed.store(false);
    return {g_large.load(), g_any.load()};
  }

  // Writes `len` fresh bytes at `offset` (mirrored into the shadow) and
  // counts the armed run's allocations.
  Allocations write_allocations(int64_t offset, size_t len) {
    std::vector<uint8_t> data(len);
    Pcg32 rng(static_cast<uint64_t>(offset) ^ len);
    rng.fill_bytes(data.data(), data.size());
    std::memcpy(shadow_.data() + offset, data.data(), len);
    return allocations([&] { array_->write(offset, data); });
  }

  // Counts the armed run's allocations for a read of [offset, offset+len)
  // and checks the bytes it returned.
  Allocations read_allocations(int64_t offset, size_t len) {
    std::vector<uint8_t> out(len);
    const Allocations n = allocations([&] { array_->read(offset, out); });
    EXPECT_EQ(0, std::memcmp(out.data(), shadow_.data() + offset, len));
    return n;
  }

  void expect_intact() {
    std::vector<uint8_t> out(shadow_.size());
    array_->read(0, out);
    EXPECT_EQ(out, shadow_);
  }

  static int64_t elem(int64_t e) { return e * static_cast<int64_t>(kElem); }

  obs::Registry reg_;
  std::unique_ptr<Raid6Array> array_;
  std::vector<uint8_t> shadow_;
};

TEST_F(ForegroundAllocations, GuardCountsPlainAndAlignedAllocations) {
  // The shim itself: without this, a binary that lost the replacement
  // would pass every case below vacuously. Direct calls, because a
  // compiler may elide the allocation of an unused new-expression.
  Allocations a = allocations([] {
    ::operator delete(::operator new(kElem));
    AlignedBuffer aligned(kElem);
  });
  EXPECT_EQ(a.large, 2);
  EXPECT_EQ(a.any, 2);
  // A small allocation counts only as an allocation of any size.
  a = allocations([] { ::operator delete(::operator new(kElem - 1)); });
  EXPECT_EQ(a.large, 0);
  EXPECT_EQ(a.any, 1);
  a = allocations([] { ::operator delete(::operator new(8)); });
  EXPECT_EQ(a.large, 0);
  EXPECT_EQ(a.any, 1);
}

// The healthy paths allocate nothing once warm on a one-worker pool: the
// engine groups a batch in per-thread storage, runs the groups inline and
// retries through a template, and the RMW write's and the read's tables
// are per-thread.
TEST_F(ForegroundAllocations, HealthyOneElementWrite) {
  const Allocations a = write_allocations(elem(3), kElem);
  EXPECT_EQ(a.large, 0);
  EXPECT_EQ(a.any, 0);
  expect_intact();
}

TEST_F(ForegroundAllocations, HealthySixteenElementWriteFromMidElement) {
  const Allocations a = write_allocations(elem(5) + 1000, 16 * kElem);
  EXPECT_EQ(a.large, 0);
  EXPECT_EQ(a.any, 0);
  expect_intact();
}

TEST_F(ForegroundAllocations, HealthyFullStripeWrite) {
  const Allocations a = write_allocations(elem(35), 35 * kElem);
  EXPECT_EQ(a.large, 0);
  EXPECT_EQ(a.any, 0);
  expect_intact();
}

TEST_F(ForegroundAllocations, HealthyOneElementRead) {
  const Allocations a = read_allocations(elem(12), kElem);
  EXPECT_EQ(a.large, 0);
  EXPECT_EQ(a.any, 0);
  expect_intact();
}

TEST_F(ForegroundAllocations, HealthyTwentyElementReadWithPartialEdges) {
  const Allocations a = read_allocations(elem(30) + 777, 20 * kElem - 1500);
  EXPECT_EQ(a.large, 0);
  EXPECT_EQ(a.any, 0);
  expect_intact();
}

// With one failed disk the degraded paths allocate nothing either: the
// planner fills a per-thread IoPlan, the write runs the same RMW executor
// with its old values planned around the lost column, and read() keeps
// its failed-disk list per thread.
TEST_F(ForegroundAllocations, DegradedOneElementWrite) {
  array_->fail_disk(1);
  const Allocations a = write_allocations(elem(8), kElem);
  EXPECT_EQ(a.large, 0);
  EXPECT_EQ(a.any, 0);
  expect_intact();
}

TEST_F(ForegroundAllocations, DegradedTwentyElementWrite) {
  array_->fail_disk(1);
  const Allocations a = write_allocations(elem(25), 20 * kElem);
  EXPECT_EQ(a.large, 0);
  EXPECT_EQ(a.any, 0);
  expect_intact();
}

TEST_F(ForegroundAllocations, DegradedTwentyElementReadWithPartialEdges) {
  array_->fail_disk(1);
  const Allocations a = read_allocations(elem(30) + 777, 20 * kElem - 1500);
  EXPECT_EQ(a.large, 0);
  EXPECT_EQ(a.any, 0);
  expect_intact();
}

// With two failed disks the plans rebuild some lost elements through
// recovery chains: the planner takes them from the per-thread peel
// schedule, and each step solves into the slot buffer, so these
// allocate nothing either.
TEST_F(ForegroundAllocations, TwoFailedDisksTwentyElementWrite) {
  array_->fail_disk(1);
  array_->fail_disk(4);
  const Allocations a = write_allocations(elem(25), 20 * kElem);
  EXPECT_EQ(a.large, 0);
  EXPECT_EQ(a.any, 0);
  expect_intact();
}

TEST_F(ForegroundAllocations, TwoFailedDisksTwentyElementReadWithPartialEdges) {
  array_->fail_disk(1);
  array_->fail_disk(4);
  const Allocations a = read_allocations(elem(30) + 777, 20 * kElem - 1500);
  EXPECT_EQ(a.large, 0);
  EXPECT_EQ(a.any, 0);
  expect_intact();
}

// --- scratch reuse across arrays -------------------------------------------

// The codes EveryCodeEndToEnd covers, at p=7.
const char* const kCodes[] = {"dcode", "xcode", "rdp",  "evenodd",
                              "hcode", "hdp",   "pcode", "liberation"};

// One array under test, its shadow copy and its op stream.
struct Subject {
  Subject(const char* code, size_t esize, uint64_t seed)
      : name(std::string(code) + "/" + std::to_string(esize)),
        array(std::make_unique<Raid6Array>(codes::make_layout(code, 7), esize,
                                           /*stripes=*/3, /*threads=*/2)),
        rng(seed) {
    shadow.resize(static_cast<size_t>(array->capacity()));
    rng.fill_bytes(shadow.data(), shadow.size());
    array->write(0, shadow);
  }

  std::string name;
  std::unique_ptr<Raid6Array> array;
  std::vector<uint8_t> shadow;
  Pcg32 rng;
  int ops = 0;
};

// A caller buffer of `len` bytes placed 1..7 bytes past a 64-byte
// boundary, so no copy or kernel can lean on the caller's alignment.
uint8_t* misaligned(std::vector<uint8_t>& backing, size_t len, int skew) {
  backing.assign(len + 128, 0);
  const auto base = reinterpret_cast<uintptr_t>(backing.data());
  const uintptr_t aligned = (base + 63) & ~uintptr_t{63};
  return backing.data() + (aligned - base) + static_cast<size_t>(skew);
}

// One write or read (alternating) that starts and ends mid-element, up to
// about one and a half stripes long; reads are checked against the shadow.
void random_op(Subject& s) {
  const auto esize = static_cast<int64_t>(s.array->element_size());
  const int64_t cap = s.array->capacity();
  const int64_t elements = cap / esize;
  const int64_t stripe_elems = elements / s.array->stripes();
  const int64_t first = s.rng.next_below(static_cast<uint32_t>(elements - 1));
  const int64_t span = 1 + s.rng.next_below(static_cast<uint32_t>(
                               std::min(elements - first - 1,
                                        stripe_elems * 3 / 2)));
  const int64_t offset =
      first * esize + 1 + s.rng.next_below(static_cast<uint32_t>(esize - 1));
  const int64_t end = (first + span) * esize + 1 +
                      s.rng.next_below(static_cast<uint32_t>(esize - 1));
  const auto len = static_cast<size_t>(end - offset);
  const int skew = 1 + (s.ops % 7);
  std::vector<uint8_t> backing;
  uint8_t* buf = misaligned(backing, len, skew);
  SCOPED_TRACE(s.name + " op " + std::to_string(s.ops) + " @" +
               std::to_string(offset) + "+" + std::to_string(len));
  if (s.ops++ % 2 == 0) {
    s.rng.fill_bytes(buf, len);
    s.array->write(offset, {buf, len});
    std::memcpy(s.shadow.data() + offset, buf, len);
  } else {
    s.array->read(offset, {buf, len});
    EXPECT_EQ(0, std::memcmp(buf, s.shadow.data() + offset, len));
  }
}

void expect_clean(Subject& s) {
  SCOPED_TRACE(s.name);
  EXPECT_EQ(s.array->scrub(), 0);
  std::vector<uint8_t> out(s.shadow.size());
  s.array->read(0, out);
  EXPECT_EQ(out, s.shadow);
}

TEST(ScratchReuse, ArraysOfEveryCodeComeAndGoOnOneThread) {
  // Two arrays are live at a time: while the newer one runs healthy and
  // then degraded ops, the older one (already degraded) keeps serving
  // degraded ones, so foreground scratch alternates between arrays of
  // different shapes; then the older one is checked and destroyed and a
  // fresh array may take its memory.
  std::unique_ptr<Subject> prev;
  uint64_t seed = 1;
  for (size_t esize : {size_t{512}, size_t{4096}}) {
    for (const char* code : kCodes) {
      auto cur = std::make_unique<Subject>(code, esize, seed++);
      for (int phase = 0; phase < 2; ++phase) {
        if (phase == 1) {
          cur->array->fail_disk(static_cast<int>(cur->rng.next_below(
              static_cast<uint32_t>(cur->array->layout().cols()))));
        }
        for (int i = 0; i < 6; ++i) {
          random_op(*cur);
          if (prev) random_op(*prev);
        }
      }
      if (prev) expect_clean(*prev);
      prev = std::move(cur);
    }
  }
  expect_clean(*prev);
}

}  // namespace
}  // namespace dcode::raid
