// The end-to-end integrity channel: CRC-64/XZ kernel correctness (pinned
// check values + every backend against a bitwise reference), write-
// identity tags and their stripe limit, ChecksumStore classification and
// sidecar persistence (dual-slot torn-write recovery, format version,
// misplaced slots, allocation before mapping, a process killed mid-
// record), the wrong-path write fault models, verify-on-read
// serving correct data from parity, and the scrub contracts only the
// checksum channel can honor — repairing family-disagreement stripes
// parity-only scrub must refuse, localizing through degraded stripes, and
// reporting parity-consistent whole-stripe stale writes.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "codes/registry.h"
#include "raid/address_map.h"
#include "raid/fault_injection.h"
#include "raid/file_disk.h"
#include "raid/integrity.h"
#include "raid/journal.h"
#include "raid/mem_disk.h"
#include "raid/raid6_array.h"
#include "raid/stripe_io_engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "xorops/checksum.h"

namespace dcode::raid {
namespace {

constexpr size_t kElem = 256;
constexpr int64_t kStripes = 4;

std::vector<uint8_t> random_blob(Pcg32& rng, size_t n) {
  std::vector<uint8_t> v(n);
  rng.fill_bytes(v.data(), n);
  return v;
}

uint64_t element_device_offset(int64_t stripe, int row, int rows) {
  return (static_cast<uint64_t>(stripe) * static_cast<uint64_t>(rows) +
          static_cast<uint64_t>(row)) *
         kElem;
}

std::string fresh_dir(const char* tag) {
  std::string tmpl = ::testing::TempDir() + "dcode_integrity_" + tag +
                     "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

// --- the checksum kernel ---------------------------------------------------

// Bit-at-a-time CRC-64/XZ register update: the definition, with the
// reflected polynomial written out independently of the library's
// derivation.
uint64_t crc64_bitwise(uint64_t crc, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0xC96C5795D7870F42ULL : 0);
    }
  }
  return crc;
}

TEST(Checksum, MatchesCrc64XzCheckValues) {
  // The catalogue check value of CRC-64/XZ, and a 4 KiB vector whose CRC
  // was computed by `xz --check=crc64` (`xz --robot -lvv` prints it): the
  // sidecar format promises stock-tool auditability, so these are pinned,
  // not golden.
  EXPECT_EQ(xorops::checksum64("123456789", 9), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(xorops::checksum64("", 0), 0u);
  std::vector<uint8_t> v(4096);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(i * 31 + (i >> 5));
  }
  for (xorops::Isa isa : xorops::supported_isas()) {
    EXPECT_EQ(xorops::checksum64_isa(isa, v.data(), v.size()),
              0xD067C6C71C7D13BCULL)
        << xorops::checksum_kernel_name(isa);
  }
  // The seed chains like zlib's crc argument...
  EXPECT_EQ(xorops::checksum64(v.data() + 1000, 3096,
                               xorops::checksum64(v.data(), 1000)),
            xorops::checksum64(v.data(), v.size()));
  // ...and changes the value (the sidecar seeds slots by element index).
  EXPECT_NE(xorops::checksum64("abc", 3, 1), xorops::checksum64("abc", 3));
}

TEST(Checksum, EveryIsaBackendMatchesBitwiseReference) {
  // Every length 0..9000 (at source offset len % 64) and every offset
  // 0..63 for each length up to 600 and around 4 KiB and 9000: that
  // crosses each kernel's 16-, 64- and 256-byte fold steps and table tail
  // at every alignment. Each offset gets its own copy of the data, so one
  // incremental reference pass gives the expected value of every prefix.
  constexpr size_t kMax = 9000;
  constexpr uint64_t kSeed = 0x5EED;
  Pcg32 rng(13);
  const std::vector<uint8_t> data = random_blob(rng, kMax);
  std::vector<uint64_t> want(kMax + 1);
  uint64_t reg = ~kSeed;
  want[0] = ~reg;
  for (size_t n = 1; n <= kMax; ++n) {
    reg = crc64_bitwise(reg, &data[n - 1], 1);
    want[n] = ~reg;
  }
  std::vector<std::vector<uint8_t>> at(64);
  for (size_t off = 0; off < at.size(); ++off) {
    at[off].assign(off, 0);
    at[off].insert(at[off].end(), data.begin(), data.end());
  }
  for (xorops::Isa isa : xorops::supported_isas()) {
    const char* kernel = xorops::checksum_kernel_name(isa);
    auto check = [&](size_t off, size_t n) {
      ASSERT_EQ(xorops::checksum64_isa(isa, at[off].data() + off, n, kSeed),
                want[n])
          << kernel << " len " << n << " offset " << off;
    };
    for (size_t n = 0; n <= kMax; ++n) check(n % 64, n);
    for (size_t off = 0; off < 64; ++off) {
      for (size_t n = 0; n <= 600; ++n) check(off, n);
      for (size_t n = 4080; n <= 4112; ++n) check(off, n);
      for (size_t n = kMax - 16; n <= kMax; ++n) check(off, n);
    }
  }
}

TEST(Checksum, EveryIsaBackendBitIdenticalToScalar) {
  Pcg32 rng(7);
  // Lengths cover: empty, sub-tail, every block-loop remainder class
  // around the 32-byte accumulate, and a large buffer.
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{31}, size_t{32},
                     size_t{33}, size_t{63}, size_t{64}, size_t{65},
                     size_t{255}, size_t{256}, size_t{4096}, size_t{4099}}) {
    std::vector<uint8_t> data = random_blob(rng, len);
    const uint64_t want =
        xorops::checksum64_isa(xorops::Isa::kScalar, data.data(), len, 42);
    for (xorops::Isa isa : xorops::supported_isas()) {
      EXPECT_EQ(xorops::checksum64_isa(isa, data.data(), len, 42), want)
          << "isa " << xorops::isa_name(isa) << " len " << len;
    }
    EXPECT_EQ(xorops::checksum64(data.data(), len, 42), want) << len;
  }
}

// --- write-identity tags ---------------------------------------------------

TEST(IdentityTag, PacksAndUnpacksEveryField) {
  const uint64_t tag = make_tag(/*generation=*/3, /*stripe=*/0xABCDE,
                                /*row=*/0x5F, /*role=*/2);
  EXPECT_EQ(tag_generation(tag), 3u);
  EXPECT_EQ(tag_stripe(tag), 0xABCDE);
  EXPECT_EQ(tag_row(tag), 0x5F);
  EXPECT_EQ(tag_role(tag), 2);
  // Generation starts at 1, so a zero tag always means "untracked".
  EXPECT_NE(make_tag(1, 0, 0, 0), 0u);
}

// make_tag keeps 20 stripe bits; an engine with more stripes must refuse
// to exist rather than alias write identities, and must do so before it
// allocates a single device.
TEST(IdentityTag, EngineRejectsStripesBeyondTheTagField) {
  ThreadPool pool(1);
  int devices = 0;
  ArrayOptions opts;
  opts.device_factory = [&devices](int id, size_t size) {
    ++devices;
    return std::unique_ptr<BlockDevice>(std::make_unique<MemDisk>(id, size));
  };
  // One 1-byte element per stripe: 2^20 + 1 stripes is a 1 MiB device.
  const size_t disk_size = static_cast<size_t>(kMaxTaggedStripes) + 1;
  EXPECT_THROW(StripeIoEngine(2, disk_size, 1, 1, pool, nullptr, nullptr, opts),
               std::logic_error);
  EXPECT_EQ(devices, 0);
}

// --- ChecksumStore classification ------------------------------------------

TEST(ChecksumStore, ClassifiesEveryVerdict) {
  ChecksumStore store(8);
  const uint64_t a1 = 111, a2 = 222, b1 = 333;

  EXPECT_EQ(store.classify(0, a1), IntegrityVerdict::kUntracked);

  store.record(0, a1, /*stripe=*/0, /*row=*/0, /*role=*/0);
  store.record(1, b1, /*stripe=*/0, /*row=*/1, /*role=*/0);
  EXPECT_EQ(store.classify(0, a1), IntegrityVerdict::kOk);

  store.record(0, a2, 0, 0, 0);  // second write: a1 becomes prev
  EXPECT_EQ(store.classify(0, a2), IntegrityVerdict::kOk);
  EXPECT_EQ(store.classify(0, a1), IntegrityVerdict::kStale);
  EXPECT_EQ(store.classify(0, b1), IntegrityVerdict::kMisdirected);
  EXPECT_EQ(store.classify(0, 999), IntegrityVerdict::kCorrupt);

  const ChecksumStore::Snapshot s = store.load(0);
  EXPECT_EQ(s.sum, a2);
  EXPECT_EQ(s.prev, a1);
  EXPECT_EQ(tag_generation(s.tag), 2u);
}

// The misdirect search covers kMisdirectWindow records either side of the
// element: a slip inside reads misdirected, one beyond reads corrupt.
TEST(ChecksumStore, MisdirectSearchIsBoundedToItsWindow) {
  constexpr int64_t kWindow = ChecksumStore::kMisdirectWindow;
  constexpr int64_t kElems = 4 * kWindow;
  constexpr int64_t kVictim = 2 * kWindow;
  ChecksumStore store(kElems);
  auto sum_of = [](int64_t e) { return 0x1000 + static_cast<uint64_t>(e); };
  for (int64_t e = 0; e < kElems; ++e) store.record(e, sum_of(e), e / 7, 0, 0);
  for (int64_t slip : {int64_t{1}, int64_t{7}, kWindow}) {
    EXPECT_EQ(store.classify(kVictim, sum_of(kVictim + slip)),
              IntegrityVerdict::kMisdirected)
        << "slip +" << slip;
    EXPECT_EQ(store.classify(kVictim, sum_of(kVictim - slip)),
              IntegrityVerdict::kMisdirected)
        << "slip -" << slip;
  }
  for (int64_t slip : {kWindow + 1, 2 * kWindow - 1}) {
    EXPECT_EQ(store.classify(kVictim, sum_of(kVictim + slip)),
              IntegrityVerdict::kCorrupt)
        << "slip +" << slip;
    EXPECT_EQ(store.classify(kVictim, sum_of(kVictim - slip)),
              IntegrityVerdict::kCorrupt)
        << "slip -" << slip;
  }
  // The window is clipped at the device's ends.
  EXPECT_EQ(store.classify(0, sum_of(kWindow)), IntegrityVerdict::kMisdirected);
  EXPECT_EQ(store.classify(kElems - 1, sum_of(kElems - 1 - kWindow)),
            IntegrityVerdict::kMisdirected);
  EXPECT_EQ(store.classify(kElems - 1, sum_of(kElems - 2 - kWindow)),
            IntegrityVerdict::kCorrupt);
}

TEST(ChecksumStore, ResyncClearsStaleHistory) {
  ChecksumStore store(4);
  store.record(2, 10, 1, 2, 0);
  store.record(2, 20, 1, 2, 0);
  EXPECT_EQ(store.classify(2, 10), IntegrityVerdict::kStale);
  // Reconstruction re-derives the record; the previous payload is
  // unknowable, so stale detection restarts instead of false-positiving.
  store.resync(2, 20, 1, 2, 0);
  EXPECT_EQ(store.classify(2, 10), IntegrityVerdict::kCorrupt);
  EXPECT_EQ(store.classify(2, 20), IntegrityVerdict::kOk);
  EXPECT_EQ(store.load(2).prev, 0u);

  store.invalidate_all();
  EXPECT_EQ(store.classify(2, 20), IntegrityVerdict::kUntracked);
}

// The per-record seqlock, checked by what readers see as well as by TSan:
// while one writer per element records a known sequence of sums, every
// snapshot a concurrent reader loads must be one a writer stored, whole —
// sum f(k), prev f(k-1), and a tag of generation k carrying the element's
// identity — and an element's generation never goes back. Writer 0 waits
// half-way until a reader has loaded a record from the middle of a
// sequence, so the loads overlap the writes however the threads are
// scheduled.
TEST(ChecksumStore, ConcurrentLoadsSeeOnlyWholeRecords) {
  constexpr int kElements = 4;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr uint32_t kRecords = 100000;
  ChecksumStore store(kElements);
  auto sum_of = [](int e, uint32_t k) {
    return (static_cast<uint64_t>(e + 1) << 56) ^
           (uint64_t{k} * 0x9E3779B97F4A7C15ull);
  };
  auto stripe_of = [](int e) { return int64_t{100} + e; };
  auto row_of = [](int e) { return 3 * e + 1; };
  auto role_of = [](int e) { return e % 3; };

  std::atomic<int> writers_left{kWriters};
  std::atomic<bool> mid_seen{false};
  std::atomic<int64_t> bad{0};
  std::atomic<int64_t> loads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (uint32_t k = 1; k <= kRecords; ++k) {
        if (w == 0 && k == kRecords / 2 + 1) {
          while (!mid_seen.load()) std::this_thread::yield();
        }
        for (int e = w; e < kElements; e += kWriters) {
          store.record(e, sum_of(e, k), stripe_of(e), row_of(e), role_of(e));
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      uint32_t last[kElements] = {};
      int64_t n = 0;
      int64_t wrong = 0;
      auto check = [&](int e) {
        const ChecksumStore::Snapshot s = store.load(e);
        ++n;
        const uint32_t k = tag_generation(s.tag);
        if (k < last[e]) ++wrong;
        last[e] = k;
        if (k > 0 && k < kRecords) mid_seen.store(true);
        if (k == 0) {
          wrong += s.tag != 0 || s.sum != 0 || s.prev != 0;
          return;
        }
        wrong += s.sum != sum_of(e, k);
        wrong += s.prev != (k > 1 ? sum_of(e, k - 1) : 0);
        wrong += tag_stripe(s.tag) != stripe_of(e);
        wrong += tag_row(s.tag) != row_of(e);
        wrong += tag_role(s.tag) != role_of(e);
      };
      while (writers_left.load() > 0) {
        for (int e = 0; e < kElements; ++e) check(e);
      }
      for (int e = 0; e < kElements; ++e) {
        check(e);
        wrong += last[e] != kRecords;
      }
      bad.fetch_add(wrong);
      loads.fetch_add(n);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(loads.load(), kReaders * kElements);
}

// --- sidecar persistence ---------------------------------------------------

TEST(ChecksumStoreSidecar, SurvivesReopenBitIdentical) {
  const std::string dir = fresh_dir("reopen");
  const std::string path = dir + "/disk0.sum";
  {
    ChecksumStore store(16);
    store.attach_file(path);
    EXPECT_TRUE(store.persistent());
    store.record(3, 0xAAA, 0, 3, 0);
    store.record(3, 0xBBB, 0, 3, 0);
    store.record(7, 0xCCC, 1, 1, 1);
    store.flush();
  }
  ChecksumStore reopened(16);
  reopened.attach_file(path);
  EXPECT_EQ(reopened.load(3).sum, 0xBBBULL);
  EXPECT_EQ(reopened.load(3).prev, 0xAAAULL);
  EXPECT_EQ(tag_generation(reopened.load(3).tag), 2u);
  EXPECT_EQ(reopened.load(7).sum, 0xCCCULL);
  EXPECT_EQ(tag_role(reopened.load(7).tag), 1);
  EXPECT_FALSE(reopened.load(0).tracked());
}

TEST(ChecksumStoreSidecar, TornSlotFallsBackToOtherSlot) {
  const std::string dir = fresh_dir("torn");
  const std::string path = dir + "/disk0.sum";
  {
    ChecksumStore store(4);
    store.attach_file(path);
    store.record(1, 0x11, 0, 1, 0);  // state A
    store.record(1, 0x22, 0, 1, 0);  // state B (other slot)
    store.flush();
  }
  // Tear one slot: whatever state it held, the loader must fall back to
  // the other slot's valid record — never garbage, never untracked.
  for (int torn = 0; torn < 2; ++torn) {
    std::string copy = dir + "/torn" + std::to_string(torn) + ".sum";
    {
      std::vector<uint8_t> raw;
      int fd = open(path.c_str(), O_RDONLY);
      ASSERT_GE(fd, 0);
      const off_t len = lseek(fd, 0, SEEK_END);
      raw.resize(static_cast<size_t>(len));
      ASSERT_TRUE(detail::pread_fully(fd, raw.data(), raw.size(), 0));
      close(fd);
      // Scribble over half the slot — a torn sidecar write.
      const int64_t at = ChecksumStore::slot_offset(1, torn);
      for (size_t i = 0; i < ChecksumStore::kSlotBytes / 2; ++i) {
        raw[static_cast<size_t>(at) + i] ^= 0x5A;
      }
      fd = open(copy.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      ASSERT_GE(fd, 0);
      ASSERT_TRUE(detail::pwrite_fully(fd, raw.data(), raw.size(), 0));
      close(fd);
    }
    ChecksumStore reopened(4);
    reopened.attach_file(copy);
    const ChecksumStore::Snapshot s = reopened.load(1);
    EXPECT_TRUE(s.tracked()) << "torn slot " << torn;
    EXPECT_TRUE(s.sum == 0x11 || s.sum == 0x22) << "torn slot " << torn;
  }
  // Both slots torn: the element degrades to untracked, never garbage.
  {
    std::vector<uint8_t> raw;
    int fd = open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    for (int slot = 0; slot < 2; ++slot) {
      std::vector<uint8_t> junk(ChecksumStore::kSlotBytes, 0x7E);
      ASSERT_TRUE(detail::pwrite_fully(fd, junk.data(), junk.size(),
                                       ChecksumStore::slot_offset(1, slot)));
    }
    close(fd);
    ChecksumStore reopened(4);
    reopened.attach_file(path);
    EXPECT_FALSE(reopened.load(1).tracked());
    EXPECT_TRUE(reopened.load(1).sum == 0);
  }
}

TEST(ChecksumStoreSidecar, RejectsVersion1Sidecar) {
  // v1 sidecars hold XXH64 sums: loading one would condemn every element,
  // so attach refuses the file outright.
  const std::string dir = fresh_dir("v1");
  const std::string path = dir + "/disk0.sum";
  {
    ChecksumStore store(4);
    store.attach_file(path);
    store.record(1, 0x11, 0, 1, 0);
  }
  const int fd = open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  const uint32_t v1 = 1;
  ASSERT_TRUE(detail::pwrite_fully(fd, &v1, sizeof(v1), /*offset=*/8));
  close(fd);
  ChecksumStore reopened(4);
  try {
    reopened.attach_file(path);
    ADD_FAILURE() << "a v1 sidecar attached";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("format mismatch"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(reopened.persistent());
}

TEST(ChecksumStoreSidecar, SlotAtTheWrongElementNeverVerifies) {
  // A slot's self-checksum is seeded with its element index; with a CRC
  // that seed enters through an invertible map, so a valid slot copied to
  // any other element's offset must fail there.
  const std::string dir = fresh_dir("misplaced");
  const std::string path = dir + "/disk0.sum";
  constexpr int64_t kElems = 64;
  {
    ChecksumStore store(kElems);
    store.attach_file(path);
    store.record(0, 0xABCDEF, 0, 0, 0);
  }
  const int fd = open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> slot(ChecksumStore::kSlotBytes);
  ASSERT_TRUE(detail::pread_fully(fd, slot.data(), slot.size(),
                                  ChecksumStore::slot_offset(0, 1)));
  for (int64_t e = 1; e < kElems; ++e) {
    ASSERT_TRUE(detail::pwrite_fully(fd, slot.data(), slot.size(),
                                     ChecksumStore::slot_offset(e, 1)));
  }
  close(fd);
  ChecksumStore reopened(kElems);
  reopened.attach_file(path);
  EXPECT_EQ(reopened.load(0).sum, 0xABCDEFu);
  for (int64_t e = 1; e < kElems; ++e) {
    EXPECT_FALSE(reopened.load(e).tracked()) << "element " << e;
  }
}

TEST(ChecksumStoreSidecar, GenerationWrapsToOneAndKeepsHistory) {
  // The tag's 32-bit generation counts acknowledged writes to one
  // element, and no code compares generations, so the wrap only has to
  // keep a tracked element tracked: record() takes 0xFFFFFFFF to 1,
  // never to the untracked sentinel 0, and keeps the stale history.
  const std::string dir = fresh_dir("genwrap");
  const std::string path = dir + "/disk0.sum";
  constexpr int64_t kElems = 4;
  constexpr int64_t kElement = 2;
  constexpr uint64_t kOldSum = 0x0123456789ABCDEFULL;
  constexpr uint64_t kNewSum = 0xFEDCBA9876543210ULL;
  {
    ChecksumStore store(kElems);  // writes the sidecar header
    store.attach_file(path);
  }
  // The slot a store writes after 2^32 - 1 writes to the element: seq,
  // sum, prev, tag, then a CRC of those 32 bytes seeded with the index.
  uint64_t slot[5] = {2, kOldSum, 0, make_tag(0xFFFFFFFFu, 0, 2, 0), 0};
  slot[4] = xorops::checksum64(slot, 32, static_cast<uint64_t>(kElement));
  static_assert(sizeof(slot) == ChecksumStore::kSlotBytes);
  const int fd = open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(detail::pwrite_fully(fd, slot, sizeof(slot),
                                   ChecksumStore::slot_offset(kElement, 1)));
  close(fd);
  {
    ChecksumStore store(kElems);
    store.attach_file(path);
    ASSERT_EQ(tag_generation(store.load(kElement).tag), 0xFFFFFFFFu);
    ASSERT_EQ(store.classify(kElement, kOldSum), IntegrityVerdict::kOk);
    store.record(kElement, kNewSum, 0, 2, 0);
    const ChecksumStore::Snapshot s = store.load(kElement);
    EXPECT_TRUE(s.tracked());
    EXPECT_EQ(tag_generation(s.tag), 1u);
    EXPECT_EQ(tag_stripe(s.tag), 0);
    EXPECT_EQ(tag_row(s.tag), 2);
    EXPECT_EQ(store.classify(kElement, kOldSum), IntegrityVerdict::kStale);
    EXPECT_EQ(store.classify(kElement, kNewSum), IntegrityVerdict::kOk);
    store.flush();
  }
  // The post-wrap slot carries the higher sequence number, so a reopen
  // adopts it over the crafted one.
  ChecksumStore reopened(kElems);
  reopened.attach_file(path);
  const ChecksumStore::Snapshot s = reopened.load(kElement);
  EXPECT_EQ(s.sum, kNewSum);
  EXPECT_EQ(s.prev, kOldSum);
  EXPECT_EQ(tag_generation(s.tag), 1u);
  EXPECT_EQ(reopened.classify(kElement, kOldSum), IntegrityVerdict::kStale);
  EXPECT_EQ(reopened.classify(kElement, kNewSum), IntegrityVerdict::kOk);
}

TEST(ChecksumStoreSidecar, ReloadAcrossScanChunksAdoptsEveryNewestSlot) {
  // The reload reads slot pairs kScanChunkElements elements at a time.
  // Elements are recorded 0, 1 or 2 times by index; the first and last
  // element of every chunk are recorded twice and their newest slot torn,
  // so each chunk's edges must fall back to their first record.
  const std::string dir = fresh_dir("chunks");
  const std::string path = dir + "/disk0.sum";
  constexpr int64_t kChunk = ChecksumStore::kScanChunkElements;
  constexpr int64_t kElems = 30000;
  static_assert(kElems > 2 * kChunk && kElems < 3 * kChunk,
                "three scan chunks, the last one partial");
  auto is_edge = [&](int64_t e) {
    return e % kChunk == 0 || e % kChunk == kChunk - 1 || e == kElems - 1;
  };
  auto records = [&](int64_t e) {
    return is_edge(e) ? 2 : static_cast<int>(e % 3);
  };
  auto sum_of = [](int64_t e, int k) {
    return (static_cast<uint64_t>(e) << 8) | static_cast<uint64_t>(k);
  };
  {
    ChecksumStore store(kElems);
    store.attach_file(path);
    for (int64_t e = 0; e < kElems; ++e) {
      for (int k = 1; k <= records(e); ++k) {
        store.record(e, sum_of(e, k), e / 5, static_cast<int>(e % 5), 0);
      }
    }
    store.flush();
  }
  const int fd = open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  int torn = 0;
  for (int64_t e = 0; e < kElems; ++e) {
    if (!is_edge(e)) continue;
    uint64_t seq[2] = {};
    for (int slot = 0; slot < 2; ++slot) {
      ASSERT_TRUE(detail::pread_fully(fd, &seq[slot], sizeof(uint64_t),
                                      ChecksumStore::slot_offset(e, slot)));
    }
    const int newest = seq[1] > seq[0] ? 1 : 0;
    // Scribble over the slot's sum, prev and tag: a torn sidecar write.
    std::vector<uint8_t> junk(ChecksumStore::kSlotBytes / 2, 0x5A);
    const int64_t at = ChecksumStore::slot_offset(e, newest) + 8;
    ASSERT_TRUE(detail::pwrite_fully(fd, junk.data(), junk.size(), at));
    ++torn;
  }
  close(fd);
  EXPECT_EQ(torn, 6);

  ChecksumStore reopened(kElems);
  reopened.attach_file(path);
  for (int64_t e = 0; e < kElems; ++e) {
    const ChecksumStore::Snapshot s = reopened.load(e);
    const int k = is_edge(e) ? 1 : records(e);
    if (k == 0) {
      ASSERT_FALSE(s.tracked()) << "element " << e;
      continue;
    }
    ASSERT_EQ(s.sum, sum_of(e, k)) << "element " << e;
    ASSERT_EQ(s.prev, k == 2 ? sum_of(e, 1) : 0u) << "element " << e;
    ASSERT_EQ(tag_generation(s.tag), static_cast<uint32_t>(k))
        << "element " << e;
    ASSERT_EQ(tag_stripe(s.tag), e / 5) << "element " << e;
  }
}

// A store into an unallocated page would need a block when the page is
// written back, and on a full file system the fault is SIGBUS: attach_file
// allocates the whole sidecar before mapping it, fresh or reopened.
TEST(ChecksumStoreSidecar, SidecarIsAllocatedBeforeItIsMapped) {
  const std::string dir = fresh_dir("alloc");
  const std::string path = dir + "/disk0.sum";
  constexpr int64_t kElems = 4096;
  const int64_t want_size = ChecksumStore::slot_offset(kElems, 0);
  auto expect_allocated = [&](const char* when) {
    struct stat st {};
    ASSERT_EQ(::stat(path.c_str(), &st), 0) << when;
    EXPECT_EQ(st.st_size, want_size) << when;
    EXPECT_GE(static_cast<int64_t>(st.st_blocks) * 512, st.st_size) << when;
  };
  {
    ChecksumStore store(kElems);
    store.attach_file(path);
    expect_allocated("fresh");
    store.record(5, 0x55, 0, 5, 0);
  }
  // Keep the header and element 5's slots; the rest becomes a hole once
  // the file grows back.
  ASSERT_EQ(::truncate(path.c_str(), ChecksumStore::slot_offset(6, 0)), 0);
  ChecksumStore reopened(kElems);
  reopened.attach_file(path);
  expect_allocated("reopened");
  EXPECT_EQ(reopened.load(5).sum, 0x55u);
  std::filesystem::remove_all(dir);
}

// A record is a store into the shared mapping of the file, so any reader
// of the file sees it at once, with no flush() and the store still alive.
TEST(ChecksumStoreSidecar, RecordsReachTheFileWithoutFlush) {
  const std::string dir = fresh_dir("noflush");
  const std::string path = dir + "/disk0.sum";
  constexpr int64_t kElems = 300;
  ChecksumStore store(kElems);
  store.attach_file(path);
  Pcg32 rng(17);
  for (int64_t e = 0; e < kElems; ++e) {
    for (int64_t k = 0; k <= e % 3; ++k) {
      store.record(e, rng.next_u64() | 1, e / 7, static_cast<int>(e % 7), 0);
    }
  }
  ChecksumStore other(kElems);
  other.attach_file(path);
  for (int64_t e = 0; e < kElems; ++e) {
    const ChecksumStore::Snapshot want = store.load(e);
    const ChecksumStore::Snapshot got = other.load(e);
    ASSERT_EQ(got.sum, want.sum) << "element " << e;
    ASSERT_EQ(got.prev, want.prev) << "element " << e;
    ASSERT_EQ(got.tag, want.tag) << "element " << e;
  }
  std::filesystem::remove_all(dir);
}

// A process killed at any instant leaves, for every element, the last
// record it reported done or the one it was storing, never a torn or
// foreign one. Strictly one child at a time; the child starts no thread.
TEST(ChecksumStoreSidecar, SurvivesSigkillMidRecord) {
  constexpr int64_t kElems = 300;
  // Each step reports 4 bytes; 12 001 reports fit a default 64 KiB pipe.
  // A smaller pipe only blocks the child until the kill, which is valid.
  constexpr uint32_t kSteps = 12000;
  constexpr int kKills = 32;
  const std::string dir = fresh_dir("sigkill");
  struct Step {
    int64_t element = 0;
    uint64_t sum = 0;
  };
  auto apply = [](ChecksumStore& store, const Step& s) {
    store.record(s.element, s.sum, s.element / 7,
                 static_cast<int>(s.element % 7),
                 static_cast<int>(s.element % 3));
  };
  auto same = [](const ChecksumStore::Snapshot& a,
                 const ChecksumStore::Snapshot& b) {
    return a.sum == b.sum && a.prev == b.prev && a.tag == b.tag;
  };
  Pcg32 delays(29);
  int mid_run = 0;
  for (int kill = 0; kill < kKills; ++kill) {
    Pcg32 rng(1000 + static_cast<uint64_t>(kill));
    std::vector<Step> steps(kSteps + 1);  // steps[0] unused: "attached"
    for (uint32_t k = 1; k <= kSteps; ++k) {
      steps[k] = {rng.next_below(kElems), rng.next_u64() | 1};
    }
    const std::string path = dir + "/kill" + std::to_string(kill) + ".sum";
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(fds[0]);
      try {
        ChecksumStore store(kElems);
        store.attach_file(path);
        for (uint32_t k = 0; k <= kSteps; ++k) {
          if (k > 0) apply(store, steps[k]);
          if (::write(fds[1], &k, sizeof(k)) !=
              static_cast<ssize_t>(sizeof(k))) {
            ::_exit(2);
          }
        }
      } catch (...) {
        ::_exit(3);
      }
      for (;;) ::pause();
    }
    ::close(fds[1]);
    // The child is killed and reaped before any assertion can return.
    const auto delay = std::chrono::microseconds(delays.next_below(2500));
    uint32_t done = 0;
    const bool attached = ::read(fds[0], &done, sizeof(done)) ==
                          static_cast<ssize_t>(sizeof(done));
    if (attached) std::this_thread::sleep_for(delay);
    ::kill(pid, SIGKILL);
    int status = 0;
    const pid_t reaped = ::waitpid(pid, &status, 0);
    ASSERT_TRUE(attached) << "child " << kill << " never attached";
    ASSERT_EQ(reaped, pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child " << kill << " status " << status;
    for (uint32_t k = 0;
         ::read(fds[0], &k, sizeof(k)) == static_cast<ssize_t>(sizeof(k));) {
      done = k;
    }
    ::close(fds[0]);
    mid_run += done > 0 && done < kSteps;

    ChecksumStore model(kElems);
    for (uint32_t k = 1; k <= done; ++k) apply(model, steps[k]);
    std::vector<ChecksumStore::Snapshot> want(kElems);
    for (int64_t e = 0; e < kElems; ++e) {
      want[static_cast<size_t>(e)] = model.load(e);
    }
    int64_t in_flight = -1;
    ChecksumStore::Snapshot after{};
    if (done < kSteps) {
      in_flight = steps[done + 1].element;
      apply(model, steps[done + 1]);
      after = model.load(in_flight);
    }
    ChecksumStore reopened(kElems);
    reopened.attach_file(path);
    for (int64_t e = 0; e < kElems; ++e) {
      const ChecksumStore::Snapshot got = reopened.load(e);
      ASSERT_TRUE(same(got, want[static_cast<size_t>(e)]) ||
                  (e == in_flight && same(got, after)))
          << "kill " << kill << " after step " << done << ", element " << e
          << ": sum " << got.sum << " generation "
          << tag_generation(got.tag);
    }
    std::remove(path.c_str());
  }
  EXPECT_GT(mid_run, kKills / 2);
  std::filesystem::remove_all(dir);
}

TEST(ChecksumStoreSidecar, PreadPwriteFullyHandleShortCounts) {
  const std::string dir = fresh_dir("shortio");
  const std::string path = dir + "/f";
  int fd = open(path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> data(10, 0xAB);
  EXPECT_TRUE(detail::pwrite_fully(fd, data.data(), data.size(), 0));
  std::vector<uint8_t> back(10, 0);
  EXPECT_TRUE(detail::pread_fully(fd, back.data(), back.size(), 0));
  EXPECT_EQ(back, data);
  // EOF before n bytes: must report failure, not return short.
  std::vector<uint8_t> big(20);
  EXPECT_FALSE(detail::pread_fully(fd, big.data(), big.size(), 0));
  EXPECT_FALSE(detail::pread_fully(fd, back.data(), back.size(), 5));
  // Bad fd: clean failure on both paths.
  close(fd);
  EXPECT_FALSE(detail::pwrite_fully(fd, data.data(), data.size(), 0));
  EXPECT_FALSE(detail::pread_fully(fd, back.data(), back.size(), 0));
}

TEST(ChecksumStoreSidecar, ArraySidecarRecordsDeviceContent) {
  const std::string dir = fresh_dir("array");
  ArrayOptions opts;
  opts.integrity_sidecar_dir = dir;
  auto layout = codes::make_layout("dcode", 5);
  const int rows = layout->rows();
  Raid6Array array(std::move(layout), kElem, kStripes, 2, nullptr, opts);
  Pcg32 rng(31);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);
  array.flush();

  // The persisted record for (disk 2, stripe 1, row 0) must hash exactly
  // the bytes the device holds there.
  std::vector<uint8_t> elem(kElem);
  array.disk(2).read(element_device_offset(1, 0, rows), elem);
  const uint64_t want = xorops::checksum64(elem.data(), elem.size());

  ChecksumStore reopened(kStripes * rows);
  reopened.attach_file(dir + "/disk2.sum");
  const auto snap = reopened.load(1 * rows + 0);
  EXPECT_EQ(snap.sum, want);
  EXPECT_EQ(tag_stripe(snap.tag), 1);
  EXPECT_EQ(tag_row(snap.tag), 0);
}

// A sidecar describes one set of device contents. An array built on
// blank devices must start blank records even when its sidecar directory
// still holds an earlier array's files, or its first writes pre-read
// zeros against foreign checksums: condemned, "repaired", and charged to
// the disks' health. Over reopened devices the records must reload.
TEST(ChecksumStoreSidecar, FreshDevicesStartFreshRecordsReopenedOnesReload) {
  const std::string dir = fresh_dir("rebuilt");
  constexpr size_t kBigElem = 4096;
  constexpr int64_t kBigStripes = 64;
  auto options = [&](bool reuse) {
    ArrayOptions opts;
    opts.integrity_sidecar_dir = dir;
    opts.device_factory = [dir, reuse](int id, size_t size) {
      return std::unique_ptr<BlockDevice>(std::make_unique<FileDisk>(
          id, size, dir + "/disk" + std::to_string(id) + ".img",
          FileDisk::Options{.reuse = reuse}));
    };
    return opts;
  };
  // Fills the array stripe by stripe from `seed`; returns what it wrote.
  auto fill = [](Raid6Array& array, uint64_t seed) {
    Pcg32 rng(seed);
    auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
    const size_t stripe_bytes =
        static_cast<size_t>(array.layout().data_count()) * kBigElem;
    for (size_t off = 0; off < blob.size(); off += stripe_bytes) {
      array.write(static_cast<int64_t>(off),
                  std::span<const uint8_t>(blob.data() + off, stripe_bytes));
    }
    return blob;
  };
  auto mismatches = [](obs::Registry& reg) {
    int64_t n = 0;
    for (const char* kind : {"corrupt", "misdirected", "stale"}) {
      n += reg.counter("raid.integrity.read_mismatches", {{"kind", kind}})
               .value();
    }
    return n;
  };

  {
    obs::Registry reg;
    Raid6Array first(codes::make_layout("dcode", 7), kBigElem, kBigStripes, 1,
                     &reg, options(/*reuse=*/false));
    fill(first, 1);
    first.flush();
  }
  std::vector<uint8_t> blob;
  {
    obs::Registry reg;
    Raid6Array second(codes::make_layout("dcode", 7), kBigElem, kBigStripes,
                      1, &reg, options(/*reuse=*/false));
    blob = fill(second, 2);
    EXPECT_EQ(mismatches(reg), 0);
    EXPECT_EQ(reg.counter("raid.integrity.write_repairs").value(), 0);
    for (int d = 0; d < second.layout().cols(); ++d) {
      EXPECT_EQ(second.health().state(d), DiskHealth::kHealthy) << "disk " << d;
    }
    second.flush();
  }

  // Corrupt one data element behind the array's back; only a reloaded
  // record can catch it.
  auto layout = codes::make_layout("dcode", 7);
  const AddressMap map(*layout);
  const auto loc = map.locate(5 * layout->data_count());
  {
    const std::string path = dir + "/disk" + std::to_string(loc.disk) + ".img";
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    const std::vector<uint8_t> junk(kBigElem, 0xA5);
    EXPECT_TRUE(detail::pwrite_fully(
        fd, junk.data(), junk.size(),
        static_cast<int64_t>((loc.stripe * layout->rows() + loc.element.row) *
                             static_cast<int64_t>(kBigElem))));
    ::close(fd);
  }
  {
    obs::Registry reg;
    Raid6Array reopened(codes::make_layout("dcode", 7), kBigElem, kBigStripes,
                        1, &reg, options(/*reuse=*/true));
    std::vector<uint8_t> back(blob.size());
    reopened.read(0, back);
    EXPECT_EQ(back, blob);
    EXPECT_EQ(mismatches(reg), 1);
  }
  std::filesystem::remove_all(dir);
}

// --- wrong-path write fault models -----------------------------------------

TEST(WrongPathWrites, LostTornMisdirectedSemantics) {
  FaultInjectingDevice dev(std::make_unique<MemDisk>(0, 4096));
  std::vector<uint8_t> zero(4096, 0);
  ASSERT_TRUE(dev.write(0, zero).ok());

  std::vector<uint8_t> payload(256, 0xCD);
  std::vector<uint8_t> back(256);

  // Lost: acknowledged in full, nothing lands.
  dev.inject_lost_writes(1);
  EXPECT_EQ(dev.pending_wrong_path_writes(), 1);
  IoResult r = dev.write(512, payload);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, payload.size());
  EXPECT_EQ(dev.pending_wrong_path_writes(), 0);
  ASSERT_TRUE(dev.read(512, back).ok());
  EXPECT_EQ(back, std::vector<uint8_t>(256, 0));

  // Torn: acknowledged in full, only the prefix persists.
  dev.inject_torn_writes(1, 10);
  ASSERT_TRUE(dev.write(512, payload).ok());
  ASSERT_TRUE(dev.read(512, back).ok());
  EXPECT_EQ(std::vector<uint8_t>(back.begin(), back.begin() + 10),
            std::vector<uint8_t>(10, 0xCD));
  EXPECT_EQ(std::vector<uint8_t>(back.begin() + 10, back.end()),
            std::vector<uint8_t>(246, 0));

  // Misdirected: acknowledged in full, lands offset_delta away.
  dev.inject_misdirected_writes(1, 1024);
  ASSERT_TRUE(dev.write(0, payload).ok());
  ASSERT_TRUE(dev.read(0, back).ok());
  EXPECT_EQ(back, std::vector<uint8_t>(256, 0)) << "target untouched";
  ASSERT_TRUE(dev.read(1024, back).ok());
  EXPECT_EQ(back, payload) << "payload landed at the slipped offset";

  // Disarm clears every family; the next write lands normally.
  dev.inject_lost_writes(2);
  dev.inject_torn_writes(2, 1);
  dev.inject_misdirected_writes(2, 512);
  EXPECT_EQ(dev.pending_wrong_path_writes(), 6);
  dev.clear_wrong_path_writes();
  EXPECT_EQ(dev.pending_wrong_path_writes(), 0);
  ASSERT_TRUE(dev.write(2048, payload).ok());
  ASSERT_TRUE(dev.read(2048, back).ok());
  EXPECT_EQ(back, payload);
}

// --- verify-on-read: correct data from parity ------------------------------

// One array + shadow; arms one wrong-path family on one disk, rewrites
// stripe 0 through the array (the armed disk's coalesced run goes wrong
// while being acknowledged), then proves reads still return the intended
// bytes, the expected verdict kind was counted, and repair scrub
// converges. `expected_kind` may be empty when the verdict depends on
// where the payload lands (misdirected writes clobber parity rows too).
void run_wrong_path_family(
    const std::function<void(FaultInjectingDevice&)>& arm,
    const std::string& expected_kind) {
  obs::Registry reg;
  auto layout = codes::make_layout("dcode", 5);
  Raid6Array array(std::move(layout), kElem, kStripes, 2, &reg);
  Pcg32 rng(61);
  auto shadow = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, shadow);
  ASSERT_EQ(array.scrub(), 0);

  const int victim = 2;
  arm(array.disk(victim).faults());
  // Full-stripe rewrite of stripe 0: every disk takes one coalesced run;
  // the victim's run is acknowledged but wrong.
  const size_t stripe_bytes =
      static_cast<size_t>(array.capacity() / kStripes);
  auto fresh = random_blob(rng, stripe_bytes);
  array.write(0, fresh);
  std::memcpy(shadow.data(), fresh.data(), fresh.size());
  ASSERT_EQ(array.disk(victim).faults().pending_wrong_path_writes(), 0)
      << "the armed fault must have been consumed";

  // Reads detect the lie through the checksum channel and serve the
  // correct bytes from parity.
  std::vector<uint8_t> out(shadow.size());
  array.read(0, out);
  EXPECT_EQ(out, shadow);
  EXPECT_GT(reg.counter("raid.integrity.read_fallbacks").value(), 0);
  EXPECT_GT(reg.counter("raid.integrity.elements_verified").value(), 0);
  if (!expected_kind.empty()) {
    EXPECT_GT(reg.counter("raid.integrity.read_mismatches",
                          {{"kind", expected_kind}})
                  .value(),
              0)
        << expected_kind;
  }

  // Repair scrub makes the damage durable-good again.
  ScrubReport rep = array.scrub_report({.repair = true});
  EXPECT_EQ(rep.stripes_unrepairable, 0);
  EXPECT_GT(rep.checksum_mismatches, 0);
  EXPECT_GT(rep.elements_checksum_located, 0);
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> after(shadow.size());
  array.read(0, after);
  EXPECT_EQ(after, shadow);
}

TEST(VerifyOnRead, LostWriteServedFromParityAndRepaired) {
  // A lost write leaves the platter serving the element's previous
  // payload — the stale verdict by construction.
  run_wrong_path_family(
      [](FaultInjectingDevice& f) { f.inject_lost_writes(1); }, "stale");
}

TEST(VerifyOnRead, TornWriteServedFromParityAndRepaired) {
  // A torn run persists a 7-byte prefix: the first element of the run
  // hashes to nothing known (corrupt), the rest reads stale. Which one a
  // data read condemns first depends on the rotation layout, so only the
  // aggregate is asserted (the per-verdict mapping is pinned by the
  // ChecksumStore unit tests).
  run_wrong_path_family(
      [](FaultInjectingDevice& f) { f.inject_torn_writes(1, 7); }, "");
}

TEST(VerifyOnRead, MisdirectedWriteServedFromParityAndRepaired) {
  // A whole-stripe LBA slip (dcode p5 has 4 rows): the victim's stripe-0
  // run lands in stripe-1 territory, so the intended elements read stale
  // and the clobbered elements hold foreign content. A same-stripe slip
  // would be condemned already at the RMW parity pre-read and salvaged
  // inside write() — the stripe-crossing slip is the shape that survives
  // to be caught by verify-on-read. Which kind a data read observes
  // first depends on the rotation layout, so only the aggregate is
  // asserted.
  run_wrong_path_family(
      [](FaultInjectingDevice& f) {
        f.inject_misdirected_writes(1, static_cast<uint64_t>(4 * kElem));
      },
      "");
}

TEST(VerifyOnRead, SameStripeMisdirectSalvagedAtWriteTime) {
  // A one-element slip clobbers the victim's own parity row, so the RMW
  // parity pre-read condemns the column mid-update — new data on the
  // healthy columns, pre-update parity everywhere — and the in-place
  // repair cannot converge. write() must escalate to the salvage
  // rewrite: the write succeeds and leaves the stripe clean without any
  // later scrub. The write covers the stripe but its last element, so it
  // runs RMW: a full-stripe write reads no parity (next test).
  obs::Registry reg;
  auto layout = codes::make_layout("dcode", 5);
  Raid6Array array(std::move(layout), kElem, kStripes, 2, &reg);
  Pcg32 rng(62);
  auto shadow = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, shadow);
  ASSERT_EQ(array.scrub(), 0);

  const int victim = 2;
  array.disk(victim).faults().inject_misdirected_writes(
      1, static_cast<uint64_t>(kElem));
  const size_t stripe_bytes = static_cast<size_t>(array.capacity() / kStripes);
  auto fresh = random_blob(rng, stripe_bytes - kElem);
  array.write(0, fresh);
  std::memcpy(shadow.data(), fresh.data(), fresh.size());

  EXPECT_GT(reg.counter("raid.integrity.write_repairs").value(), 0);
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> out(shadow.size());
  array.read(0, out);
  EXPECT_EQ(out, shadow);
}

TEST(VerifyOnRead, FullStripeWriteMisdirectCaughtOnRead) {
  // A full-stripe write encodes its parity from the caller's bytes and
  // reads nothing, so no pre-read sees a slip at write time. Disk 2's run
  // of five cells lands one element on: its first cell keeps its old
  // bytes, the others hold their upper neighbours' new ones, and the next
  // stripe's first cell on that disk takes the last. Parity holds the new
  // values, so verify-on-read serves the written bytes from it, and a
  // repair scrub rewrites every cell it locates.
  obs::Registry reg;
  Raid6Array array(codes::make_layout("dcode", 5), kElem, kStripes, 2, &reg);
  Pcg32 rng(63);
  auto shadow = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, shadow);
  ASSERT_EQ(array.scrub(), 0);

  const int victim = 2;
  array.disk(victim).faults().inject_misdirected_writes(
      1, static_cast<uint64_t>(kElem));
  const size_t stripe_bytes = static_cast<size_t>(array.capacity() / kStripes);
  auto fresh = random_blob(rng, stripe_bytes);
  array.write(0, fresh);
  std::memcpy(shadow.data(), fresh.data(), fresh.size());
  EXPECT_EQ(array.disk(victim).faults().pending_wrong_path_writes(), 0);
  EXPECT_EQ(reg.counter("raid.integrity.write_repairs").value(), 0);

  std::vector<uint8_t> out(shadow.size());
  array.read(0, out);
  EXPECT_EQ(out, shadow);
  EXPECT_GE(reg.counter("raid.integrity.read_fallbacks").value(), 1);

  // The run's five cells and the next stripe's first cell on disk 2.
  const ScrubReport report = array.scrub_report({.repair = true});
  EXPECT_EQ(report.elements_located, 6);
  EXPECT_EQ(report.elements_repaired, report.elements_located);
  EXPECT_EQ(report.stripes_unrepairable, 0);
  EXPECT_EQ(array.scrub(), 0);
  array.read(0, out);
  EXPECT_EQ(out, shadow);
}

TEST(VerifyOnRead, DegradedWriteDecodesAroundACondemnedParity) {
  // D-Code p=7 with disk 2 failed. A silently corrupted parity whose
  // equation has a member on the lost column cannot be repaired in place,
  // so a write that dirties it escalates to the salvage rewrite, which
  // must decode the lost column around the condemned parity rather than
  // through it: every element of every such equation, written in turn,
  // must read back exact, before and after the lost disk is rebuilt.
  constexpr int kLost = 2;
  const auto layout = codes::make_layout("dcode", 7);
  int cases = 0;
  for (const codes::Equation& q : layout->equations()) {
    const bool crosses_lost =
        std::any_of(q.sources.begin(), q.sources.end(),
                    [](const codes::Element& e) { return e.col == kLost; });
    if (q.parity.col == kLost || !crosses_lost) continue;
    for (const codes::Element& target : q.sources) {
      if (target.col == kLost) continue;
      ++cases;
      Raid6Array array(codes::make_layout("dcode", 7), kElem, 2, 1);
      Pcg32 rng(static_cast<uint64_t>(70 + cases));
      auto shadow = random_blob(rng, static_cast<size_t>(array.capacity()));
      array.write(0, shadow);
      array.fail_disk(kLost);
      array.disk(q.parity.col)
          .corrupt(static_cast<uint64_t>(q.parity.row) * kElem + 3, 16, rng);

      const int64_t at =
          layout->data_index(target.row, target.col) * int64_t{kElem};
      const auto fresh = random_blob(rng, kElem);
      array.write(at, fresh);
      std::copy(fresh.begin(), fresh.end(), shadow.begin() + at);
      std::vector<uint8_t> out(shadow.size());
      array.read(0, out);
      EXPECT_EQ(out, shadow) << "parity " << q.parity.row << ","
                             << q.parity.col << " target " << target.row
                             << "," << target.col;
      array.replace_disk(kLost);
      array.rebuild();
      array.read(0, out);
      EXPECT_EQ(out, shadow);
    }
  }
  EXPECT_GT(cases, 0);
}

// --- checksum-assisted scrub: beyond the parity-only contracts -------------

// The regression the tentpole exists for: two corrupt elements in one
// stripe make the parity families disagree, so parity-only repair must
// refuse (scrub_repair_test pins that) — and the checksum channel then
// localizes both and repairs byte-identically.
TEST(ChecksumScrub, RepairsFamilyDisagreementParityOnlyRefuses) {
  auto lay = codes::make_layout("dcode", 7);
  const int rows = lay->rows();
  obs::Registry reg;
  Raid6Array array(std::move(lay), kElem, kStripes, 2, &reg);
  Pcg32 rng(25);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  for (const auto& [disk, row, nbytes] :
       {std::tuple{0, 0, kElem / 4}, std::tuple{2, 1, kElem / 2}}) {
    std::vector<uint8_t> buf(nbytes);
    array.disk(disk).read(element_device_offset(1, row, rows), buf);
    for (auto& b : buf) b ^= 0xA5;
    array.disk(disk).write(element_device_offset(1, row, rows), buf);
  }

  // Parity-only: detected, unrepairable, correctly attributed.
  ScrubReport parity_only =
      array.scrub_report({.repair = true, .use_checksums = false});
  EXPECT_EQ(parity_only.inconsistent_stripes, std::vector<int64_t>({1}));
  EXPECT_EQ(parity_only.stripes_unrepairable, 1);
  EXPECT_EQ(parity_only.stripes_family_disagreement, 1);
  EXPECT_EQ(parity_only.elements_repaired, 0);

  // Checksum-assisted: both elements condemned by their sidecar records,
  // reconstructed from surviving equations, re-verified, byte-identical.
  ScrubReport assisted = array.scrub_report({.repair = true});
  EXPECT_EQ(assisted.inconsistent_stripes, std::vector<int64_t>({1}));
  EXPECT_EQ(assisted.stripes_unrepairable, 0);
  EXPECT_EQ(assisted.checksum_mismatches, 2);
  EXPECT_EQ(assisted.elements_checksum_located, 2);
  EXPECT_EQ(assisted.elements_repaired, 2);
  EXPECT_EQ(array.scrub(), 0);
  EXPECT_GT(reg.counter("raid.scrub.checksum_located").value(), 0);

  std::vector<uint8_t> out(static_cast<size_t>(array.capacity()));
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

// The checksum channel localizes through a degraded stripe, where the
// parity-only membership comparison is unsound (dead-disk equations).
TEST(ChecksumScrub, LocalizesThroughDegradedStripe) {
  auto lay = codes::make_layout("dcode", 7);
  const int rows = lay->rows();
  Raid6Array array(std::move(lay), kElem, kStripes, 2);
  Pcg32 rng(24);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  std::vector<uint8_t> buf(16);
  array.disk(1).read(element_device_offset(0, 0, rows), buf);
  for (auto& b : buf) b ^= 0xA5;
  array.disk(1).write(element_device_offset(0, 0, rows), buf);
  array.fail_disk(5);  // no spares: stays degraded

  ScrubReport rep = array.scrub_report({.repair = true});
  EXPECT_EQ(rep.stripes_unrepairable, 0);
  EXPECT_GT(rep.elements_checksum_located, 0);
  EXPECT_EQ(array.scrub(), 0);
}

// A whole-stripe lost write — every element rolled back together — is
// parity-consistent and unrecoverable from redundancy; the identity tags
// are the only witness. Reported as stale, never counted inconsistent;
// repair mode resyncs the sidecar so reads stop condemning bytes nothing
// can improve.
TEST(ChecksumScrub, WholeStripeStaleReportedNotRepaired) {
  obs::Registry reg;
  auto layout = codes::make_layout("dcode", 5);
  const int rows = layout->rows();
  const int disks = layout->cols();
  Raid6Array array(std::move(layout), kElem, kStripes, 2, &reg);
  Pcg32 rng(77);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);
  ASSERT_EQ(array.scrub(), 0);

  // Snapshot stripe 2 on every device, rewrite it through the array,
  // then roll every device back — the classic array-wide lost write.
  const int64_t stripe = 2;
  const uint64_t dev_off = element_device_offset(stripe, 0, rows);
  const size_t dev_len = static_cast<size_t>(rows) * kElem;
  std::vector<std::vector<uint8_t>> before(static_cast<size_t>(disks));
  for (int d = 0; d < disks; ++d) {
    before[static_cast<size_t>(d)].resize(dev_len);
    array.disk(d).read(dev_off, before[static_cast<size_t>(d)]);
  }
  const int64_t stripe_bytes = array.capacity() / kStripes;
  auto fresh = random_blob(rng, static_cast<size_t>(stripe_bytes));
  array.write(stripe * stripe_bytes, fresh);
  for (int d = 0; d < disks; ++d) {
    array.disk(d).write(dev_off, before[static_cast<size_t>(d)]);
  }

  // Detect: parity consistent, stale, NOT inconsistent.
  ScrubReport detect = array.scrub_report();
  EXPECT_TRUE(detect.inconsistent_stripes.empty());
  EXPECT_EQ(detect.stale_stripes, std::vector<int64_t>({stripe}));
  EXPECT_GT(detect.elements_stale, 0);
  EXPECT_EQ(detect.stripes_unrepairable, 0);

  // Repair: content is unimprovable; the sidecar is resynced so the
  // stripe reads cleanly again (serving the rolled-back bytes).
  ScrubReport repair = array.scrub_report({.repair = true});
  EXPECT_EQ(repair.stale_stripes, std::vector<int64_t>({stripe}));
  EXPECT_EQ(array.scrub(), 0);
  EXPECT_GT(reg.counter("raid.scrub.stripes_stale").value(), 0);
  ScrubReport after = array.scrub_report();
  EXPECT_TRUE(after.stale_stripes.empty());

  std::vector<uint8_t> out(static_cast<size_t>(stripe_bytes));
  array.read(stripe * stripe_bytes, out);  // must not throw post-resync
  EXPECT_EQ(out, std::vector<uint8_t>(
                     blob.begin() + stripe * stripe_bytes,
                     blob.begin() + (stripe + 1) * stripe_bytes));
}

// --- crash consistency: sidecar vs journal ---------------------------------

// A crash between element writes leaves sidecar records ahead of (or
// behind) the platter. Journal replay reads raw, re-encodes parity, and
// resyncs every live element's record — so verified reads work again
// without a single false condemnation surviving recovery.
TEST(ChecksumScrub, JournalRecoveryResyncsSidecarAfterCrash) {
  obs::Registry reg;
  auto layout = codes::make_layout("dcode", 5);
  Raid6Array array(std::move(layout), kElem, kStripes, 2, &reg);
  array.enable_journal(16);
  Pcg32 rng(91);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);
  ASSERT_EQ(array.scrub(), 0);

  const int64_t stripe_bytes = array.capacity() / kStripes;
  auto fresh = random_blob(rng, static_cast<size_t>(2 * stripe_bytes));
  array.inject_power_loss_after(3);  // dies mid-update
  EXPECT_THROW(array.write(stripe_bytes, fresh), PowerLossError);

  array.restart();
  ASSERT_FALSE(array.journal_open_stripes().empty());
  array.journal_recover();
  EXPECT_TRUE(array.journal_open_stripes().empty());

  // Replay made stripes parity-consistent AND resynced their sidecar
  // records: repair scrub has nothing unrepairable, and a verified read
  // of the whole array does not throw.
  ScrubReport rep = array.scrub_report({.repair = true});
  EXPECT_EQ(rep.stripes_unrepairable, 0);
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> out(static_cast<size_t>(array.capacity()));
  EXPECT_NO_THROW(array.read(0, out));
}

}  // namespace
}  // namespace dcode::raid
