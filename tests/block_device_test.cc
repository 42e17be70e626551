// The device layer: BlockDevice's NVI contract (bounds checks, op/byte
// accounting, default vectored paths), the MemDisk and FileDisk
// backends, the FaultInjectingDevice decorator, the factory env switch,
// and — the part that needs real files — a write → power loss →
// process-style restart → journal_recover round-trip where the second
// Raid6Array instance sees only what the first one's FileDisks persisted.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <linux/magic.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "codes/registry.h"
#include "raid/block_device.h"
#include "raid/fault_injection.h"
#include "raid/file_disk.h"
#include "raid/health_monitor.h"
#include "raid/mem_disk.h"
#include "raid/raid6_array.h"
#include "raid/stripe_io_engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcode::raid {
namespace {

std::vector<uint8_t> random_bytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> buf(n);
  Pcg32 rng(seed);
  rng.fill_bytes(buf.data(), buf.size());
  return buf;
}

std::string temp_path(const std::string& stem) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + stem + "-" +
         std::to_string(::getpid()) + ".img";
}

TEST(MemDiskTest, RoundTripAndOpAccounting) {
  MemDisk disk(3, 4096);
  EXPECT_EQ(disk.id(), 3);
  EXPECT_EQ(disk.size(), 4096u);
  EXPECT_EQ(disk.backend_name(), "mem");
  EXPECT_EQ(disk.capabilities() & kDevicePersistent, 0u);
  EXPECT_NE(disk.capabilities() & kDeviceDiscard, 0u);

  auto data = random_bytes(512, 1);
  ASSERT_TRUE(disk.write(128, data).ok());
  std::vector<uint8_t> out(512);
  IoResult r = disk.read(128, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, 512u);
  EXPECT_EQ(out, data);

  EXPECT_EQ(disk.read_ops(), 1);
  EXPECT_EQ(disk.write_ops(), 1);
  EXPECT_EQ(disk.bytes_read(), 512);
  EXPECT_EQ(disk.bytes_written(), 512);
  disk.reset_op_stats();
  EXPECT_EQ(disk.read_ops(), 0);
  EXPECT_EQ(disk.bytes_written(), 0);

  // A fresh device reads as zeros; discard re-zeroes a written range.
  ASSERT_TRUE(disk.discard(128, 512).ok());
  ASSERT_TRUE(disk.read(128, out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(512, 0));
}

// Minor page faults the calling thread has taken so far.
int64_t thread_minor_faults() {
  rusage usage{};
  ::getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

TEST(MemDiskTest, StorageComesZeroedFromTheKernel) {
  // Building a device touches none of its pages: a 64 MiB MemDisk costs a
  // few minor faults, not one per 4 KiB page (16 384).
  constexpr size_t kSize = size_t{64} << 20;
  const int64_t before = thread_minor_faults();
  auto disk = std::make_unique<MemDisk>(0, kSize);
  EXPECT_LT(thread_minor_faults() - before, 64);

  // Unwritten storage reads as zeros...
  std::vector<uint8_t> out(size_t{1} << 20);
  const std::vector<uint8_t> zeros(out.size(), 0);
  for (size_t at = 0; at < kSize; at += out.size()) {
    ASSERT_TRUE(disk->read(at, out).ok());
    ASSERT_EQ(out, zeros) << "at " << at;
  }
  // ...and discard zeroes a written range again, leaving its neighbours.
  const auto data = random_bytes(3 * 4096 + 100, 5);
  ASSERT_TRUE(disk->write(4000, data).ok());
  ASSERT_TRUE(disk->discard(4100, data.size() - 200).ok());
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE(disk->read(4000, back).ok());
  auto expected = data;
  std::fill(expected.begin() + 100, expected.end() - 100, uint8_t{0});
  EXPECT_EQ(back, expected);
}

TEST(MemDiskTest, VectoredTransferIsOneDeviceOp) {
  MemDisk disk(0, 1024);
  auto data = random_bytes(96, 2);
  ConstIoVec wv[3] = {{data.data(), 32}, {data.data() + 32, 32},
                      {data.data() + 64, 32}};
  ASSERT_TRUE(disk.writev(100, wv).ok());

  std::vector<uint8_t> a(48), b(48);
  IoVec rv[2] = {{a.data(), 48}, {b.data(), 48}};
  IoResult r = disk.readv(100, rv);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, 96u);
  EXPECT_TRUE(std::memcmp(a.data(), data.data(), 48) == 0);
  EXPECT_TRUE(std::memcmp(b.data(), data.data() + 48, 48) == 0);

  // However many segments, one op each — coalescing's denominator.
  EXPECT_EQ(disk.read_ops(), 1);
  EXPECT_EQ(disk.write_ops(), 1);
  EXPECT_EQ(disk.bytes_read(), 96);
  EXPECT_EQ(disk.bytes_written(), 96);
}

TEST(MemDiskTest, OutOfBoundsIsACallerBug) {
  MemDisk disk(0, 256);
  std::vector<uint8_t> buf(32);
  EXPECT_THROW(disk.read(240, buf), std::logic_error);
  EXPECT_THROW(disk.write(256, buf), std::logic_error);
  IoVec rv[1] = {{buf.data(), 32}};
  EXPECT_THROW(disk.readv(230, rv), std::logic_error);
  EXPECT_THROW(disk.discard(0, 257), std::logic_error);
}

// A backend that only implements the scalar hooks: the base class's
// default vectored paths must walk the segments correctly.
class ScalarOnlyDevice : public BlockDevice {
 public:
  explicit ScalarOnlyDevice(size_t size)
      : BlockDevice(0, size), storage_(size) {}
  std::string_view backend_name() const override { return "scalar-only"; }
  uint32_t capabilities() const override { return 0; }

 protected:
  IoResult do_read(uint64_t offset, std::span<uint8_t> out) override {
    std::memcpy(out.data(), storage_.data() + offset, out.size());
    return IoResult::success(out.size());
  }
  IoResult do_write(uint64_t offset, std::span<const uint8_t> in) override {
    std::memcpy(storage_.data() + offset, in.data(), in.size());
    return IoResult::success(in.size());
  }

 private:
  std::vector<uint8_t> storage_;
};

TEST(BlockDeviceTest, DefaultVectoredPathsWalkTheSegments) {
  ScalarOnlyDevice disk(512);
  auto data = random_bytes(120, 3);
  ConstIoVec wv[3] = {{data.data(), 40}, {data.data() + 40, 40},
                      {data.data() + 80, 40}};
  ASSERT_TRUE(disk.writev(8, wv).ok());
  std::vector<uint8_t> out(120);
  IoVec rv[4] = {{out.data(), 30}, {out.data() + 30, 30},
                 {out.data() + 60, 30}, {out.data() + 90, 30}};
  IoResult r = disk.readv(8, rv);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, 120u);
  EXPECT_EQ(out, data);
}

TEST(FileDiskTest, PersistsAcrossCloseAndReopen) {
  const std::string path = temp_path("dcode-bdtest-persist");
  auto data = random_bytes(1024, 4);
  {
    FileDisk disk(0, 4096, path);
    EXPECT_EQ(disk.backend_name(), "file");
    EXPECT_NE(disk.capabilities() & kDevicePersistent, 0u);
    EXPECT_NE(disk.capabilities() & kDeviceFlush, 0u);
    EXPECT_EQ(disk.capabilities() & kDeviceReopened, 0u);
    ASSERT_TRUE(disk.write(512, data).ok());
    ASSERT_TRUE(disk.flush().ok());
  }
  {
    FileDisk::Options opts;
    opts.reuse = true;
    opts.unlink_on_close = true;
    FileDisk disk(0, 4096, path, opts);
    EXPECT_EQ(disk.path(), path);
    EXPECT_NE(disk.capabilities() & kDeviceReopened, 0u);
    std::vector<uint8_t> out(1024);
    ASSERT_TRUE(disk.read(512, out).ok());
    EXPECT_EQ(out, data);
    // Discard zero-fills on the file backend too.
    ASSERT_TRUE(disk.discard(512, 1024).ok());
    ASSERT_TRUE(disk.read(512, out).ok());
    EXPECT_EQ(out, std::vector<uint8_t>(1024, 0));
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0);  // unlink_on_close cleaned up
}

TEST(FileDiskTest, VectoredTransfersBeyondTheIovecCap) {
  // > 512 segments forces the preadv/pwritev chunking path.
  const size_t segments = 600, seg = 8;
  const std::string path = temp_path("dcode-bdtest-iovcap");
  FileDisk::Options opts;
  opts.unlink_on_close = true;
  FileDisk disk(0, segments * seg, path, opts);

  auto data = random_bytes(segments * seg, 5);
  std::vector<ConstIoVec> wv(segments);
  for (size_t i = 0; i < segments; ++i) wv[i] = {data.data() + i * seg, seg};
  IoResult w = disk.writev(0, wv);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.bytes, segments * seg);

  std::vector<uint8_t> out(segments * seg);
  std::vector<IoVec> rv(segments);
  for (size_t i = 0; i < segments; ++i) rv[i] = {out.data() + i * seg, seg};
  IoResult r = disk.readv(0, rv);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(disk.read_ops(), 1);
  EXPECT_EQ(disk.write_ops(), 1);
}

// Pages of `path` resident in the page cache (mincore over a read-only
// shared mapping; mapping a file faults nothing in).
size_t resident_pages(const std::string& path, size_t size) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return SIZE_MAX;
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return SIZE_MAX;
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((size + page - 1) / page);
  size_t resident = SIZE_MAX;
  if (::mincore(map, size, vec.data()) == 0) {
    resident = 0;
    for (unsigned char v : vec) resident += v & 1;
  }
  ::munmap(map, size);
  return resident;
}

// FileDisk advises the kernel that it reads at random: readahead would
// build large page-cache folios around the elements it reads, and every
// later small overwrite into one pays for the folio's size. One read
// alone triggers no readahead, so the guard reads consecutive elements.
TEST(FileDiskTest, ReadsFetchOnlyTheRequestedPages) {
  // Where default_device_factory() puts its files.
  const char* dir = std::getenv("DCODE_DISK_DIR");
  if (dir == nullptr) dir = std::getenv("TMPDIR");
  if (dir == nullptr) dir = "/tmp";
  struct statfs fs = {};
  ASSERT_EQ(::statfs(dir, &fs), 0) << dir;
  if (fs.f_type == TMPFS_MAGIC) {
    GTEST_SKIP() << "tmpfs has no readahead, so the guard cannot fail there";
  }
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  constexpr size_t kSize = size_t{2} << 20;
  constexpr size_t kReads = 8;
  const std::string path = std::string(dir) + "/dcode-bdtest-fadvise-" +
                           std::to_string(::getpid()) + ".img";
  std::vector<uint8_t> out(page);
  {
    FileDisk disk(0, kSize, path);  // fresh and sparse: nothing cached
    ASSERT_EQ(resident_pages(path, kSize), 0u);
    for (size_t i = 0; i < kReads; ++i) {
      ASSERT_TRUE(disk.read((size_t{1} << 20) + i * page, out).ok());
    }
    EXPECT_EQ(resident_pages(path, kSize), kReads);
  }
  // The restart path reopens the file: the advice must hold there too.
  FileDisk::Options opts;
  opts.reuse = true;
  opts.unlink_on_close = true;
  FileDisk disk(0, kSize, path, opts);
  for (size_t i = 0; i < kReads; ++i) {
    ASSERT_TRUE(disk.read((size_t{256} << 10) + i * page, out).ok());
  }
  EXPECT_EQ(resident_pages(path, kSize), 2 * kReads);
}

TEST(FaultInjectionTest, FailStopUntilReplaced) {
  FaultInjectingDevice disk(std::make_unique<MemDisk>(7, 1024));
  auto data = random_bytes(256, 6);
  ASSERT_TRUE(disk.write(0, data).ok());

  disk.fail();
  EXPECT_TRUE(disk.failed());
  std::vector<uint8_t> out(256);
  EXPECT_EQ(disk.read(0, out).status, IoStatus::kFailed);
  EXPECT_EQ(disk.write(0, data).status, IoStatus::kFailed);
  EXPECT_EQ(disk.flush().status, IoStatus::kFailed);

  disk.replace(std::make_unique<MemDisk>(7, 1024));
  EXPECT_FALSE(disk.failed());
  ASSERT_TRUE(disk.read(0, out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(256, 0));  // blank replacement
  EXPECT_THROW(disk.replace(std::make_unique<MemDisk>(7, 512)),
               std::logic_error);  // size mismatch
  EXPECT_EQ(disk.generation(), 1u);
}

TEST(FaultInjectionTest, TransientErrorsDrainThenHeal) {
  FaultInjectingDevice disk(std::make_unique<MemDisk>(0, 1024));
  disk.inject_transient_errors(2);
  EXPECT_EQ(disk.pending_transient_errors(), 2);
  std::vector<uint8_t> out(16);
  EXPECT_EQ(disk.read(0, out).status, IoStatus::kTransient);
  EXPECT_EQ(disk.read(0, out).status, IoStatus::kTransient);
  EXPECT_TRUE(disk.read(0, out).ok());
  EXPECT_EQ(disk.pending_transient_errors(), 0);
}

TEST(FaultInjectionTest, LatencyAppliesOnFaultPathsToo) {
  // An erroring op still occupies the device for its service time: the
  // injected latency must be paid before the fault decision, not only on
  // the success path (the early-return ordering once skipped it).
  FaultInjectingDevice disk(std::make_unique<MemDisk>(0, 1024));
  constexpr int64_t kLatencyNs = 2'000'000;  // 2ms: far above timer noise
  disk.set_latency_ns(kLatencyNs);
  disk.inject_transient_errors(1);
  std::vector<uint8_t> out(16);

  auto timed = [&](IoStatus expect) {
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(disk.read(0, out).status, expect);
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  EXPECT_GE(timed(IoStatus::kTransient), kLatencyNs);
  EXPECT_GE(timed(IoStatus::kOk), kLatencyNs);
  disk.fail();
  EXPECT_GE(timed(IoStatus::kFailed), kLatencyNs);
}

TEST(FaultInjectionTest, CorruptionIsSilent) {
  FaultInjectingDevice disk(std::make_unique<MemDisk>(0, 1024));
  auto data = random_bytes(64, 7);
  ASSERT_TRUE(disk.write(0, data).ok());
  Pcg32 rng(8);
  disk.corrupt(0, 64, rng);
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(disk.read(0, out).ok());  // no error surfaces
  EXPECT_NE(out, data);                 // but the bytes changed
}

TEST(DeviceFactoryTest, EnvSelectsTheBackend) {
  const char* saved = std::getenv("DCODE_DISK_BACKEND");
  const std::string restore = saved != nullptr ? saved : "";

  ::unsetenv("DCODE_DISK_BACKEND");
  EXPECT_EQ(default_device_factory()(0, 1024)->backend_name(), "mem");
  ::setenv("DCODE_DISK_BACKEND", "mem", 1);
  EXPECT_EQ(default_device_factory()(0, 1024)->backend_name(), "mem");
  ::setenv("DCODE_DISK_BACKEND", "file", 1);
  EXPECT_EQ(default_device_factory()(1, 1024)->backend_name(), "file");

  if (saved != nullptr) {
    ::setenv("DCODE_DISK_BACKEND", restore.c_str(), 1);
  } else {
    ::unsetenv("DCODE_DISK_BACKEND");
  }
}

// Engine-level retry budget: a transient burst within the budget heals
// invisibly; a longer one escalates to fail-stop.
TEST(EngineRetryTest, TransientBurstHealsWithinBudgetElseEscalates) {
  static constexpr size_t kElem = 64;
  auto make = [](obs::Registry& reg) {
    return std::make_unique<Raid6Array>(codes::make_layout("dcode", 5), kElem,
                                        2, /*threads=*/1, &reg);
  };
  obs::Registry reg1;
  auto array = make(reg1);
  auto data = random_bytes(static_cast<size_t>(array->capacity()), 9);
  array->write(0, data);

  array->disk(1).faults().inject_transient_errors(3);  // == retry budget
  std::vector<uint8_t> out(static_cast<size_t>(array->capacity()));
  array->read(0, out);
  EXPECT_EQ(out, data);
  EXPECT_FALSE(array->disk(1).failed());
  EXPECT_EQ(reg1.counter("raid.engine.transient_retries").value(), 3);
  EXPECT_EQ(reg1.counter("raid.engine.retry_exhausted").value(), 0);

  obs::Registry reg2;
  array = make(reg2);
  array->write(0, data);
  array->disk(1).faults().inject_transient_errors(1000);
  // Retry exhaustion escalates the disk to fail-stop; the array fails
  // over to the degraded path within the same read instead of surfacing
  // DiskFailedError to the caller.
  array->read(0, out);
  EXPECT_EQ(out, data);
  EXPECT_TRUE(array->disk(1).failed());
  EXPECT_EQ(array->health().state(1), DiskHealth::kFailed);
  EXPECT_EQ(reg2.counter("raid.engine.retry_exhausted").value(), 1);
  EXPECT_EQ(reg2.counter("raid.engine.transient_retries").value(), 3);
  EXPECT_GE(reg2.counter("raid.failovers").value(), 1);
  // Degraded reads keep working afterwards too.
  array->read(0, out);
  EXPECT_EQ(out, data);
}

// Retry exhaustion fails the device its attempts ran on, not whatever the
// slot holds by then. Here the last attempt's transient is the one that
// reaches the monitor's fail threshold, and the escalation replaces the
// device before the engine finds the retry budget spent.
TEST(EngineRetryTest, ExhaustionFailsOnlyTheDeviceItRanOn) {
  static constexpr size_t kElem = 64;
  static constexpr int64_t kBudget = 3;  // retries; 4 attempts per op
  ThreadPool pool(1);
  ArrayOptions opts;
  StripeIoEngine engine(2, 4 * kElem, kElem, /*rows=*/1, pool, nullptr,
                        nullptr, opts);
  obs::Registry reg;
  HealthMonitor mon(engine.devices(), reg);
  engine.set_health_monitor(&mon);
  int replaced = 0;
  mon.set_escalation_callback([&](int d) {
    engine.replace_disk(d);
    ++replaced;
  });
  std::vector<uint8_t> buf(kElem);
  // Bursts the retries heal, up to one op's attempts short of the
  // threshold.
  const int64_t lead = HealthMonitor::kFailTransients - (kBudget + 1);
  for (int64_t tally = 0; tally < lead;) {
    const int64_t burst = std::min(kBudget, lead - tally);
    engine.disk(0).faults().inject_transient_errors(burst);
    engine.read_element(0, 0, 0, buf.data(), /*verify=*/false);
    tally += burst;
  }
  ASSERT_EQ(mon.transients_in_window(0), lead);
  ASSERT_EQ(replaced, 0);

  engine.disk(0).faults().inject_transient_errors(kBudget + 1);
  EXPECT_THROW(engine.read_element(0, 0, 0, buf.data(), /*verify=*/false),
               DiskFailedError);
  EXPECT_EQ(replaced, 1);
  EXPECT_EQ(engine.disk(0).faults().generation(), 1u);
  EXPECT_FALSE(engine.disk(0).failed());  // the replacement keeps serving
  EXPECT_EQ(reg.counter("raid.health.escalations").value(), 1);
}

// The persistence satellite: a file-backed array crashes mid-write,
// recovers through the journal, is destroyed, and a SECOND array over
// the same files (reuse=true) sees consistent, identical contents —
// i.e. the write-hole round-trip works against real files, not RAM.
TEST(FileBackedArrayTest, JournalRecoverySurvivesArrayReconstruction) {
  constexpr size_t kElem = 128;
  const std::string stem = temp_path("dcode-bdtest-array");
  auto factory = [&stem](bool reuse, bool cleanup) -> DeviceFactory {
    return [stem, reuse, cleanup](int id, size_t size)
               -> std::unique_ptr<BlockDevice> {
      FileDisk::Options opts;
      opts.reuse = reuse;
      opts.unlink_on_close = cleanup;
      return std::make_unique<FileDisk>(
          id, size, stem + "-" + std::to_string(id), opts);
    };
  };

  std::vector<uint8_t> data;
  std::vector<uint8_t> expect;
  {
    ArrayOptions opts;
    opts.device_factory = factory(/*reuse=*/false, /*cleanup=*/false);
    Raid6Array array(codes::make_layout("dcode", 5), kElem, 3, /*threads=*/1,
                     nullptr, std::move(opts));
    data = random_bytes(static_cast<size_t>(array.capacity()), 10);
    array.write(0, data);
    array.enable_journal();
    array.inject_power_loss_after(2);
    EXPECT_THROW(array.write(0, random_bytes(2 * kElem, 11)), PowerLossError);

    array.restart();
    EXPECT_FALSE(array.journal_open_stripes().empty());
    EXPECT_EQ(array.journal_recover(), 1);
    EXPECT_EQ(array.scrub(), 0);
    expect.resize(static_cast<size_t>(array.capacity()));
    array.read(0, expect);
    EXPECT_GT(array.flush(), 0);
  }  // first array gone; only the files remain

  {
    ArrayOptions opts;
    opts.device_factory = factory(/*reuse=*/true, /*cleanup=*/true);
    Raid6Array array(codes::make_layout("dcode", 5), kElem, 3, /*threads=*/1,
                     nullptr, std::move(opts));
    EXPECT_EQ(array.scrub(), 0);  // parities consistent straight off disk
    std::vector<uint8_t> out(static_cast<size_t>(array.capacity()));
    array.read(0, out);
    EXPECT_EQ(out, expect);
    // The crash landed writes the journal then re-encoded around; the
    // rest of the address space is untouched original data.
    EXPECT_TRUE(std::equal(out.begin() + 2 * kElem, out.end(),
                           data.begin() + 2 * kElem));
  }
  for (int d = 0; d < 5; ++d) {
    EXPECT_NE(::access((stem + "-" + std::to_string(d)).c_str(), F_OK), 0);
  }
}

}  // namespace
}  // namespace dcode::raid
