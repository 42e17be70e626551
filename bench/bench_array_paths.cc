// Isolated array rung: Raid6Array's foreground stripe paths timed without
// the pipeline or the pool above them. One thread drives a D-Code p=7
// array (4 KiB elements, MemDisk, integrity on, threads = 1, so every
// transfer runs on the calling thread):
//
//   BM_HealthyWrite/k   — k-element delta RMW write (k = 1, 16, 35; 35
//                         is a full stripe)
//   BM_DegradedWrite/k  — disk 1 failed, no spare: k-element delta
//                         update around the lost column (k = 1, 20; the
//                         first element of each stripe is live)
//   BM_DegradedWriteOnLost/1 — the same, one element on the failed
//                         disk: its old value is rebuilt through one
//                         equation before the delta update
//   BM_DegradedRead/k   — disk 1 failed: k-element read (k = 1 is an
//                         element on the failed disk, rebuilt through one
//                         equation; k = 20 mixes direct reads and
//                         reconstructions)
//
// Each iteration moves to the next stripe, so successive ops touch
// different elements. items_per_second counts user elements.
//
// The file rows run the same array on FileDisks with integrity sidecars,
// at the size of one oltp-4k shard (512 stripes, 14 MiB per device),
// filled one stripe per write as dcode_bench's fill does and then driven
// with k-element ops at pseudo-random offsets, so what the page cache
// charges each device call shows in the array op:
//
//   BM_FileHealthyWrite/k  — k-element delta RMW write
//   BM_FileHealthyRead/k   — k-element read
//
// The shared row is the one rung with contention: four threads drive one
// 512-stripe MemDisk array (D-Code p=7, 4 KiB, threads = 1) with 1–16-
// element ops, half of them writes. Each thread reads and writes only
// its own stripes (stripe % 4 == thread; dcode_bench's clients write
// only theirs, and its pool's chunk locks keep reads off bytes in
// flight), so what shows is the per-transfer bookkeeping every client
// shares (the devices' op and element counters, which the health
// monitor's window also reads, and the checksum-store writer locks), not
// stripe-lock waits:
//
//   BM_SharedArrayMix/threads:4 — items_per_second counts ops
//
// The fill row is the array's share of dcode_bench's set-up (setup_s):
// build a D-Code p=7 MemDisk array of k stripes (4 KiB, threads = 1) and
// fill it one full-stripe write per stripe on one thread; tearing the
// array down is not timed:
//
//   BM_FillArray/512 — items_per_second counts stripes
#include <benchmark/benchmark.h>
#include <stdlib.h>

#include "gbench_telemetry.h"

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "codes/registry.h"
#include "raid/mem_disk.h"
#include "raid/raid6_array.h"
#include "util/rng.h"

using namespace dcode;

namespace {

constexpr size_t kElement = 4096;
constexpr int64_t kStripes = 16;
constexpr int kFailedDisk = 1;

std::unique_ptr<raid::Raid6Array> make_array(bool degraded) {
  raid::ArrayOptions opts;
  opts.device_factory = [](int id, size_t size) {
    return std::make_unique<raid::MemDisk>(id, size);
  };
  auto array = std::make_unique<raid::Raid6Array>(
      codes::make_layout("dcode", 7), kElement, kStripes, /*threads=*/1,
      nullptr, opts);
  Pcg32 rng(11);
  std::vector<uint8_t> fill(static_cast<size_t>(array->capacity()));
  rng.fill_bytes(fill.data(), fill.size());
  array->write(0, fill);
  if (degraded) array->fail_disk(kFailedDisk);
  return array;
}

// Byte offset of logical element `first_in_stripe` of stripe `i`.
int64_t offset_of(const raid::Raid6Array& array, int64_t i,
                  int first_in_stripe) {
  const int64_t per_stripe = array.layout().data_count();
  return ((i % kStripes) * per_stripe + first_in_stripe) *
         static_cast<int64_t>(kElement);
}

// The first data element of a stripe on the failed disk.
int first_on_failed_disk(const raid::Raid6Array& array) {
  int first = 0;
  while (array.layout().data_element(first).col != kFailedDisk) ++first;
  return first;
}

void run_writes(benchmark::State& state, bool degraded, bool on_lost = false) {
  const auto k = static_cast<size_t>(state.range(0));
  auto array = make_array(degraded);
  const int first = on_lost ? first_on_failed_disk(*array) : 0;
  std::vector<uint8_t> data(k * kElement);
  Pcg32 rng(static_cast<uint64_t>(k));
  rng.fill_bytes(data.data(), data.size());
  int64_t i = 0;
  for (auto _ : state) {
    array->write(offset_of(*array, i++, first), data);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(k));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(k * kElement));
}

void BM_HealthyWrite(benchmark::State& state) { run_writes(state, false); }

void BM_DegradedWrite(benchmark::State& state) { run_writes(state, true); }

void BM_DegradedWriteOnLost(benchmark::State& state) {
  run_writes(state, true, /*on_lost=*/true);
}

void BM_DegradedRead(benchmark::State& state) {
  const auto k = static_cast<size_t>(state.range(0));
  auto array = make_array(/*degraded=*/true);
  // A single-element read targets the first data element on the failed
  // disk, so it always reconstructs.
  const int first = k == 1 ? first_on_failed_disk(*array) : 0;
  std::vector<uint8_t> out(k * kElement);
  int64_t i = 0;
  for (auto _ : state) {
    array->read(offset_of(*array, i++, first), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(k));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(k * kElement));
}

constexpr int64_t kFileStripes = 512;

// A filled FileDisk array whose devices unlink themselves on close and
// whose sidecars live in a temp dir removed with it.
class FileArray {
 public:
  FileArray() {
    const char* tmp = std::getenv("TMPDIR");
    std::string dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                      "/dcode-bench-sidecars-XXXXXX";
    if (::mkdtemp(dir.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed: " + dir);
    }
    dir_ = dir;
    raid::ArrayOptions opts;
    opts.device_factory = bench::backend_device_factory("file");
    opts.integrity_sidecar_dir = dir_;
    array_ = std::make_unique<raid::Raid6Array>(
        codes::make_layout("dcode", 7), kElement, kFileStripes, /*threads=*/1,
        nullptr, opts);
    std::vector<uint8_t> stripe(
        static_cast<size_t>(array_->layout().data_count()) * kElement);
    Pcg32 rng(13);
    for (int64_t s = 0; s < kFileStripes; ++s) {
      rng.fill_bytes(stripe.data(), stripe.size());
      array_->write(s * static_cast<int64_t>(stripe.size()), stripe);
    }
  }
  ~FileArray() {
    array_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  FileArray(const FileArray&) = delete;
  FileArray& operator=(const FileArray&) = delete;

  raid::Raid6Array& array() { return *array_; }

 private:
  std::string dir_;
  std::unique_ptr<raid::Raid6Array> array_;
};

void run_file_ops(benchmark::State& state, bool write) {
  const int64_t k = state.range(0);
  FileArray files;
  raid::Raid6Array& array = files.array();
  const int64_t elements = array.capacity() / static_cast<int64_t>(kElement);
  const auto starts = static_cast<uint32_t>(elements - k + 1);
  std::vector<uint8_t> buf(static_cast<size_t>(k) * kElement);
  Pcg32 rng(17);
  rng.fill_bytes(buf.data(), buf.size());
  for (auto _ : state) {
    const int64_t start = rng.next_below(starts);
    const int64_t offset = start * static_cast<int64_t>(kElement);
    if (write) {
      array.write(offset, buf);
    } else {
      array.read(offset, buf);
    }
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * k);
  state.SetBytesProcessed(state.iterations() * k *
                          static_cast<int64_t>(kElement));
}

void BM_FileHealthyWrite(benchmark::State& state) {
  run_file_ops(state, /*write=*/true);
}

void BM_FileHealthyRead(benchmark::State& state) {
  run_file_ops(state, /*write=*/false);
}

constexpr int64_t kSharedStripes = 512;
std::unique_ptr<raid::Raid6Array> g_shared;

void BM_SharedArrayMix(benchmark::State& state) {
  if (state.thread_index() == 0) {
    raid::ArrayOptions opts;
    opts.device_factory = [](int id, size_t size) {
      return std::make_unique<raid::MemDisk>(id, size);
    };
    g_shared = std::make_unique<raid::Raid6Array>(
        codes::make_layout("dcode", 7), kElement, kSharedStripes,
        /*threads=*/1, nullptr, opts);
    std::vector<uint8_t> stripe(
        static_cast<size_t>(g_shared->layout().data_count()) * kElement);
    Pcg32 rng(19);
    for (int64_t s = 0; s < kSharedStripes; ++s) {
      rng.fill_bytes(stripe.data(), stripe.size());
      g_shared->write(s * static_cast<int64_t>(stripe.size()), stripe);
    }
  }
  const auto threads = static_cast<uint32_t>(state.threads());
  const auto me = static_cast<uint32_t>(state.thread_index());
  Pcg32 rng(23 + me);
  std::vector<uint8_t> buf(16 * kElement);
  rng.fill_bytes(buf.data(), buf.size());
  int64_t bytes = 0;
  // The array exists from here on: the benchmark starts no thread's loop
  // before thread 0 has reached it.
  for (auto _ : state) {
    raid::Raid6Array& array = *g_shared;
    const int64_t per_stripe = array.layout().data_count();
    const auto k = static_cast<int64_t>(1 + rng.next_below(16));
    const auto len = static_cast<size_t>(k) * kElement;
    // Inside one of this thread's stripes, reads as well as writes: a
    // healthy read takes no lock, so reading bytes another thread is
    // writing would be a data race.
    const int64_t stripe =
        static_cast<int64_t>(rng.next_below(
            static_cast<uint32_t>(kSharedStripes) / threads)) *
            threads +
        me;
    const int64_t first =
        stripe * per_stripe +
        rng.next_below(static_cast<uint32_t>(per_stripe - k + 1));
    const std::span<uint8_t> io(buf.data(), len);
    if (rng.next_below(2) == 0) {
      array.write(first * static_cast<int64_t>(kElement), io);
    } else {
      array.read(first * static_cast<int64_t>(kElement), io);
    }
    bytes += static_cast<int64_t>(len);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(bytes);
  if (state.thread_index() == 0) g_shared.reset();
}

void BM_FillArray(benchmark::State& state) {
  const int64_t stripes = state.range(0);
  raid::ArrayOptions opts;
  opts.device_factory = [](int id, size_t size) {
    return std::make_unique<raid::MemDisk>(id, size);
  };
  const int per_stripe = codes::make_layout("dcode", 7)->data_count();
  std::vector<uint8_t> stripe(static_cast<size_t>(per_stripe) * kElement);
  Pcg32 rng(29);
  rng.fill_bytes(stripe.data(), stripe.size());
  for (auto _ : state) {
    auto array = std::make_unique<raid::Raid6Array>(
        codes::make_layout("dcode", 7), kElement, stripes, /*threads=*/1,
        nullptr, opts);
    for (int64_t s = 0; s < stripes; ++s) {
      array->write(s * static_cast<int64_t>(stripe.size()), stripe);
    }
    state.PauseTiming();
    array.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * stripes);
  state.SetBytesProcessed(state.iterations() * stripes *
                          static_cast<int64_t>(stripe.size()));
}

}  // namespace

BENCHMARK(BM_HealthyWrite)->Arg(1)->Arg(16)->Arg(35)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_DegradedWrite)->Arg(1)->Arg(20)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_DegradedWriteOnLost)->Arg(1)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_DegradedRead)->Arg(1)->Arg(20)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_FileHealthyWrite)->Arg(1)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_FileHealthyRead)->Arg(1)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_SharedArrayMix)->Threads(4)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_FillArray)->Arg(512)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

int main(int argc, char** argv) {
  return dcode::bench::run_gbench_with_telemetry("bench_array_paths", argc,
                                                 argv);
}
