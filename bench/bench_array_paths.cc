// Isolated array rung: Raid6Array's foreground stripe paths timed without
// the pipeline or the pool above them. One thread drives a D-Code p=7
// array (4 KiB elements, MemDisk, integrity on, threads = 1, so every
// transfer runs on the calling thread):
//
//   BM_HealthyWrite/k   — k-element delta RMW write (k = 1, 16, 35; 35
//                         is a full stripe)
//   BM_DegradedWrite/k  — disk 1 failed, no spare: k-element stripe
//                         rewrite (k = 1, 20)
//   BM_DegradedRead/k   — disk 1 failed: k-element read (k = 1 is an
//                         element on the failed disk, rebuilt through one
//                         equation; k = 20 mixes direct reads and
//                         reconstructions)
//
// Each iteration moves to the next stripe, so successive ops touch
// different elements. items_per_second counts user elements.
#include <benchmark/benchmark.h>

#include "gbench_telemetry.h"

#include <memory>
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
  opts.integrity_checksums = true;
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

void run_writes(benchmark::State& state, bool degraded) {
  const auto k = static_cast<size_t>(state.range(0));
  auto array = make_array(degraded);
  std::vector<uint8_t> data(k * kElement);
  Pcg32 rng(static_cast<uint64_t>(k));
  rng.fill_bytes(data.data(), data.size());
  int64_t i = 0;
  for (auto _ : state) {
    array->write(offset_of(*array, i++, 0), data);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(k));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(k * kElement));
}

void BM_HealthyWrite(benchmark::State& state) { run_writes(state, false); }

void BM_DegradedWrite(benchmark::State& state) { run_writes(state, true); }

void BM_DegradedRead(benchmark::State& state) {
  const auto k = static_cast<size_t>(state.range(0));
  auto array = make_array(/*degraded=*/true);
  // A single-element read targets the first data element on the failed
  // disk, so it always reconstructs.
  int first = 0;
  if (k == 1) {
    while (array->layout().data_element(first).col != kFailedDisk) ++first;
  }
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

}  // namespace

BENCHMARK(BM_HealthyWrite)->Arg(1)->Arg(16)->Arg(35)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_DegradedWrite)->Arg(1)->Arg(20)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_DegradedRead)->Arg(1)->Arg(20)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

int main(int argc, char** argv) {
  return dcode::bench::run_gbench_with_telemetry("bench_array_paths", argc,
                                                 argv);
}
