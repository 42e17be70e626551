// XOR kernel microbenchmarks: the fused multi-source kernels vs the
// single-source loop vs the byte-at-a-time reference. The fused variants
// matter because a parity of n-3 sources computed pairwise re-reads dst
// n-4 times; xor_many streams it once per 4 sources. Alongside them, the
// element checksum (CRC-64/XZ) per backend at one 4 KiB element and at
// 64 KiB: verify-on-read hashes every element a read returns, so its GB/s
// bounds the read path the same way the XOR rows bound encode.
#include <benchmark/benchmark.h>

#include "gbench_telemetry.h"

#include <string>
#include <vector>

#include "gf/gf.h"
#include "util/aligned_buffer.h"
#include "util/rng.h"
#include "xorops/checksum.h"
#include "xorops/isa.h"
#include "xorops/xor_backend.h"
#include "xorops/xor_region.h"

using namespace dcode;

namespace {

constexpr size_t kLen = 64 * 1024;

struct Buffers {
  std::vector<AlignedBuffer> bufs;
  std::vector<const uint8_t*> ptrs;
  AlignedBuffer dst{kLen};

  explicit Buffers(int n) {
    Pcg32 rng(7);
    for (int i = 0; i < n; ++i) {
      bufs.emplace_back(kLen);
      rng.fill_bytes(bufs.back().data(), kLen);
      ptrs.push_back(bufs.back().data());
    }
  }
};

void BM_XorIntoNaive(benchmark::State& state) {
  Buffers b(1);
  for (auto _ : state) {
    xorops::xor_into_naive(b.dst.data(), b.ptrs[0], kLen);
    benchmark::DoNotOptimize(b.dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kLen);
}

void BM_XorInto(benchmark::State& state) {
  Buffers b(1);
  for (auto _ : state) {
    xorops::xor_into(b.dst.data(), b.ptrs[0], kLen);
    benchmark::DoNotOptimize(b.dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kLen);
}

void BM_XorManyPairwise(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Buffers b(n);
  for (auto _ : state) {
    std::memcpy(b.dst.data(), b.ptrs[0], kLen);
    for (int i = 1; i < n; ++i) xorops::xor_into(b.dst.data(), b.ptrs[i], kLen);
    benchmark::DoNotOptimize(b.dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * kLen);
}

void BM_XorManyFused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Buffers b(n);
  for (auto _ : state) {
    xorops::xor_many(b.dst.data(), b.ptrs, kLen);
    benchmark::DoNotOptimize(b.dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * kLen);
}

// Per-backend variants via the explicit-ISA entry points, so one run on
// wide-vector hardware reports every compiled-in backend side by side
// (the acceptance gate: avx2 mul_region8 >= 3x scalar).
void BM_XorIntoIsa(benchmark::State& state, xorops::Isa isa) {
  const auto& k = xorops::detail::xor_kernels(isa);
  Buffers b(1);
  for (auto _ : state) {
    k.xor_into(b.dst.data(), b.ptrs[0], kLen);
    benchmark::DoNotOptimize(b.dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kLen);
}

void BM_Xor5IntoIsa(benchmark::State& state, xorops::Isa isa) {
  const auto& k = xorops::detail::xor_kernels(isa);
  Buffers b(5);
  for (auto _ : state) {
    k.xor5_into(b.dst.data(), b.ptrs[0], b.ptrs[1], b.ptrs[2], b.ptrs[3],
                b.ptrs[4], kLen);
    benchmark::DoNotOptimize(b.dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 5 * kLen);
}

void BM_MulRegion8Isa(benchmark::State& state, xorops::Isa isa,
                      bool accumulate) {
  const gf::GaloisField& f = gf::gf8();
  Buffers b(1);
  for (auto _ : state) {
    f.mul_region(b.dst.data(), b.ptrs[0], 0x1d, kLen, accumulate, isa);
    benchmark::DoNotOptimize(b.dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kLen);
}

// w=16 region multiply through the dispatched path; kLen is far above the
// table-build threshold, so this measures the two-table fast path.
void BM_MulRegion16(benchmark::State& state) {
  const gf::GaloisField& f = gf::gf16();
  Buffers b(1);
  for (auto _ : state) {
    f.mul_region(b.dst.data(), b.ptrs[0], 0x1234, kLen, false);
    benchmark::DoNotOptimize(b.dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kLen);
}

void BM_Checksum64Isa(benchmark::State& state, xorops::Isa isa) {
  const size_t len = static_cast<size_t>(state.range(0));
  Buffers b(1);
  uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= xorops::checksum64_isa(isa, b.ptrs[0], len, sink);
    benchmark::DoNotOptimize(sink);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
  state.SetLabel(xorops::checksum_kernel_name(isa));
}

}  // namespace

BENCHMARK(BM_XorIntoNaive);
BENCHMARK(BM_XorInto);
BENCHMARK(BM_XorManyPairwise)->Arg(4)->Arg(10)->Arg(15);
BENCHMARK(BM_XorManyFused)->Arg(4)->Arg(10)->Arg(15);
BENCHMARK(BM_MulRegion16);

int main(int argc, char** argv) {
  for (xorops::Isa isa : xorops::supported_isas()) {
    const std::string tag = xorops::isa_name(isa);
    benchmark::RegisterBenchmark(("BM_XorInto/isa:" + tag).c_str(),
                                 BM_XorIntoIsa, isa);
    benchmark::RegisterBenchmark(("BM_Xor5Into/isa:" + tag).c_str(),
                                 BM_Xor5IntoIsa, isa);
    benchmark::RegisterBenchmark(("BM_MulRegion8/isa:" + tag).c_str(),
                                 BM_MulRegion8Isa, isa, false);
    benchmark::RegisterBenchmark(("BM_MulRegion8Acc/isa:" + tag).c_str(),
                                 BM_MulRegion8Isa, isa, true);
    benchmark::RegisterBenchmark(("BM_Checksum64/isa:" + tag).c_str(),
                                 BM_Checksum64Isa, isa)
        ->Arg(4096)
        ->Arg(kLen);
  }
  return dcode::bench::run_gbench_with_telemetry("bench_xor_kernels", argc, argv);
}
