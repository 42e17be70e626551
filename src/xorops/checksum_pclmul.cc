// 4 x 128-bit PCLMULQDQ CRC-64/XZ folding: four independent 16-byte
// accumulators advance 64 bytes per step, so four carry-less multiply
// chains overlap. Serves kSse2/kAvx2 hosts, and kAvx512 inputs too short
// for a 512-bit fold block.
#include "xorops/checksum_backend.h"

#ifdef DCODE_HAVE_PCLMUL

#include <immintrin.h>

namespace dcode::xorops::detail {
namespace {

constexpr FoldPair kFold128 = crc64_fold(128);
constexpr FoldPair kFold512 = crc64_fold(512);

inline __m128i pair(FoldPair k) {
  return _mm_set_epi64x(static_cast<long long>(k.lo),
                        static_cast<long long>(k.hi));
}

inline __m128i load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x advanced by the fold distance of k, XORed into d.
inline __m128i fold(__m128i x, __m128i k, __m128i d) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                    _mm_clmulepi64_si128(x, k, 0x11)),
      d);
}

uint64_t pclmul_update(uint64_t crc, const uint8_t* p, size_t n) {
  if (n < 64) return crc64_table_update(crc, p, n);
  const __m128i k128 = pair(kFold128);
  const __m128i k512 = pair(kFold512);
  // The register enters as the first eight message bytes XORed with it.
  __m128i x0 = _mm_xor_si128(load(p),
                             _mm_cvtsi64_si128(static_cast<long long>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k512, load(p));
    x1 = fold(x1, k512, load(p + 16));
    x2 = fold(x2, k512, load(p + 32));
    x3 = fold(x3, k512, load(p + 48));
  }
  __m128i x = fold(fold(fold(x0, k128, x1), k128, x2), k128, x3);
  for (; n >= 16; p += 16, n -= 16) x = fold(x, k128, load(p));
  // The 128-bit remainder is congruent to everything folded so far;
  // running it through the table from a zero register reduces it.
  alignas(16) uint8_t rem[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(rem), x);
  return crc64_table_update(crc64_table_update(0, rem, sizeof(rem)), p, n);
}

}  // namespace

const ChecksumKernels& pclmul_checksum_kernels() {
  static constexpr ChecksumKernels k = {"pclmul", pclmul_update};
  return k;
}

}  // namespace dcode::xorops::detail

#endif  // DCODE_HAVE_PCLMUL
