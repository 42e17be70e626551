// 4 x 512-bit VPCLMULQDQ CRC-64/XZ folding: sixteen 16-byte lanes in four
// zmm accumulators advance 256 bytes per step. Inputs shorter than one
// such block go to the 128-bit kernel.
#include "xorops/checksum_backend.h"

#ifdef DCODE_HAVE_VPCLMULQDQ

#include <immintrin.h>

namespace dcode::xorops::detail {
namespace {

constexpr FoldPair kFold128 = crc64_fold(128);
constexpr FoldPair kFold512 = crc64_fold(512);
constexpr FoldPair kFold2048 = crc64_fold(2048);

inline __m128i pair(FoldPair k) {
  return _mm_set_epi64x(static_cast<long long>(k.lo),
                        static_cast<long long>(k.hi));
}

inline __m512i pair4(FoldPair k) {
  const auto hi = static_cast<long long>(k.hi);
  const auto lo = static_cast<long long>(k.lo);
  return _mm512_set_epi64(lo, hi, lo, hi, lo, hi, lo, hi);
}

inline __m512i load(const uint8_t* p) { return _mm512_loadu_si512(p); }

inline __m128i load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Every 128-bit lane of x advanced by the fold distance of k, XORed
// into the same lane of d.
inline __m512i fold(__m512i x, __m512i k, __m512i d) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), d,
                                   0x96);
}

inline __m128i fold(__m128i x, __m128i k, __m128i d) {
  return _mm_ternarylogic_epi64(_mm_clmulepi64_si128(x, k, 0x00),
                                _mm_clmulepi64_si128(x, k, 0x11), d, 0x96);
}

uint64_t vpclmul_update(uint64_t crc, const uint8_t* p, size_t n) {
  if (n < 256) return pclmul_checksum_kernels().update(crc, p, n);
  const __m512i k512 = pair4(kFold512);
  const __m512i k2048 = pair4(kFold2048);
  __m512i z0 = _mm512_xor_si512(
      load(p), _mm512_zextsi128_si512(
                   _mm_cvtsi64_si128(static_cast<long long>(crc))));
  __m512i z1 = load(p + 64);
  __m512i z2 = load(p + 128);
  __m512i z3 = load(p + 192);
  for (p += 256, n -= 256; n >= 256; p += 256, n -= 256) {
    z0 = fold(z0, k2048, load(p));
    z1 = fold(z1, k2048, load(p + 64));
    z2 = fold(z2, k2048, load(p + 128));
    z3 = fold(z3, k2048, load(p + 192));
  }
  __m512i z = fold(fold(fold(z0, k512, z1), k512, z2), k512, z3);
  for (; n >= 64; p += 64, n -= 64) z = fold(z, k512, load(p));
  // Down to one 128-bit lane, then the 16-byte steps of the narrow fold.
  alignas(64) uint8_t lanes[64];
  _mm512_store_si512(lanes, z);
  const __m128i k128 = pair(kFold128);
  __m128i x = load128(lanes);
  for (int i = 1; i < 4; ++i) x = fold(x, k128, load128(lanes + 16 * i));
  for (; n >= 16; p += 16, n -= 16) x = fold(x, k128, load128(p));
  alignas(16) uint8_t rem[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(rem), x);
  return crc64_table_update(crc64_table_update(0, rem, sizeof(rem)), p, n);
}

}  // namespace

const ChecksumKernels& vpclmul_checksum_kernels() {
  static constexpr ChecksumKernels k = {"vpclmulqdq", vpclmul_update};
  return k;
}

}  // namespace dcode::xorops::detail

#endif  // DCODE_HAVE_VPCLMULQDQ
