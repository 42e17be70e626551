// Per-ISA kernel tables behind xorops/checksum.h.
//
// Every backend computes the same raw CRC-64/XZ state update — no init
// or final inversion, those belong to the public wrappers — so the
// backends are interchangeable mid-stream and bit-identical by
// construction of the math, not by sharing code:
//
//   table      portable slicing-by-8 (checksum.cc); the ground truth,
//   pclmul     4 x 128-bit PCLMULQDQ folds (checksum_pclmul.cc),
//   vpclmulqdq 4 x 512-bit VPCLMULQDQ folds (checksum_vpclmul.cc).
//
// The folding kernels reduce their final 128-bit remainder and any tail
// shorter than one 16-byte fold step through the table, so the only
// arithmetic they own is the fold itself.
#pragma once

#include <cstddef>
#include <cstdint>

#include "xorops/isa.h"

namespace dcode::xorops::detail {

struct ChecksumKernels {
  const char* name;  // "table", "pclmul", "vpclmulqdq"
  // Advances a reflected CRC-64/XZ register over n bytes at p (any
  // alignment, n may be zero) and returns the new register.
  uint64_t (*update)(uint64_t crc, const uint8_t* p, size_t n);
};

// Table for one backend; throws std::logic_error if the ISA is not
// supported (not compiled in, or the CPU lacks it). An ISA whose CPU
// lacks carry-less multiply gets the narrower kernel, or the table.
const ChecksumKernels& checksum_kernels(Isa isa);

// The slicing-by-8 register update every backend reduces through.
uint64_t crc64_table_update(uint64_t crc, const uint8_t* p, size_t n);

// CRC-64/XZ generator, normal (MSB-first) form with x^64 implicit.
inline constexpr uint64_t kCrc64Poly = 0x42F0E1EBA9EA3693ULL;

constexpr uint64_t reflect64(uint64_t v) {
  uint64_t r = 0;
  for (int i = 0; i < 64; ++i, v >>= 1) r = (r << 1) | (v & 1);
  return r;
}

// x^k mod P in normal form.
constexpr uint64_t crc64_xpow(unsigned k) {
  uint64_t r = 1;
  for (unsigned i = 0; i < k; ++i) {
    r = (r << 1) ^ ((r >> 63) != 0 ? kCrc64Poly : 0);
  }
  return r;
}

// Fold multipliers, reflected, for a 128-bit lane that sits `bits` before
// the data it is folded into: its first (higher-degree) 64-bit half is
// multiplied by `hi` = x^(bits+64) and its second half by `lo` = x^bits,
// each less one power because a carry-less product of two reflected
// operands comes out one bit short. Derived from the polynomial at
// compile time, never hand-copied.
struct FoldPair {
  uint64_t hi;
  uint64_t lo;
};
constexpr FoldPair crc64_fold(unsigned bits) {
  return {reflect64(crc64_xpow(bits + 63)), reflect64(crc64_xpow(bits - 1))};
}

#ifdef DCODE_HAVE_PCLMUL
const ChecksumKernels& pclmul_checksum_kernels();
#endif
#ifdef DCODE_HAVE_VPCLMULQDQ
const ChecksumKernels& vpclmul_checksum_kernels();
#endif

}  // namespace dcode::xorops::detail
