#include "xorops/checksum.h"

#include <array>
#include <bit>
#include <cstring>

#include "util/check.h"
#include "util/cpu.h"
#include "xorops/checksum_backend.h"

namespace dcode::xorops {
namespace {

using SliceTable = std::array<std::array<uint64_t, 256>, 8>;

// Slicing-by-8 tables, derived from the polynomial at compile time:
// t[0][b] advances the reflected register over the byte b, t[k][b] over b
// followed by k zero bytes.
constexpr SliceTable make_slice_table() {
  constexpr uint64_t kReflected = detail::reflect64(detail::kCrc64Poly);
  SliceTable t{};
  for (uint64_t b = 0; b < 256; ++b) {
    uint64_t c = b;
    for (int i = 0; i < 8; ++i) c = (c >> 1) ^ ((c & 1) != 0 ? kReflected : 0);
    t[0][b] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t b = 0; b < 256; ++b) {
      const uint64_t prev = t[k - 1][b];
      t[k][b] = (prev >> 8) ^ t[0][prev & 0xFF];
    }
  }
  return t;
}

constexpr SliceTable kSlice = make_slice_table();

inline uint64_t load64_le(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

const detail::ChecksumKernels& table_kernels() {
  static constexpr detail::ChecksumKernels k = {"table",
                                                detail::crc64_table_update};
  return k;
}

// The backend the public entry point uses, resolved on first call.
const detail::ChecksumKernels& active() {
  static const detail::ChecksumKernels& k =
      detail::checksum_kernels(active_isa());
  return k;
}

}  // namespace

namespace detail {

uint64_t crc64_table_update(uint64_t crc, const uint8_t* p, size_t n) {
  const SliceTable& t = kSlice;
  for (; n >= 8; p += 8, n -= 8) {
    crc ^= load64_le(p);
    crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
          t[5][(crc >> 16) & 0xFF] ^ t[4][(crc >> 24) & 0xFF] ^
          t[3][(crc >> 32) & 0xFF] ^ t[2][(crc >> 40) & 0xFF] ^
          t[1][(crc >> 48) & 0xFF] ^ t[0][crc >> 56];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc;
}

const ChecksumKernels& checksum_kernels(Isa isa) {
  DCODE_CHECK(isa_supported(isa), "requested ISA backend is not available");
  [[maybe_unused]] const util::CpuFeatures& cpu = util::cpu_features();
  switch (isa) {
    case Isa::kAvx512:
#ifdef DCODE_HAVE_VPCLMULQDQ
      if (cpu.vpclmulqdq) return vpclmul_checksum_kernels();
#endif
      [[fallthrough]];
    case Isa::kAvx2:
    case Isa::kSse2:
#ifdef DCODE_HAVE_PCLMUL
      if (cpu.pclmul) return pclmul_checksum_kernels();
#endif
      [[fallthrough]];
    case Isa::kScalar:
      break;
  }
  return table_kernels();
}

}  // namespace detail

uint64_t checksum64(const void* data, size_t len, uint64_t seed) {
  return ~active().update(~seed, static_cast<const uint8_t*>(data), len);
}

uint64_t checksum64_isa(Isa isa, const void* data, size_t len, uint64_t seed) {
  return ~detail::checksum_kernels(isa).update(
      ~seed, static_cast<const uint8_t*>(data), len);
}

const char* checksum_kernel_name(Isa isa) {
  return detail::checksum_kernels(isa).name;
}

}  // namespace dcode::xorops
