// 64-bit content checksums for the integrity sidecar.
//
// checksum64() is CRC-64/XZ: polynomial 0x42F0E1EBA9EA3693, reflected,
// init and xorout all-ones — the CRC that `xz --check=crc64` stores, so
// checksum64("123456789", 9) == 0x995DC9BBDF1939FA and any sidecar value
// can be audited with stock tools. `seed` is a zlib-style chaining value
// (the register starts at ~seed), so checksum64(b, nb, checksum64(a, na))
// is the CRC of a followed by b, and different seeds always give
// different values for the same bytes: the sidecar seeds each slot's
// self-checksum with its element index, so a slot written at the wrong
// element offset can never verify.
//
// The value is computed through the same runtime ISA dispatch as the XOR
// region kernels (xorops/isa.h): a slicing-by-8 table for kScalar,
// 4 x 128-bit PCLMULQDQ folding for kSse2/kAvx2 and 4 x 512-bit
// VPCLMULQDQ folding for kAvx512, each where the CPU has carry-less
// multiply (the table otherwise). Every backend is bit-identical — the
// values are persisted in FileDisk sidecars and must verify on a machine
// with a different active ISA — which tests/integrity_test.cc checks
// against a bitwise reference.
//
// As a CRC it detects every burst error up to 64 bits long.
#pragma once

#include <cstddef>
#include <cstdint>

#include "xorops/isa.h"

namespace dcode::xorops {

// CRC-64/XZ of data, chained from `seed`, dispatched through the active
// ISA.
uint64_t checksum64(const void* data, size_t len, uint64_t seed = 0);

// Same value computed with one specific backend — differential tests
// compare every supported backend bit-for-bit. Throws std::logic_error
// if the ISA is not available (like xor_kernels).
uint64_t checksum64_isa(Isa isa, const void* data, size_t len,
                        uint64_t seed = 0);

// The kernel checksum64_isa(isa, ...) runs on this CPU: "table",
// "pclmul" or "vpclmulqdq".
const char* checksum_kernel_name(Isa isa);

}  // namespace dcode::xorops
