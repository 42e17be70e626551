// Runtime CPU feature detection for the SIMD kernel backends.
//
// Detection happens once (thread-safe, on first use) and answers only the
// questions the dispatch layer asks: which vector ISAs can this CPU
// execute. Compile-time availability (was a backend built into this
// binary at all) is a separate axis handled by the DCODE_HAVE_ISA_*
// macros in the build system; see xorops/isa.h for the combined view.
#pragma once

namespace dcode::util {

struct CpuFeatures {
  bool sse2 = false;
  bool ssse3 = false;  // PSHUFB — required by the GF split-table kernels
  bool avx2 = false;
  // F + BW + VL together: 512-bit byte shuffles/XORs on ordinary
  // registers, which is what the kernels actually emit.
  bool avx512 = false;
  // Carry-less multiply: PCLMULQDQ on 128-bit registers, VPCLMULQDQ on
  // 256/512-bit ones — the CRC-64 folding kernels behind checksum64().
  bool pclmul = false;
  bool vpclmulqdq = false;
};

// Detected once per process; non-x86 builds report everything false.
const CpuFeatures& cpu_features();

}  // namespace dcode::util
