#include "util/cpu.h"

namespace dcode::util {
namespace {

CpuFeatures detect() {
  CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  f.sse2 = __builtin_cpu_supports("sse2");
  f.ssse3 = __builtin_cpu_supports("ssse3");
  f.avx2 = __builtin_cpu_supports("avx2");
  f.avx512 = __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl");
  f.pclmul = __builtin_cpu_supports("pclmul");
  f.vpclmulqdq = __builtin_cpu_supports("vpclmulqdq");
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect();
  return f;
}

}  // namespace dcode::util
