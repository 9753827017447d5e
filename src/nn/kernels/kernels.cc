#include "nn/kernels/kernels.h"

#include "common/check.h"
#include "common/env.h"

namespace o2sr::nn::kernels {

#ifdef O2SR_HAVE_AVX2_TU
const KernelTable* Avx2TableImpl();  // defined in kernels_avx2.cc
#endif

namespace {

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Simd ResolveSimd() {
  // O2SR_SIMD's choices, in order: auto|avx2|scalar|off.
  const int choice = common::EnvChoice(common::Knob::kSimd);
#ifdef O2SR_HAVE_AVX2_TU
  if (choice == 0) return CpuHasAvx2() ? Simd::kAvx2 : Simd::kScalar;
  if (choice == 1) {
    O2SR_CHECK(CpuHasAvx2());  // forcing AVX2 on a CPU without it
    return Simd::kAvx2;
  }
#else
  O2SR_CHECK(choice != 1);  // this build has no AVX2 kernel TU
#endif
  return Simd::kScalar;
}

}  // namespace

Simd ActiveSimd() {
  static const Simd level = ResolveSimd();
  return level;
}

const char* SimdName(Simd level) {
  return level == Simd::kAvx2 ? "avx2" : "scalar";
}

const KernelTable* Avx2Table() {
#ifdef O2SR_HAVE_AVX2_TU
  return CpuHasAvx2() ? Avx2TableImpl() : nullptr;
#else
  return nullptr;
#endif
}

const KernelTable& Active() {
  static const KernelTable* table =
      ActiveSimd() == Simd::kAvx2 ? Avx2Table() : &ScalarTable();
  return *table;
}

}  // namespace o2sr::nn::kernels
