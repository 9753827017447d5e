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

std::vector<KernelInfo> Registry() {
  const char* simd = SimdName(ActiveSimd());
  std::vector<KernelInfo> infos;
  for (const char* name :
       {"nn.matmul", "nn.matmul_ta", "nn.matmul_tb", "nn.add", "nn.sub",
        "nn.mul", "nn.scale", "nn.acc_add", "nn.acc_sub", "nn.acc_scale",
        "nn.acc_mul", "nn.acc_const", "nn.relu", "nn.leaky_relu",
        "nn.acc_relu_bwd", "nn.acc_leaky_bwd", "nn.acc_sigmoid_bwd",
        "nn.acc_tanh_bwd", "nn.add_row_broadcast", "nn.mul_col_broadcast",
        "nn.acc_mul_col_bwd_x", "nn.acc_rowwise_dot_bwd",
        "nn.linear_act"}) {
    infos.push_back({name, simd});
  }
  for (const char* name :
       {"nn.sigmoid", "nn.tanh", "nn.softmax_rows", "nn.softmax_rows_bwd",
        "nn.rowwise_dot", "nn.col_sum_acc", "nn.mul_col_bwd_col",
        "nn.gather_rows", "nn.gather_rows_bwd", "nn.segment_sum",
        "nn.segment_sum_bwd", "nn.segment_mean", "nn.segment_mean_bwd",
        "nn.segment_softmax", "nn.segment_softmax_bwd",
        "nn.mul_col_segment_sum", "nn.mse", "nn.mse_bwd", "nn.mae",
        "nn.mae_bwd"}) {
    infos.push_back({name, "scalar"});
  }
  return infos;
}

}  // namespace o2sr::nn::kernels
