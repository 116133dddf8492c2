// NEON (aarch64) backend. ASIMD with double-precision lanes is mandatory
// on AArch64, so the only runtime gate is a hwcap sanity check on Linux.
// Structure mirrors the AVX2 backend at half the lane width: four
// independent 2-lane FMA accumulators, one per quarter of each 16-element
// block (two fused multiply-adds per quarter), a fixed fold order, and a
// scalar tail shared by the full-length and abandoning paths. Like AVX2,
// the lane-parallel accumulation is the documented tolerance-bounded
// exception to the scalar bit-exactness contract (DESIGN.md §11).

#if defined(GVA_BACKEND_NEON)

#include <arm_neon.h>

#include <cstddef>
#include <limits>

#if defined(__linux__)
#include <sys/auxv.h>
#endif

#include "backend/backend.h"

namespace gva::backend {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fixed fold order: lane-wise (acc0 + acc1) + (acc2 + acc3), then
/// lane 0 + lane 1.
inline double FoldSum(float64x2_t acc0, float64x2_t acc1, float64x2_t acc2,
                      float64x2_t acc3) {
  const float64x2_t v =
      vaddq_f64(vaddq_f64(acc0, acc1), vaddq_f64(acc2, acc3));
  return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1);
}

/// One 4-element quarter of a block as two 2-lane fused multiply-adds:
/// acc += (za - (b-mb)*ib)^2.
inline float64x2_t Quarter(const double* za, const double* b,
                           float64x2_t mb, float64x2_t ib, float64x2_t acc) {
  const float64x2_t vb0 = vmulq_f64(vsubq_f64(vld1q_f64(b), mb), ib);
  const float64x2_t d0 = vsubq_f64(vld1q_f64(za), vb0);
  acc = vfmaq_f64(acc, d0, d0);
  const float64x2_t vb1 = vmulq_f64(vsubq_f64(vld1q_f64(b + 2), mb), ib);
  const float64x2_t d1 = vsubq_f64(vld1q_f64(za + 2), vb1);
  return vfmaq_f64(acc, d1, d1);
}

bool NeonZNormDistanceBlock(const double* za, const double* b,
                            size_t length, double mean_b, double inv_b,
                            double limit_sq, double* sum_sq) {
  const float64x2_t mb = vdupq_n_f64(mean_b);
  const float64x2_t ib = vdupq_n_f64(inv_b);
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0);
  float64x2_t acc3 = vdupq_n_f64(0.0);
  size_t i = 0;

  if (limit_sq == kInf) {
    for (; i + kDistanceBlock <= length; i += kDistanceBlock) {
      acc0 = Quarter(za + i, b + i, mb, ib, acc0);
      acc1 = Quarter(za + i + 4, b + i + 4, mb, ib, acc1);
      acc2 = Quarter(za + i + 8, b + i + 8, mb, ib, acc2);
      acc3 = Quarter(za + i + 12, b + i + 12, mb, ib, acc3);
    }
  } else {
    for (; i + kDistanceBlock <= length; i += kDistanceBlock) {
      acc0 = Quarter(za + i, b + i, mb, ib, acc0);
      acc1 = Quarter(za + i + 4, b + i + 4, mb, ib, acc1);
      acc2 = Quarter(za + i + 8, b + i + 8, mb, ib, acc2);
      acc3 = Quarter(za + i + 12, b + i + 12, mb, ib, acc3);
      if (FoldSum(acc0, acc1, acc2, acc3) >= limit_sq) {
        return false;
      }
    }
  }

  // Scalar tail, identical in both paths; lengths < kDistanceBlock never
  // enter the vector loop and are bit-identical to the scalar backend.
  double sum = FoldSum(acc0, acc1, acc2, acc3);
  for (; i < length; ++i) {
    const double vb = (b[i] - mean_b) * inv_b;
    const double d = za[i] - vb;
    sum += d * d;
  }
  if (limit_sq != kInf && sum >= limit_sq) {
    return false;
  }
  *sum_sq = sum;
  return true;
}

bool NeonAvailable() {
#if defined(__linux__) && defined(HWCAP_ASIMD)
  return (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#else
  // ASIMD is architecturally mandatory on AArch64.
  return true;
#endif
}

}  // namespace

const KernelBackend* NeonBackend() {
  if (!NeonAvailable()) {
    return nullptr;
  }
  static constexpr KernelBackend kTable{
      /*name=*/"neon",
      /*id=*/BackendId::kNeon,
      /*lanes=*/2,
      /*bit_exact_distance=*/false,
      /*znorm_distance_block=*/&NeonZNormDistanceBlock,
  };
  return &kTable;
}

}  // namespace gva::backend

#endif  // GVA_BACKEND_NEON
