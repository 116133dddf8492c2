// AVX2+FMA backend. This is the only x86 translation unit compiled with
// -mavx2 -mfma (per-file, see src/CMakeLists.txt), so the rest of the tree
// stays baseline-ISA and the binary still runs on pre-AVX2 hardware — the
// table below is handed out only after a runtime cpuid check.
//
// The distance kernel accumulates into four independent 4-lane FMA
// accumulators (one per quarter of each 16-element block) instead of the
// scalar backend's strict left-to-right fold. That breaks the serial
// FP-add dependency chain that bounds the scalar kernel — the whole point
// of this backend — at the cost of a different (fixed, deterministic)
// summation order: results differ from scalar by rounding noise only and
// are tolerance-tested, the one documented exception to the bit-exactness
// contract (DESIGN.md §11). The full-length and abandoning paths share the
// same accumulator structure, fold order, and scalar tail, so within this
// backend a non-abandoned limited call returns the same bits as the
// unlimited call, and results are reproducible across runs and thread
// counts. The per-16-block abandon check folds the current accumulators
// without disturbing them; squared terms are non-negative and
// round-to-nearest addition is monotone, so the folded running sum is
// monotone and block-granular abandoning stays conservative-exact with
// respect to this backend's own completed sums.

#if defined(GVA_BACKEND_AVX2)

#include <immintrin.h>

#include <cstddef>
#include <limits>

#include "backend/backend.h"

namespace gva::backend {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Folds the four accumulators in a fixed order: lane-wise
/// (acc0 + acc1) + (acc2 + acc3), then (low128 + high128), then the two
/// remaining lanes. Every completed-sum and abandon-check fold uses this
/// exact order, which is what makes results within this backend
/// deterministic.
inline double FoldSum(__m256d acc0, __m256d acc1, __m256d acc2,
                      __m256d acc3) {
  const __m256d v =
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  const __m128d swap = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swap));
}

/// One 4-lane quarter of a block: acc += (za - (b-mb)*ib)^2.
inline __m256d Quarter(const double* za, const double* b, __m256d mb,
                       __m256d ib, __m256d acc) {
  const __m256d vb = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(b), mb), ib);
  const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(za), vb);
  return _mm256_fmadd_pd(d, d, acc);
}

bool Avx2ZNormDistanceBlock(const double* za, const double* b,
                            size_t length, double mean_b, double inv_b,
                            double limit_sq, double* sum_sq) {
  const __m256d mb = _mm256_set1_pd(mean_b);
  const __m256d ib = _mm256_set1_pd(inv_b);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
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

  // Scalar tail (identical in both paths; lengths < kDistanceBlock never
  // enter the vector loop, so they are bit-identical to the scalar
  // backend). Folding the accumulators before the tail keeps the tail
  // contributions in the same left-to-right order as scalar.
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

}  // namespace

const KernelBackend* Avx2Backend() {
  // Runtime gate: the TU is compiled with AVX2 enabled, but the binary may
  // run on an older CPU. Never hand out a table the host cannot execute.
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
    return nullptr;
  }
  static constexpr KernelBackend kTable{
      /*name=*/"avx2",
      /*id=*/BackendId::kAvx2,
      /*lanes=*/4,
      /*bit_exact_distance=*/false,
      /*znorm_distance_block=*/&Avx2ZNormDistanceBlock,
  };
  return &kTable;
}

}  // namespace gva::backend

#endif  // GVA_BACKEND_AVX2
