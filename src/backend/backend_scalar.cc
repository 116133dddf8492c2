// The portable reference backend: the blocked distance kernel over a
// pre-normalized query (discord/distance.h normalizes each scan's query
// once). Its strict left-to-right
// block-fold order defines the repo's bit-exactness contract — every other
// backend is validated against this one (bitwise where the table says
// bit_exact_distance, within tolerance otherwise; see DESIGN.md §11).

#include <cstddef>
#include <limits>

#include "backend/backend.h"

namespace gva::backend {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Writes the squared differences of the normalized query za[0..count)
/// and the z-normalized b[0..count) into out[0..count). Branch-free with
/// independent iterations, so the compiler can vectorize it under the
/// baseline ISA; the caller folds `out` into its running sum left-to-right,
/// which keeps the overall summation order identical to a plain scalar
/// loop's.
inline void SquaredDiffBlock(const double* za, const double* b,
                             size_t count, double mean_b, double inv_b,
                             double* out) {
  for (size_t i = 0; i < count; ++i) {
    const double vb = (b[i] - mean_b) * inv_b;
    const double d = za[i] - vb;
    out[i] = d * d;
  }
}

bool ScalarZNormDistanceBlock(const double* za, const double* b,
                              size_t length, double mean_b, double inv_b,
                              double limit_sq, double* sum_sq) {
  double block[kDistanceBlock];
  double sum = 0.0;
  size_t i = 0;

  if (limit_sq == kInf) {
    // Full-length fast path: no abandon checks at all.
    for (; i + kDistanceBlock <= length; i += kDistanceBlock) {
      SquaredDiffBlock(za + i, b + i, kDistanceBlock, mean_b, inv_b, block);
      for (size_t j = 0; j < kDistanceBlock; ++j) {
        sum += block[j];
      }
    }
    const size_t tail = length - i;
    SquaredDiffBlock(za + i, b + i, tail, mean_b, inv_b, block);
    for (size_t j = 0; j < tail; ++j) {
      sum += block[j];
    }
    *sum_sq = sum;
    return true;
  }

  // Abandoning path: the limit is checked once per block. The squared
  // terms are non-negative, so the running sum is monotone and the
  // block-granular check abandons exactly the calls a per-element check
  // would (possibly a few elements later).
  for (; i + kDistanceBlock <= length; i += kDistanceBlock) {
    SquaredDiffBlock(za + i, b + i, kDistanceBlock, mean_b, inv_b, block);
    for (size_t j = 0; j < kDistanceBlock; ++j) {
      sum += block[j];
    }
    if (sum >= limit_sq) {
      return false;
    }
  }
  const size_t tail = length - i;
  SquaredDiffBlock(za + i, b + i, tail, mean_b, inv_b, block);
  for (size_t j = 0; j < tail; ++j) {
    sum += block[j];
  }
  if (sum >= limit_sq) {
    return false;
  }
  *sum_sq = sum;
  return true;
}

}  // namespace

const KernelBackend* ScalarBackend() {
  static constexpr KernelBackend kTable{
      /*name=*/"scalar",
      /*id=*/BackendId::kScalar,
      /*lanes=*/1,
      /*bit_exact_distance=*/true,
      /*znorm_distance_block=*/&ScalarZNormDistanceBlock,
  };
  return &kTable;
}

}  // namespace gva::backend
