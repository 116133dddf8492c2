#ifndef GVA_BACKEND_DISTANCE_KERNEL_H_
#define GVA_BACKEND_DISTANCE_KERNEL_H_

// The z-normalized distance kernel: the one source of every backend's
// znorm_distance_block. backend_scalar.cc compiles it at the baseline ISA
// and backend_avx2.cc with -mavx2; on aarch64 the baseline build is NEON
// code. Internal to src/backend/: callers go through the KernelBackend
// table.
//
// Its summation order is the distance contract (DESIGN.md §11), so every
// build returns the same bits:
//   - In each kDistanceBlock = 16 element block, quarter k (elements
//     4k..4k+3) adds d*d into accumulator k, lane by lane, where
//     d = za - (b - mean_b) * inv_b. The multiply and the add stay
//     separate: the gva target is built with -ffp-contract=off, so no ISA
//     fuses them.
//   - The abandon check after each block and the final fold both compute
//     v = (acc0 + acc1) + (acc2 + acc3), then (v[0] + v[2]) + (v[1] + v[3]).
//   - The tail elements add left to right onto that sum.
// The kernel is one function body and no vector crosses a call by value:
// GCC warns (-Wpsabi) about that where the ISA's registers are narrower
// than the vector.

#include <cstddef>
#include <cstring>
#include <limits>

#include "backend/backend.h"

namespace gva::backend {
// Internal linkage: each including TU keeps its own copy, built at its own
// ISA, so the linker can never substitute one build for the other.
namespace {

/// Four doubles, lowered to whatever vector registers the ISA has.
typedef double Lanes4 __attribute__((vector_size(32)));

/// znorm_distance_block (backend.h) in the summation order above. A finite
/// limit is checked after every block and after the tail; the checks do
/// not touch the accumulators, so a limited call that completes returns
/// the unlimited call's bits.
inline bool ZNormDistanceKernel(const double* za, const double* b,
                                size_t length, double mean_b, double inv_b,
                                double limit_sq, double* sum_sq) {
  static_assert(kDistanceBlock == 16, "a block is four quarters of four");
  Lanes4 acc0 = {};
  Lanes4 acc1 = {};
  Lanes4 acc2 = {};
  Lanes4 acc3 = {};
  const auto quarter = [&](Lanes4& acc, size_t i) {
    Lanes4 va;
    Lanes4 vb;
    std::memcpy(&va, za + i, sizeof(va));
    std::memcpy(&vb, b + i, sizeof(vb));
    const Lanes4 d = va - (vb - mean_b) * inv_b;
    acc += d * d;
  };
  const auto fold = [&] {
    const Lanes4 v = (acc0 + acc1) + (acc2 + acc3);
    return (v[0] + v[2]) + (v[1] + v[3]);
  };

  // Squared terms are non-negative and round-to-nearest addition is
  // monotone, so the folded sum never decreases: a block check that trips
  // would also trip on the completed sum.
  const bool limited = limit_sq != std::numeric_limits<double>::infinity();
  size_t i = 0;
  for (; i + kDistanceBlock <= length; i += kDistanceBlock) {
    quarter(acc0, i);
    quarter(acc1, i + 4);
    quarter(acc2, i + 8);
    quarter(acc3, i + 12);
    if (limited && fold() >= limit_sq) {
      return false;
    }
  }
  double sum = fold();
  for (; i < length; ++i) {
    const double d = za[i] - (b[i] - mean_b) * inv_b;
    sum += d * d;
  }
  if (limited && sum >= limit_sq) {
    return false;
  }
  *sum_sq = sum;
  return true;
}

}  // namespace
}  // namespace gva::backend

#endif  // GVA_BACKEND_DISTANCE_KERNEL_H_
