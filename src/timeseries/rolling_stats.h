#ifndef GVA_TIMESERIES_ROLLING_STATS_H_
#define GVA_TIMESERIES_ROLLING_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace gva {

/// Safety factor applied on top of the machine epsilon in prefix-sum range
/// error bounds. The dominant term of a prefix-difference's divergence from
/// a naive range sum is one rounding of the larger prefix value
/// (eps * |prefix|); the accumulated rounding of both summations adds a
/// term that grows like sqrt(n) in practice. 4096 covers both with two
/// orders of magnitude to spare for every series this library targets
/// (|values| <= 1e9, n <= 1e8); the cost of being generous is only an
/// occasional fallback to the O(w) reference path in the SAX kernel.
/// Shared by RollingStats and the online prefix rings in
/// `sax/sax_transform.h` so both layers guard with identical bounds.
inline constexpr double kRangeSumErrFactor =
    4096.0 * std::numeric_limits<double>::epsilon();

/// The range-sum error bound from the magnitudes `lo` and `hi` of the two
/// prefix values a range sum cancels: kRangeSumErrFactor *
/// std::max({1.0, lo, hi}), spelled as the two selects std::max makes
/// (a NaN magnitude is skipped) so that vectorized loops can evaluate it.
inline double PrefixRangeErrorBound(double lo, double hi) {
  double m = 1.0 < lo ? lo : 1.0;
  m = m < hi ? hi : m;
  return kRangeSumErrFactor * m;
}

/// Prefix-sum accelerator for per-window statistics over one series: after
/// an O(n) build, the sum, sum of squares, mean, and (population) variance
/// of any contiguous range cost O(1). This is the shared substrate of the
/// two hot kernels — sliding-window SAX discretization
/// (`sax/sax_transform.cc`) and the subsequence distance oracle
/// (`discord/distance.h`) — so both see the *same* floating-point values
/// for a given range.
///
/// Numerical contract: the prefix arrays are built by plain sequential
/// accumulation (no compensation, no reassociation), which keeps the
/// derived range sums bit-stable across builds and thread counts. A range
/// sum obtained as `prefix[p+len] - prefix[p]`, however, differs from the
/// naive left-to-right sum of the same range by rounding noise on the
/// order of eps * |prefix| — callers that must agree bit-for-bit with a
/// naively-summed reference (the SAX kernel) guard their decisions with
/// `RangeSumErrorBound()` and fall back to the reference when a decision
/// falls inside the bound.
class RollingStats {
 public:
  /// Builds the prefix arrays in one sequential pass. The span is only
  /// read during construction; it need not outlive the object.
  explicit RollingStats(std::span<const double> values);

  size_t size() const { return n_; }

  /// Sum over [pos, pos + len).
  double Sum(size_t pos, size_t len) const {
    return prefix_[pos + len] - prefix_[pos];
  }

  /// Sum of squares over [pos, pos + len).
  double SumSq(size_t pos, size_t len) const {
    return prefix_sq_[pos + len] - prefix_sq_[pos];
  }

  /// Mean and population variance of [pos, pos + len); the variance is
  /// clamped at zero (the one-pass identity sum_sq/n - mean^2 can go
  /// slightly negative on near-constant ranges).
  struct Moments {
    double mean;
    double variance;
  };
  Moments MomentsOf(size_t pos, size_t len) const;

  /// Conservative bound on |Sum(pos, len) - naive left-to-right sum of the
  /// same range|: rounding noise proportional to the magnitude of the
  /// prefix values the difference cancels, with a generous factor for the
  /// accumulation error both summations carry. The SAX kernel applies the
  /// same bound (PrefixRangeErrorBound) to decide when a prefix-derived
  /// value is too close to a discretization breakpoint to trust.
  double RangeSumErrorBound(size_t pos, size_t len) const {
    return PrefixRangeErrorBound(std::abs(prefix_[pos]),
                                 std::abs(prefix_[pos + len]));
  }

  /// Same bound for SumSq(pos, len).
  double RangeSumSqErrorBound(size_t pos, size_t len) const {
    return PrefixRangeErrorBound(prefix_sq_[pos], prefix_sq_[pos + len]);
  }

  /// The prefix arrays themselves, size() + 1 entries each (entry i sums
  /// values [0, i)), for kernels that sweep many ranges in one loop.
  const double* prefix_data() const { return prefix_.data(); }
  const double* prefix_sq_data() const { return prefix_sq_.data(); }

 private:
  size_t n_;
  std::vector<double> prefix_;     // prefix_[i] = values[0] + ... + values[i-1]
  std::vector<double> prefix_sq_;  // sums of squares
};

}  // namespace gva

#endif  // GVA_TIMESERIES_ROLLING_STATS_H_
