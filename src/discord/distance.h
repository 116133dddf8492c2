#ifndef GVA_DISCORD_DISTANCE_H_
#define GVA_DISCORD_DISTANCE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "backend/backend.h"
#include "timeseries/rolling_stats.h"
#include "timeseries/znorm.h"
#include "util/check.h"

namespace gva {

/// Plain Euclidean distance between equal-length vectors.
double EuclideanDistance(std::span<const double> a, std::span<const double> b);

/// Euclidean distance between the z-normalized forms of `a` and `b`. The
/// arithmetic — mean, standard deviation, flat-window centering,
/// per-element normalize-subtract-square — is the ZNormalize +
/// EuclideanDistance composition, summed in the distance kernel's order
/// (DESIGN.md §11): the same bits under every backend, within rounding of
/// the composition's left-to-right sum. Convenience wrapper used by tests
/// and diagnostics; the searches scan through DistanceScan.
double ZNormEuclideanDistance(std::span<const double> a,
                              std::span<const double> b,
                              double epsilon = kDefaultZNormEpsilon);

/// What the kernel needs to z-normalize one window.
struct WindowStats {
  double mean;
  double inv_std;  // 1/std, or 1.0 for flat windows (mean-centering only)
};

/// Distance calls counted by one thread of a search: plain counters, no
/// atomics. The paper's Table 1 compares algorithms by "number of calls to
/// the distance function"; every call — abandoned or not — increments
/// exactly one of the two fields, and their ratio measures pruning. A
/// parallel search gives each chunk its own tally and sums them after the
/// round's join, so the totals are exact for any thread count without a
/// shared read-modify-write per call. Because the split is an algorithm
/// output, it is counted in every build, -DGVA_OBS=OFF included.
struct CallTally {
  /// Scans that ran to the end and returned a real distance.
  uint64_t completed = 0;
  /// Scans the abandon limit cut short (returned kInfinity).
  uint64_t abandoned = 0;

  uint64_t calls() const { return completed + abandoned; }

  CallTally& operator+=(const CallTally& other) {
    completed += other.completed;
    abandoned += other.abandoned;
    return *this;
  }
};

/// Distance oracle over one time series: the series, the flat-window
/// epsilon, the kernel backend, and the RollingStats prefix-sum table that
/// gives any window's mean and standard deviation in O(1). Distance calls
/// are made through a DistanceScan, which z-normalizes its query window
/// once and counts its calls.
///
/// Kernel structure (see DESIGN.md §5c and §11): the fused pass runs
/// through a backend::KernelBackend table selected at construction
/// (defaulting to the process-wide active backend — scalar or AVX2). Every
/// backend builds the one kernel of backend/distance_kernel.h, which checks
/// the abandon limit once per kBlock elements plus once after the tail;
/// squared terms are non-negative and the running sum is monotone, so
/// block-granular checking abandons exactly the calls a per-element check
/// of the same sums would. Its summation order is fixed, so results —
/// values and abandon decisions both — are the same bits across runs,
/// thread counts, limited-vs-unlimited paths and backends.
///
/// Thread safety: immutable after construction, so any number of threads
/// may scan one oracle at once, each through its own DistanceScan.
class SubsequenceDistance {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// Elements per abandon-check block. Wide enough to amortize the limit
  /// check and fill SIMD lanes, small enough that an abandoned call does
  /// at most kBlock - 1 elements of extra work versus a per-element check.
  static constexpr size_t kBlock = backend::kDistanceBlock;

  /// `kernel_backend` selects the kernel build; null means the
  /// process-wide backend::ActiveBackend() (the CPU's first choice).
  explicit SubsequenceDistance(
      std::span<const double> series,
      double znorm_epsilon = kDefaultZNormEpsilon,
      const backend::KernelBackend* kernel_backend = nullptr);

  /// Mean and 1/std of [pos, pos + length), from the prefix sums.
  WindowStats StatsOf(size_t pos, size_t length) const;

  /// StatsOf(p, length) for every window start p, in one pass: the table
  /// a fixed-length search computes once instead of once per call.
  std::vector<WindowStats> StatsOfAllWindows(size_t length) const;

  size_t series_length() const { return series_.size(); }

 private:
  friend class DistanceScan;

  std::span<const double> series_;
  double epsilon_;
  const backend::KernelBackend* backend_;
  RollingStats stats_;
};

/// One thread's nearest-neighbor scans over a shared oracle. SetQuery
/// z-normalizes the candidate window once — (x - mean) * inv_std, the
/// expression the kernel applies to the other window — so each Distance()
/// call pays only for the backend kernel and one increment of this scan's
/// own tally. Not thread-safe: each chunk of a parallel search owns one.
class DistanceScan {
 public:
  explicit DistanceScan(const SubsequenceDistance& oracle)
      : series_(oracle.series_),
        kernel_(oracle.backend_->znorm_distance_block) {}

  /// Makes [p, p + length) the query; `stats` must be its StatsOf.
  void SetQuery(size_t p, size_t length, WindowStats stats);

  /// Euclidean distance between the z-normalized query and the
  /// z-normalized window [q, q + length), where `stats_q` is that window's
  /// StatsOf. If the running squared sum proves the distance >= `limit`,
  /// returns kInfinity (early abandon). Counted as one call either way.
  double Distance(size_t q, WindowStats stats_q,
                  double limit = SubsequenceDistance::kInfinity) {
    // kInfinity squared is kInfinity, so an unlimited call reaches the
    // backend's check-free full-length path without a special case here.
    const double limit_sq = limit == SubsequenceDistance::kInfinity
                                ? SubsequenceDistance::kInfinity
                                : limit * limit;
    GVA_DCHECK(q + query_.size() <= series_.size());
    double sum_sq = 0.0;
    if (!kernel_(query_.data(), series_.data() + q, query_.size(),
                 stats_q.mean, stats_q.inv_std, limit_sq, &sum_sq)) {
      ++tally_.abandoned;
      return SubsequenceDistance::kInfinity;
    }
    ++tally_.completed;
    return std::sqrt(sum_sq);
  }

  /// The calls this scan has made so far.
  const CallTally& tally() const { return tally_; }

 private:
  std::span<const double> series_;
  decltype(backend::KernelBackend::znorm_distance_block) kernel_;
  std::vector<double> query_;
  CallTally tally_;
};

}  // namespace gva

#endif  // GVA_DISCORD_DISTANCE_H_
