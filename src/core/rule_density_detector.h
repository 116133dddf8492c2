#ifndef GVA_CORE_RULE_DENSITY_DETECTOR_H_
#define GVA_CORE_RULE_DENSITY_DETECTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "timeseries/interval.h"
#include "util/statusor.h"

namespace gva {

/// Options for the rule density-based anomaly discovery (paper Section 4.1).
/// The extraction rule itself is fixed: every maximal run at or below the
/// threshold is reported, away from the first and last `window` points of
/// the curve, which ramp down at the series boundaries simply because
/// fewer windows cover them.
struct DensityAnomalyOptions {
  /// Density threshold as a fraction of the curve's range:
  /// threshold = min + fraction * (max - min). 0 keeps strictly the global
  /// minima; the paper's "given a fixed threshold, it simply reports
  /// contiguous points whose density is less than the threshold value".
  double threshold_fraction = 0.0;
  /// Keep at most this many anomalies (ranked by mean density ascending).
  /// 0 is allowed and reports nothing (callers use it as "count only").
  size_t max_anomalies = 10;

  /// Validates ranges: threshold_fraction must lie in [0, 1] (NaN
  /// rejected). Checked by the batch detector, the streaming monitor and
  /// the ensemble: an out-of-range value would produce a nonsense report.
  Status Validate() const;
};

/// One low-density interval reported as a (putative) anomaly.
struct DensityAnomaly {
  Interval span;
  /// Smallest density value inside the interval.
  uint32_t min_density = 0;
  /// Mean density inside the interval — the ranking key (lower = more
  /// anomalous).
  double mean_density = 0.0;
  /// 0 = most anomalous.
  size_t rank = 0;
};

/// Full detection output: the curve itself plus the ranked anomalies.
struct DensityDetection {
  GrammarDecomposition decomposition;
  std::vector<DensityAnomaly> anomalies;
};

/// Runs the rule density-based anomaly discovery: decompose, build the
/// density curve, and report the lowest-density intervals. Linear time and
/// space in the series length (paper Section 4.1).
StatusOr<DensityDetection> DetectDensityAnomalies(
    std::span<const double> series, const SaxOptions& sax,
    const DensityAnomalyOptions& options = {});

/// The anomaly-extraction step alone, for callers that already have a
/// density curve. `window` is only used for edge exclusion: the first and
/// last `window` points are skipped when the curve is longer than
/// 2 * window (so 0 means no exclusion).
std::vector<DensityAnomaly> FindLowDensityIntervals(
    const std::vector<uint32_t>& density, size_t window,
    const DensityAnomalyOptions& options);

/// One maximal run of a curve at or below the extraction threshold.
template <typename T>
struct LowRun {
  Interval span;
  /// Smallest curve value inside the run.
  T min = 0;
  /// Mean curve value inside the run.
  double mean = 0.0;
};

/// The extraction rule FindLowDensityIntervals and the ensemble's
/// FindLowScoreIntervals share: over the edge-excluded range (as above),
/// threshold at min + threshold_fraction * (max - min), collect the maximal
/// runs at or below it, rank them by mean ascending with longer runs first
/// on ties, and keep the first max_anomalies. Defined for uint32_t (rule
/// density) and double (ensemble score) curves.
template <typename T>
std::vector<LowRun<T>> FindLowRuns(std::span<const T> curve, size_t window,
                                   const DensityAnomalyOptions& options);

}  // namespace gva

#endif  // GVA_CORE_RULE_DENSITY_DETECTOR_H_
