#include "core/rule_density_detector.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/strings.h"

namespace gva {

Status DensityAnomalyOptions::Validate() const {
  // Written as a negated membership test so NaN (every comparison false)
  // is rejected too.
  if (!(threshold_fraction >= 0.0 && threshold_fraction <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("threshold_fraction must be in [0, 1], got %g",
                  threshold_fraction));
  }
  return Status::Ok();
}

template <typename T>
std::vector<LowRun<T>> FindLowRuns(std::span<const T> curve, size_t window,
                                   const DensityAnomalyOptions& options) {
  std::vector<LowRun<T>> runs;
  size_t lo = 0;
  size_t hi = curve.size();
  if (curve.size() > 2 * window) {
    lo = window;
    hi = curve.size() - window;
  }
  if (lo >= hi) {
    return runs;
  }

  T min_v = curve[lo];
  T max_v = curve[lo];
  for (size_t i = lo; i < hi; ++i) {
    min_v = std::min(min_v, curve[i]);
    max_v = std::max(max_v, curve[i]);
  }
  const double threshold =
      static_cast<double>(min_v) +
      options.threshold_fraction * static_cast<double>(max_v - min_v);

  // Collect maximal runs with value <= threshold. A run is never empty, so
  // the scan always advances, even on a NaN threshold (which Validate()
  // rejects, but these functions are also called without it).
  size_t i = lo;
  while (i < hi) {
    size_t j = i;
    T run_min = curve[i];
    double run_sum = 0.0;
    while (j < hi && static_cast<double>(curve[j]) <= threshold) {
      run_min = std::min(run_min, curve[j]);
      run_sum += curve[j];
      ++j;
    }
    if (j == i) {
      ++i;
      continue;
    }
    runs.push_back(LowRun<T>{Interval{i, j}, run_min,
                             run_sum / static_cast<double>(j - i)});
    i = j;
  }

  std::stable_sort(runs.begin(), runs.end(),
                   [](const LowRun<T>& a, const LowRun<T>& b) {
                     if (a.mean != b.mean) {
                       return a.mean < b.mean;
                     }
                     return a.span.length() > b.span.length();
                   });
  if (runs.size() > options.max_anomalies) {
    runs.resize(options.max_anomalies);
  }
  return runs;
}

template std::vector<LowRun<uint32_t>> FindLowRuns(
    std::span<const uint32_t>, size_t, const DensityAnomalyOptions&);
template std::vector<LowRun<double>> FindLowRuns(
    std::span<const double>, size_t, const DensityAnomalyOptions&);

std::vector<DensityAnomaly> FindLowDensityIntervals(
    const std::vector<uint32_t>& density, size_t window,
    const DensityAnomalyOptions& options) {
  std::vector<DensityAnomaly> anomalies;
  for (const LowRun<uint32_t>& run :
       FindLowRuns<uint32_t>(density, window, options)) {
    anomalies.push_back(
        DensityAnomaly{run.span, run.min, run.mean, anomalies.size()});
  }
  return anomalies;
}

StatusOr<DensityDetection> DetectDensityAnomalies(
    std::span<const double> series, const SaxOptions& sax,
    const DensityAnomalyOptions& options) {
  GVA_RETURN_IF_ERROR(options.Validate());
  DensityDetection result;
  GVA_ASSIGN_OR_RETURN(result.decomposition, DecomposeSeries(series, sax));
  result.anomalies = FindLowDensityIntervals(result.decomposition.density,
                                             sax.window, options);
  return result;
}

}  // namespace gva
