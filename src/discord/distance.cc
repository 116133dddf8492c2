#include "discord/distance.h"

#include <cmath>

#include "backend/backend.h"
#include "timeseries/sliding_window.h"
#include "timeseries/stats.h"
#include "util/check.h"

namespace gva {

double EuclideanDistance(std::span<const double> a,
                         std::span<const double> b) {
  GVA_CHECK_EQ(a.size(), b.size());
  double sum_sq = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum_sq += d * d;
  }
  return std::sqrt(sum_sq);
}

double ZNormEuclideanDistance(std::span<const double> a,
                              std::span<const double> b, double epsilon) {
  GVA_CHECK_EQ(a.size(), b.size());
  const double mean_a = Mean(a);
  const double sd_a = StdDev(a);
  const double mean_b = Mean(b);
  const double sd_b = StdDev(b);
  // Flat windows are only mean-centered; multiplying by exactly 1.0 keeps
  // the arithmetic identical to ZNormalize's centering-only branch.
  const double inv_a = sd_a < epsilon ? 1.0 : 1.0 / sd_a;
  const double inv_b = sd_b < epsilon ? 1.0 : 1.0 / sd_b;
  std::vector<double> za(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    za[i] = (a[i] - mean_a) * inv_a;
  }
  double sum_sq = 0.0;
  const bool completed = backend::ActiveBackend().znorm_distance_block(
      za.data(), b.data(), b.size(), mean_b, inv_b,
      SubsequenceDistance::kInfinity, &sum_sq);
  GVA_CHECK(completed);  // An infinite limit never abandons.
  return std::sqrt(sum_sq);
}

SubsequenceDistance::SubsequenceDistance(
    std::span<const double> series, double znorm_epsilon,
    const backend::KernelBackend* kernel_backend)
    : series_(series),
      epsilon_(znorm_epsilon),
      backend_(kernel_backend != nullptr ? kernel_backend
                                         : &backend::ActiveBackend()),
      stats_(series) {}

WindowStats SubsequenceDistance::StatsOf(size_t pos, size_t length) const {
  GVA_DCHECK(length > 0);
  GVA_DCHECK(pos + length <= series_.size());
  const RollingStats::Moments m = stats_.MomentsOf(pos, length);
  const double sd = std::sqrt(m.variance);
  return WindowStats{m.mean, sd < epsilon_ ? 1.0 : 1.0 / sd};
}

std::vector<WindowStats> SubsequenceDistance::StatsOfAllWindows(
    size_t length) const {
  std::vector<WindowStats> table(NumSlidingWindows(series_.size(), length));
  for (size_t p = 0; p < table.size(); ++p) {
    table[p] = StatsOf(p, length);
  }
  return table;
}

void DistanceScan::SetQuery(size_t p, size_t length, WindowStats stats) {
  GVA_DCHECK(p + length <= series_.size());
  query_.resize(length);
  const double* x = series_.data() + p;
  for (size_t i = 0; i < length; ++i) {
    query_[i] = (x[i] - stats.mean) * stats.inv_std;
  }
}

}  // namespace gva
