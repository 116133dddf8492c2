#include "timeseries/rolling_stats.h"

#include "util/check.h"

namespace gva {

RollingStats::RollingStats(std::span<const double> values)
    : n_(values.size()) {
  prefix_.resize(n_ + 1);
  prefix_sq_.resize(n_ + 1);
  prefix_[0] = 0.0;
  prefix_sq_[0] = 0.0;
  for (size_t i = 0; i < n_; ++i) {
    prefix_[i + 1] = prefix_[i] + values[i];
    prefix_sq_[i + 1] = prefix_sq_[i] + values[i] * values[i];
  }
}

RollingStats::Moments RollingStats::MomentsOf(size_t pos, size_t len) const {
  GVA_DCHECK(len > 0);
  GVA_DCHECK(pos + len <= n_);
  const double n = static_cast<double>(len);
  const double mean = Sum(pos, len) / n;
  double variance = SumSq(pos, len) / n - mean * mean;
  if (variance < 0.0) {  // numerical noise on near-constant ranges
    variance = 0.0;
  }
  return Moments{mean, variance};
}

}  // namespace gva
