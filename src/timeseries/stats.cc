#include "timeseries/stats.h"

#include <cmath>
#include <limits>

namespace gva {

double Mean(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double Variance(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const double mean = Mean(values);
  double sum_sq = 0.0;
  for (double v : values) {
    const double d = v - mean;
    sum_sq += d * d;
  }
  return sum_sq / static_cast<double>(values.size());
}

double StdDev(std::span<const double> values) {
  return std::sqrt(Variance(values));
}

double Min(std::span<const double> values) {
  double result = std::numeric_limits<double>::infinity();
  for (double v : values) {
    if (v < result) {
      result = v;
    }
  }
  return result;
}

double Max(std::span<const double> values) {
  double result = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    if (v > result) {
      result = v;
    }
  }
  return result;
}

}  // namespace gva
