#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/strings.h"

namespace gva::obs {

size_t HistogramBucketFor(double value) {
  if (!(value >= 1.0)) {  // negatives, NaN, and [0, 1) all land in bucket 0
    return 0;
  }
  // floor(log2(value)) + 1 without libm: count the exponent by halving.
  size_t bucket = 1;
  while (bucket < kHistogramBuckets - 1 && value >= 2.0) {
    value *= 0.5;
    ++bucket;
  }
  return bucket;
}

std::pair<double, double> HistogramBucketBounds(size_t i) {
  const double inf = std::numeric_limits<double>::infinity();
  if (i == 0) {
    return {0.0, 1.0};
  }
  const double lower = std::ldexp(1.0, static_cast<int>(i) - 1);
  if (i >= kHistogramBuckets - 1) {
    return {lower, inf};
  }
  return {lower, std::ldexp(1.0, static_cast<int>(i))};
}

double HistogramQuantile(
    const std::vector<std::pair<size_t, uint64_t>>& buckets, double q) {
  uint64_t total = 0;
  for (const auto& [index, count] : buckets) {
    total += count;
  }
  if (total == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // The sample of rank ceil(q * total) (1-based), i.e. the smallest value
  // v such that at least q of the mass is <= v's bucket.
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (const auto& [index, count] : buckets) {
    cumulative += count;
    if (static_cast<double>(cumulative) >= target) {
      const auto [lower, upper] = HistogramBucketBounds(index);
      if (std::isinf(upper)) {
        return lower;  // unbounded tail: the bound is the honest answer
      }
      // Linear interpolation: how far into this bucket's count the target
      // rank lands scales across the bucket's width.
      const double before =
          static_cast<double>(cumulative) - static_cast<double>(count);
      const double within =
          count > 0 ? (target - before) / static_cast<double>(count) : 0.0;
      return lower + (upper - lower) * std::clamp(within, 0.0, 1.0);
    }
  }
  return HistogramBucketBounds(buckets.back().first).second;
}

double HistogramQuantile(const MetricSample& sample, double q) {
  return HistogramQuantile(sample.histogram_buckets, q);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.counter_value = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.gauge_value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kHistogram;
    s.histogram_count = h->count();
    s.histogram_sum = h->sum();
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      const uint64_t n = h->bucket(i);
      if (n > 0) {
        s.histogram_buckets.emplace_back(i, n);
      }
    }
    out.push_back(std::move(s));
  }
  // The three maps are each sorted; a final sort merges them by name.
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::string MetricsRegistry::ToJson() const {
  const std::vector<MetricSample> samples = Snapshot();
  std::string json = "{\n  \"metrics\": {\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    json += StrFormat("    \"%s\": ", s.name.c_str());
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        json += StrFormat("%llu",
                          static_cast<unsigned long long>(s.counter_value));
        break;
      case MetricSample::Kind::kGauge:
        json += StrFormat("%lld", static_cast<long long>(s.gauge_value));
        break;
      case MetricSample::Kind::kHistogram: {
        json += StrFormat(
            "{\"count\": %llu, \"sum\": %.6f, \"buckets\": {",
            static_cast<unsigned long long>(s.histogram_count),
            s.histogram_sum);
        for (size_t b = 0; b < s.histogram_buckets.size(); ++b) {
          json += StrFormat(
              "%s\"%zu\": %llu", b == 0 ? "" : ", ",
              s.histogram_buckets[b].first,
              static_cast<unsigned long long>(s.histogram_buckets[b].second));
        }
        json += "}}";
        break;
      }
    }
    json += i + 1 < samples.size() ? ",\n" : "\n";
  }
  json += "  }\n}\n";
  return json;
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace gva::obs
