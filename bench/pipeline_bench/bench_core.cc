#include "bench_core.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/json.h"

namespace gva::bench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void MetricSink::PrintTable() const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-34s %18.6f %-8s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

std::string MetricSink::ResultJson(bool correct, const OpTally& tally) const {
  JsonValue metrics = JsonValue::Object();
  for (const Metric& m : metrics_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(m.value));
    entry.Set("unit", JsonValue::String(m.unit));
    metrics.Set(m.name, std::move(entry));
  }
  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(correct));
  result.Set("attempted",
             JsonValue::Number(static_cast<double>(tally.attempted)));
  result.Set("failed", JsonValue::Number(static_cast<double>(tally.failed)));
  result.Set("metrics", std::move(metrics));
  return result.Dump();
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void LayerClock::Record(Layer layer, Clock::time_point start, double elapsed) {
  seconds_[static_cast<size_t>(layer)] += elapsed;
  const double ago_us = SecondsSince(start) * 1e6;
  const double now_us = static_cast<double>(tracer_.NowMicros());
  tracer_.RecordComplete(kLayerNames[static_cast<size_t>(layer)].span, "bench",
                         static_cast<uint64_t>(std::max(0.0, now_us - ago_us)),
                         static_cast<uint64_t>(elapsed * 1e6));
}

}  // namespace gva::bench
