#ifndef GVA_BENCH_PIPELINE_BENCH_BENCH_CORE_H_
#define GVA_BENCH_PIPELINE_BENCH_BENCH_CORE_H_

// Shared plumbing of pipeline_bench: the run context, wall-clock helpers,
// order statistics, the metric sink that prints every metric by name with
// its unit and sample count, and the bench-owned layer spans the traced run
// records around calls into each library layer.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace gva::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Everything a workload needs from the command line.
struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string serverd_path;
  std::string trace_out;
};

/// Operations a run attempted and how many of them failed (an error status,
/// a non-2xx answer, or a result that differs from the checked reference).
struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
    }
  }
};

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// Collects a run's metrics in the order they were added.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics_.push_back(Metric{name, value, unit, samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// One human-readable line per metric: name, value, unit, sample count.
  void PrintTable() const;

  /// The single-line JSON result every run ends with.
  std::string ResultJson(bool correct, const OpTally& tally) const;

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set of this process so far, in MiB.
double PeakRssMib();

/// The layers the traced run attributes time to, named after the library
/// modules the wrapped calls belong to.
enum class Layer {
  kSax,           // src/sax: z-norm, PAA, SAX words, numerosity reduction
  kGrammar,       // src/grammar Sequitur
  kIntervals,     // rule -> series interval mapping and the density curve
  kDetect,        // src/core interval extraction, ensemble aggregation
  kDiscord,       // discord search, including RRA candidate assembly
  kStreamPush,    // StreamingAnomalyMonitor::Push
  kStreamReport,  // StreamingAnomalyMonitor::Report
  kServer,        // serverd: HTTP, JSON, queueing and polling around a job
  kCount,
};

/// Each layer's span name in the Chrome trace and its share metric.
struct LayerNames {
  const char* span;
  const char* share;
};
inline constexpr std::array<LayerNames, static_cast<size_t>(Layer::kCount)>
    kLayerNames = {{{"bench.sax", "sax.share"},
                    {"bench.grammar", "grammar.share"},
                    {"bench.intervals", "intervals.share"},
                    {"bench.detect", "detect.share"},
                    {"bench.discord", "discord.share"},
                    {"bench.stream.push", "stream.push_share"},
                    {"bench.stream.report", "stream.report_share"},
                    {"bench.server", "server.share"}}};

/// Seconds spent in each layer, plus the Chrome trace of the spans.
class LayerClock {
 public:
  LayerClock() { tracer_.Enable(); }

  double& seconds(Layer layer) {
    return seconds_[static_cast<size_t>(layer)];
  }
  double seconds(Layer layer) const {
    return seconds_[static_cast<size_t>(layer)];
  }

  /// Adds `elapsed` seconds to `layer` and records the span that began at
  /// `start`.
  void Record(Layer layer, Clock::time_point start, double elapsed);

  obs::Tracer& tracer() { return tracer_; }

 private:
  std::array<double, static_cast<size_t>(Layer::kCount)> seconds_{};
  obs::Tracer tracer_;
};

/// Times one call into a layer: the span covers the object's lifetime. A
/// null clock makes it a no-op, so untraced passes share the code.
class LayerSpan {
 public:
  LayerSpan(LayerClock* clock, Layer layer)
      : clock_(clock), layer_(layer), start_(Clock::now()) {}
  ~LayerSpan() {
    if (clock_ != nullptr) {
      clock_->Record(layer_, start_, SecondsSince(start_));
    }
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  LayerClock* clock_;
  Layer layer_;
  Clock::time_point start_;
};

}  // namespace gva::bench

#endif  // GVA_BENCH_PIPELINE_BENCH_BENCH_CORE_H_
