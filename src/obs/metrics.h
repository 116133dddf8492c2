#ifndef GVA_OBS_METRICS_H_
#define GVA_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gva::obs {

/// Compile-time observability switch. The default build keeps metrics on:
/// every primitive is a relaxed atomic, cheap enough for the per-distance-
/// call hot path (see bench/kernel_bench's obs-overhead row). Configuring
/// with -DGVA_OBS=OFF defines GVA_OBS_DISABLED and swaps every primitive
/// for an empty no-op type, so instrumented code compiles to nothing — no
/// atomics, no loads, no stores. Both variants of each primitive are always
/// compiled (they are templates), which is how the unit tests pin down the
/// disabled path's properties without a second build tree.
inline constexpr bool kEnabled =
#ifdef GVA_OBS_DISABLED
    false;
#else
    true;
#endif

/// Monotonic counter. Enabled: one relaxed fetch_add per Add. Disabled:
/// empty type, all members constexpr no-ops.
template <bool Enabled>
class BasicCounter;

template <>
class BasicCounter<true> {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Must not race with in-flight Add() calls.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

template <>
class BasicCounter<false> {
 public:
  constexpr void Add(uint64_t = 1) {}
  constexpr uint64_t value() const { return 0; }
  constexpr void Reset() {}
};

using Counter = BasicCounter<kEnabled>;

/// Last-write-wins gauge (signed, for depths/levels that go up and down).
template <bool Enabled>
class BasicGauge;

template <>
class BasicGauge<true> {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  /// Atomically raises the gauge to `v` if larger (high-water marks).
  void RaiseTo(int64_t v) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (v > current && !value_.compare_exchange_weak(
                              current, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

template <>
class BasicGauge<false> {
 public:
  constexpr void Set(int64_t) {}
  constexpr void Add(int64_t) {}
  constexpr void RaiseTo(int64_t) {}
  constexpr int64_t value() const { return 0; }
};

using Gauge = BasicGauge<kEnabled>;

/// Fixed-bucket histogram for latencies (microseconds) and distances.
/// Buckets are base-2 geometric and identical for every histogram ever
/// created, so dashboards and diffs can rely on stable boundaries:
/// bucket 0 holds values < 1, bucket i (1 <= i < kBuckets-1) holds
/// [2^(i-1), 2^i), and the last bucket holds everything >= 2^(kBuckets-2).
/// Negative and NaN values are clamped into bucket 0.
template <bool Enabled>
class BasicHistogram;

inline constexpr size_t kHistogramBuckets = 32;

/// The shared bucketization rule. Pure function of the value, exposed so
/// tests (and exporters) can assert the boundaries directly.
size_t HistogramBucketFor(double value);

/// Inclusive-exclusive [lower, upper) bounds of bucket `i` under the rule
/// above; the last bucket's upper bound is +infinity.
std::pair<double, double> HistogramBucketBounds(size_t i);

template <>
class BasicHistogram<true> {
 public:
  void Record(double value) {
    buckets_[HistogramBucketFor(value)].fetch_add(1,
                                                  std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Relaxed double add via CAS; sums are diagnostic, not load-bearing.
    double current = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(current, current + value,
                                       std::memory_order_relaxed)) {
    }
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Must not race with in-flight Record() calls.
  void Reset() {
    for (auto& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

template <>
class BasicHistogram<false> {
 public:
  constexpr void Record(double) {}
  constexpr uint64_t count() const { return 0; }
  constexpr double sum() const { return 0.0; }
  constexpr uint64_t bucket(size_t) const { return 0; }
  constexpr void Reset() {}
};

using Histogram = BasicHistogram<kEnabled>;

/// Quantile estimate (q in [0, 1]) from a histogram's sparse
/// (bucket index, count) pairs under the shared base-2 bucketization:
/// the answer is the bucket whose cumulative count crosses q of the total,
/// linearly interpolated across that bucket's [lower, upper) bounds. The
/// unbounded last bucket yields its lower bound (nothing to interpolate
/// against). Returns 0.0 for an empty histogram. Exact to within one
/// bucket's width — the right tool for p50/p95/p99 summary columns, not
/// for sub-bucket precision claims.
double HistogramQuantile(
    const std::vector<std::pair<size_t, uint64_t>>& buckets, double q);

/// Point-in-time copy of one metric, for export.
struct MetricSample {
  std::string name;
  enum class Kind { kCounter, kGauge, kHistogram } kind = Kind::kCounter;
  uint64_t counter_value = 0;
  int64_t gauge_value = 0;
  uint64_t histogram_count = 0;
  double histogram_sum = 0.0;
  /// Non-empty buckets only, as (bucket index, count) pairs.
  std::vector<std::pair<size_t, uint64_t>> histogram_buckets;
};

/// Convenience overload over a snapshot sample's sparse buckets.
double HistogramQuantile(const MetricSample& sample, double q);

/// Thread-safe named registry. Lookup (counter/gauge/histogram) takes a
/// mutex and is meant for setup paths; the returned references are stable
/// for the registry's lifetime, so hot loops resolve their handle once and
/// then pay only the primitive's relaxed-atomic cost. Metric names are
/// dot-separated lowercase paths: <component>.<stage-or-object>.<measure>
/// with unit suffixes where meaningful (`.us` wall-clock microseconds,
/// `.count` plain totals) — e.g. `stage.sax.discretize.us`,
/// `search.rra.calls.abandoned`, `threadpool.tasks.executed`.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Snapshot of every registered metric, sorted by name.
  std::vector<MetricSample> Snapshot() const;

  /// Machine-readable export: {"metrics": {"<name>": <value-or-object>}}.
  /// Counters export as integers, gauges as integers, histograms as
  /// {"count", "sum", "buckets": {"<index>": n}}.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  // node-based maps: values never move, so handed-out references stay valid.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry the library's instrumentation points write to.
/// Always present and never reset, so every counter is monotonic for the
/// process lifetime (a scraper's rate() stays valid across ObsSessions).
MetricsRegistry& GlobalMetrics();

}  // namespace gva::obs

#endif  // GVA_OBS_METRICS_H_
