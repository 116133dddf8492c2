#include "obs/metrics.h"

#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace gva::obs {
namespace {

// ---------------------------------------------------------------------------
// The compile-time switch. Both template variants are always instantiable,
// so the disabled path's properties are pinned here without a second build
// tree: the disabled primitives are empty types — no atomics, no storage —
// and every operation is a constexpr no-op.

static_assert(std::is_empty_v<BasicCounter<false>>,
              "disabled counter must carry no state");
static_assert(std::is_empty_v<BasicGauge<false>>,
              "disabled gauge must carry no state");
static_assert(std::is_empty_v<BasicHistogram<false>>,
              "disabled histogram must carry no state");
static_assert(sizeof(BasicCounter<true>) == sizeof(std::atomic<uint64_t>),
              "enabled counter is exactly one atomic");

// The no-op operations are usable in constant expressions — proof they
// touch no atomic (atomic RMW is not constexpr).
constexpr uint64_t DisabledCounterRoundTrip() {
  BasicCounter<false> c;
  c.Add(42);
  c.Reset();
  return c.value();
}
static_assert(DisabledCounterRoundTrip() == 0);

constexpr int64_t DisabledGaugeRoundTrip() {
  BasicGauge<false> g;
  g.Set(7);
  g.Add(3);
  g.RaiseTo(100);
  return g.value();
}
static_assert(DisabledGaugeRoundTrip() == 0);

constexpr uint64_t DisabledHistogramRoundTrip() {
  BasicHistogram<false> h;
  h.Record(3.5);
  return h.count() + h.bucket(0);
}
static_assert(DisabledHistogramRoundTrip() == 0);

// ---------------------------------------------------------------------------
// Enabled primitives.

TEST(CounterTest, AddsAndResets) {
  BasicCounter<true> c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddRaise) {
  BasicGauge<true> g;
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
  g.Add(15);
  EXPECT_EQ(g.value(), 10);
  g.RaiseTo(7);  // lower: no effect
  EXPECT_EQ(g.value(), 10);
  g.RaiseTo(25);
  EXPECT_EQ(g.value(), 25);
}

// ---------------------------------------------------------------------------
// Histogram bucket boundaries: base-2 geometric, identical for every
// histogram, stable across releases. Bucket 0 holds values < 1; bucket i
// holds [2^(i-1), 2^i); the last bucket is the overflow.

TEST(HistogramBucketsTest, BoundariesAreTheDocumentedPowersOfTwo) {
  EXPECT_EQ(HistogramBucketFor(-3.0), 0u);
  EXPECT_EQ(HistogramBucketFor(0.0), 0u);
  EXPECT_EQ(HistogramBucketFor(0.999), 0u);
  EXPECT_EQ(HistogramBucketFor(1.0), 1u);
  EXPECT_EQ(HistogramBucketFor(1.999), 1u);
  EXPECT_EQ(HistogramBucketFor(2.0), 2u);
  EXPECT_EQ(HistogramBucketFor(3.999), 2u);
  EXPECT_EQ(HistogramBucketFor(4.0), 3u);
  EXPECT_EQ(HistogramBucketFor(1024.0), 11u);
  EXPECT_EQ(HistogramBucketFor(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(HistogramBucketFor(std::numeric_limits<double>::infinity()),
            kHistogramBuckets - 1);
}

TEST(HistogramBucketsTest, BoundsRoundTripThroughTheBucketRule) {
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    const auto [lower, upper] = HistogramBucketBounds(i);
    EXPECT_EQ(HistogramBucketFor(lower), i) << "bucket " << i;
    if (i + 1 < kHistogramBuckets) {
      EXPECT_EQ(HistogramBucketFor(upper), i + 1) << "bucket " << i;
      // Largest representable value strictly below the boundary stays in i.
      EXPECT_EQ(HistogramBucketFor(std::nextafter(upper, 0.0)), i);
    } else {
      EXPECT_TRUE(std::isinf(upper));
    }
  }
}

TEST(HistogramTest, RecordsCountSumAndBuckets) {
  BasicHistogram<true> h;
  h.Record(0.5);
  h.Record(1.5);
  h.Record(1.6);
  h.Record(100.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.6);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(HistogramBucketFor(100.0)), 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(MetricsRegistryTest, HandlesAreStableAcrossLookupsAndReset) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x.count");
  Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.histogram("x.hist");
  registry.counter("y.count");  // map growth must not move existing nodes
  EXPECT_EQ(&registry.counter("x.count"), &a);
  EXPECT_EQ(&registry.histogram("x.hist"), &h1);
  if constexpr (kEnabled) {
    a.Add(3);
    h1.Record(2.0);
    EXPECT_EQ(registry.counter("x.count").value(), 3u);
    EXPECT_EQ(registry.histogram("x.hist").count(), 1u);
  }
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndTyped) {
  MetricsRegistry registry;
  registry.counter("b.count").Add(2);
  registry.gauge("a.depth").Set(-1);
  registry.histogram("c.hist").Record(3.0);
  const std::vector<MetricSample> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "a.depth");
  EXPECT_EQ(snapshot[0].kind, MetricSample::Kind::kGauge);
  EXPECT_EQ(snapshot[1].name, "b.count");
  EXPECT_EQ(snapshot[1].kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(snapshot[2].name, "c.hist");
  EXPECT_EQ(snapshot[2].kind, MetricSample::Kind::kHistogram);
  if constexpr (kEnabled) {
    EXPECT_EQ(snapshot[0].gauge_value, -1);
    EXPECT_EQ(snapshot[1].counter_value, 2u);
    EXPECT_EQ(snapshot[2].histogram_count, 1u);
  }
}

TEST(MetricsRegistryTest, ToJsonNamesEveryMetric) {
  MetricsRegistry registry;
  registry.counter("search.calls").Add(5);
  registry.gauge("pool.depth").Set(2);
  registry.histogram("dist.hist").Record(1.5);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"search.calls\""), std::string::npos);
  EXPECT_NE(json.find("\"pool.depth\""), std::string::npos);
  EXPECT_NE(json.find("\"dist.hist\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Thread-safety: the same fixed workload driven through 1, 2, and 8 lanes
// must land on identical totals — relaxed atomics lose no increments.

TEST(MetricsConcurrencyTest, CounterTotalsAreThreadCountInvariant) {
  constexpr size_t kItems = 100000;
  std::vector<uint64_t> totals;
  for (size_t threads : {1u, 2u, 8u}) {
    MetricsRegistry registry;
    Counter& c = registry.counter("work.items");
    Histogram& h = registry.histogram("work.value");
    ThreadPool pool(threads);
    pool.ParallelFor(0, kItems, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        c.Add();
        h.Record(static_cast<double>(i % 7));
      }
    });
    totals.push_back(c.value());
    EXPECT_EQ(h.count(), c.value()) << "threads " << threads;
  }
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[0], totals[1]);
  EXPECT_EQ(totals[1], totals[2]);
  if constexpr (kEnabled) {
    EXPECT_EQ(totals[0], kItems);
  } else {
    EXPECT_EQ(totals[0], 0u);
  }
}

TEST(MetricsConcurrencyTest, ConcurrentRegistryLookupsAreSafe) {
  // Lookup is the mutex-guarded slow path; hammer it from all lanes to give
  // TSan something to chew on and assert the handles agree afterwards.
  MetricsRegistry registry;
  ThreadPool pool(8);
  pool.ParallelFor(0, 64, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      registry.counter("shared.count").Add();
      registry.gauge("shared.depth").RaiseTo(static_cast<int64_t>(i));
      registry.histogram("shared.hist").Record(1.0);
    }
  });
  if constexpr (kEnabled) {
    EXPECT_EQ(registry.counter("shared.count").value(), 64u);
    EXPECT_EQ(registry.gauge("shared.depth").value(), 63);
    EXPECT_EQ(registry.histogram("shared.hist").count(), 64u);
  }
}

}  // namespace
}  // namespace gva::obs
