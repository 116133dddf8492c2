#include "core/streaming.h"

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "core/rule_density_detector.h"
#include "datasets/ecg.h"
#include "datasets/simple.h"

namespace gva {
namespace {

StreamingOptions Opts(size_t window, size_t paa = 4, size_t alpha = 4) {
  StreamingOptions o;
  o.sax.window = window;
  o.sax.paa_size = paa;
  o.sax.alphabet_size = alpha;
  return o;
}

void ExpectSameDetection(const DensityDetection& streaming,
                         const DensityDetection& batch) {
  EXPECT_EQ(streaming.decomposition.density, batch.decomposition.density);
  EXPECT_EQ(streaming.decomposition.records.words,
            batch.decomposition.records.words);
  EXPECT_EQ(streaming.decomposition.records.offsets,
            batch.decomposition.records.offsets);
  ASSERT_EQ(streaming.anomalies.size(), batch.anomalies.size());
  for (size_t i = 0; i < batch.anomalies.size(); ++i) {
    EXPECT_EQ(streaming.anomalies[i].span, batch.anomalies[i].span);
    EXPECT_EQ(streaming.anomalies[i].min_density,
              batch.anomalies[i].min_density);
    EXPECT_EQ(streaming.anomalies[i].mean_density,
              batch.anomalies[i].mean_density);
  }
}

TEST(StreamingTest, CreateValidatesOptions) {
  EXPECT_TRUE(StreamingAnomalyMonitor::Create(Opts(100)).ok());
  EXPECT_FALSE(StreamingAnomalyMonitor::Create(Opts(0)).ok());
  // window == 1 cannot be z-normalized; rejected like the batch path.
  EXPECT_FALSE(StreamingAnomalyMonitor::Create(Opts(1, 1)).ok());
  EXPECT_FALSE(StreamingAnomalyMonitor::Create(Opts(10, 20)).ok());
}

// Regression: Create used to validate options.sax but never
// options.density, silently accepting nonsense extraction parameters.
TEST(StreamingTest, CreateValidatesDensityOptions) {
  StreamingOptions o = Opts(100);
  o.density.threshold_fraction = -0.25;
  EXPECT_FALSE(StreamingAnomalyMonitor::Create(o).ok());
  o.density.threshold_fraction = 1.5;
  EXPECT_FALSE(StreamingAnomalyMonitor::Create(o).ok());
  o.density.threshold_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(StreamingAnomalyMonitor::Create(o).ok());
  o.density.threshold_fraction = 0.1;
  EXPECT_TRUE(StreamingAnomalyMonitor::Create(o).ok());
}

TEST(StreamingTest, CreateRejectsNonFiniteEpsilon) {
  for (const double eps : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    StreamingOptions o = Opts(100);
    o.sax.znorm_epsilon = eps;
    EXPECT_EQ(StreamingAnomalyMonitor::Create(o).status().code(),
              StatusCode::kInvalidArgument)
        << eps;
  }
}

TEST(StreamingTest, CreateValidatesHorizon) {
  StreamingOptions o = Opts(100);
  o.horizon = 99;  // below the window: no report could ever cover a window
  EXPECT_FALSE(StreamingAnomalyMonitor::Create(o).ok());
  o.horizon = 100;
  EXPECT_TRUE(StreamingAnomalyMonitor::Create(o).ok());
  o.horizon = 0;  // unbounded
  EXPECT_TRUE(StreamingAnomalyMonitor::Create(o).ok());
}

TEST(StreamingTest, ReportRequiresOneFullWindow) {
  auto monitor = StreamingAnomalyMonitor::Create(Opts(50));
  ASSERT_TRUE(monitor.ok());
  for (int i = 0; i < 49; ++i) {
    monitor->Push(static_cast<double>(i));
  }
  auto early = monitor->Report();
  ASSERT_FALSE(early.ok());
  // The "too early" condition must be distinguishable from real failures
  // (examples/streaming_monitor.cpp keys on exactly this code).
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);
  monitor->Push(49.0);
  EXPECT_TRUE(monitor->Report().ok());
}

TEST(StreamingTest, SeriesShorterThanWindowNeverReports) {
  auto monitor = StreamingAnomalyMonitor::Create(Opts(200));
  ASSERT_TRUE(monitor.ok());
  std::vector<double> series = MakeSine(150, 40.0, 0.01, 7);
  monitor->PushAll(series);
  EXPECT_EQ(monitor->samples_seen(), 150u);
  EXPECT_EQ(monitor->tokens_emitted(), 0u);
  auto report = monitor->Report();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamingTest, TokensMatchBatchDiscretization) {
  LabeledSeries data = MakeSineWithAnomaly(1500, 60.0, 0.03, 700, 80, 9);
  StreamingOptions opts = Opts(120, 5, 4);
  auto monitor = StreamingAnomalyMonitor::Create(opts);
  ASSERT_TRUE(monitor.ok());
  monitor->PushAll(data.series);

  auto batch = Discretize(data.series, opts.sax);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(monitor->tokens_emitted(), batch->size());
}

// The defining property: a streaming report over a prefix equals the batch
// detection over the same prefix.
TEST(StreamingTest, MatchesBatchDetection) {
  LabeledSeries data = MakeSineWithAnomaly(2000, 100.0, 0.02, 1000, 120, 3);
  StreamingOptions opts = Opts(200, 4, 3);
  auto monitor = StreamingAnomalyMonitor::Create(opts);
  ASSERT_TRUE(monitor.ok());
  monitor->PushAll(data.series);

  auto streaming = monitor->Report();
  ASSERT_TRUE(streaming.ok());
  EXPECT_EQ(streaming->suffix_start, 0u);
  EXPECT_EQ(streaming->suffix_length, data.series.size());
  auto batch = DetectDensityAnomalies(data.series, opts.sax, opts.density);
  ASSERT_TRUE(batch.ok());
  ExpectSameDetection(streaming->detection, *batch);
}

TEST(StreamingTest, MatchesBatchAtSeveralPrefixes) {
  LabeledSeries data = MakeSineWithAnomaly(1600, 80.0, 0.03, 800, 100, 5);
  StreamingOptions opts = Opts(160, 4, 4);
  auto monitor = StreamingAnomalyMonitor::Create(opts);
  ASSERT_TRUE(monitor.ok());

  size_t consumed = 0;
  for (size_t checkpoint : {400u, 900u, 1600u}) {
    while (consumed < checkpoint) {
      monitor->Push(data.series[consumed++]);
    }
    auto streaming = monitor->Report();
    ASSERT_TRUE(streaming.ok());
    std::span<const double> prefix(data.series.values().data(), checkpoint);
    auto batch = DetectDensityAnomalies(prefix, opts.sax, opts.density);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(streaming->detection.decomposition.density,
              batch->decomposition.density)
        << "prefix " << checkpoint;
  }
}

// kMinDist numerosity on the streaming path: the per-generation reduction
// must take the same keep/drop decisions as the batch discretizer.
TEST(StreamingTest, MinDistNumerosityMatchesBatch) {
  LabeledSeries data = MakeSineWithAnomaly(1200, 60.0, 0.05, 600, 70, 11);
  StreamingOptions opts = Opts(90, 3, 5);
  opts.sax.numerosity = NumerosityReduction::kMinDist;
  auto monitor = StreamingAnomalyMonitor::Create(opts);
  ASSERT_TRUE(monitor.ok());
  monitor->PushAll(data.series);

  auto batch_records = Discretize(data.series, opts.sax);
  ASSERT_TRUE(batch_records.ok());
  auto streaming = monitor->Report();
  ASSERT_TRUE(streaming.ok());
  EXPECT_EQ(streaming->detection.decomposition.records.words,
            batch_records->words);
  EXPECT_EQ(streaming->detection.decomposition.records.offsets,
            batch_records->offsets);

  auto batch = DetectDensityAnomalies(data.series, opts.sax, opts.density);
  ASSERT_TRUE(batch.ok());
  ExpectSameDetection(streaming->detection, *batch);
}

// Reporting after every single sample must neither disturb the stream state
// nor change any report: the streaming density curve equals the batch
// curve at every step.
TEST(StreamingTest, ReportAtEverySampleMatchesBatch) {
  LabeledSeries data = MakeSineWithAnomaly(600, 40.0, 0.04, 300, 50, 13);
  StreamingOptions opts = Opts(60, 4, 4);
  auto monitor = StreamingAnomalyMonitor::Create(opts);
  ASSERT_TRUE(monitor.ok());

  for (size_t i = 0; i < data.series.size(); ++i) {
    monitor->Push(data.series[i]);
    auto report = monitor->Report();
    if (i + 1 < opts.sax.window) {
      ASSERT_FALSE(report.ok());
      continue;
    }
    ASSERT_TRUE(report.ok()) << "at sample " << i;
    if ((i + 1) % 97 == 0 || i + 1 == data.series.size()) {
      // Spot-check full equivalence on a few prefixes (every prefix would
      // make the test quadratic).
      std::span<const double> prefix(data.series.values().data(), i + 1);
      auto batch = DetectDensityAnomalies(prefix, opts.sax, opts.density);
      ASSERT_TRUE(batch.ok());
      ExpectSameDetection(report->detection, *batch);
    }
  }
}

// Eviction-boundary determinism: the report after a horizon boundary is a
// pure function of the stream — identical whether or not reports were also
// drawn mid-stream, and identical to the batch detector on the suffix.
TEST(StreamingTest, EvictionBoundaryDeterminism) {
  LabeledSeries data = MakeSineWithAnomaly(2600, 60.0, 0.03, 2200, 60, 17);
  StreamingOptions opts = Opts(80, 4, 4);
  opts.horizon = 500;

  auto quiet = StreamingAnomalyMonitor::Create(opts);
  auto chatty = StreamingAnomalyMonitor::Create(opts);
  ASSERT_TRUE(quiet.ok());
  ASSERT_TRUE(chatty.ok());
  for (size_t i = 0; i < data.series.size(); ++i) {
    quiet->Push(data.series[i]);
    chatty->Push(data.series[i]);
    if ((i + 1) % 37 == 0 && i + 1 >= opts.sax.window) {
      ASSERT_TRUE(chatty->Report().ok());
    }
  }
  // Generations open at 0, 500, ..., 2500; all but the last two retired.
  EXPECT_EQ(quiet->generations_evicted(), 4u);
  EXPECT_EQ(quiet->report_suffix_start(), 2000u);

  auto a = quiet->Report();
  auto b = chatty->Report();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->suffix_start, b->suffix_start);
  EXPECT_EQ(a->suffix_length, b->suffix_length);
  ExpectSameDetection(a->detection, b->detection);

  // The suffix stays within [horizon, 2*horizon] and the report equals the
  // batch detector run on exactly that suffix.
  EXPECT_GE(a->suffix_length, opts.horizon);
  EXPECT_LE(a->suffix_length, 2 * opts.horizon);
  std::span<const double> suffix(
      data.series.values().data() + a->suffix_start, a->suffix_length);
  auto batch = DetectDensityAnomalies(suffix, opts.sax, opts.density);
  ASSERT_TRUE(batch.ok());
  ExpectSameDetection(a->detection, *batch);
}

// With a horizon, retained state is bounded no matter how long the stream
// runs; without one it grows with the prefix.
TEST(StreamingTest, HorizonBoundsRetainedState) {
  StreamingOptions opts = Opts(50, 5, 4);
  opts.horizon = 200;
  auto monitor = StreamingAnomalyMonitor::Create(opts);
  ASSERT_TRUE(monitor.ok());
  std::vector<double> series = MakeSine(5000, 35.0, 0.05, 21);
  size_t max_retained = 0;
  for (double v : series) {
    monitor->Push(v);
    max_retained = std::max(max_retained, monitor->retained_tokens());
  }
  // Two live generations of at most 2*horizon window positions each.
  EXPECT_LE(max_retained, 4 * opts.horizon);
  // Generations open at 0, 200, ..., 4800; all but the last two retired.
  EXPECT_EQ(monitor->generations_evicted(), 5000u / 200 - 2);
  EXPECT_GE(monitor->samples_seen() - monitor->report_suffix_start(),
            opts.horizon);
}

// Early detection: the anomaly becomes visible in the report shortly after
// the stream passes it — the paper's "early anomaly detection in real-time
// data streams" (Section 7).
TEST(StreamingTest, DetectsAnomalyShortlyAfterItStreamsBy) {
  EcgOptions ecg;
  ecg.num_beats = 50;
  ecg.anomalous_beats = {30};
  LabeledSeries data = MakeEcg(ecg);
  const Interval truth = data.anomalies[0];

  StreamingOptions opts;
  opts.sax = data.recommended;
  opts.sax.paa_size = 6;
  opts.density.threshold_fraction = 0.05;
  auto monitor = StreamingAnomalyMonitor::Create(opts);
  ASSERT_TRUE(monitor.ok());

  // Stream until a few beats past the anomaly.
  const size_t horizon = truth.end + 4 * ecg.beat_length;
  for (size_t i = 0; i < horizon; ++i) {
    monitor->Push(data.series[i]);
  }
  auto report = monitor->Report();
  ASSERT_TRUE(report.ok());
  std::vector<Interval> found;
  for (const DensityAnomaly& a : report->detection.anomalies) {
    found.push_back(a.span);
  }
  EXPECT_TRUE(HitsAnyTruth(truth, found, opts.sax.window))
      << "anomaly not visible " << horizon - truth.end
      << " samples after it passed";
}

TEST(StreamingTest, MonitorIsMovable) {
  auto monitor = StreamingAnomalyMonitor::Create(Opts(50));
  ASSERT_TRUE(monitor.ok());
  StreamingAnomalyMonitor moved = std::move(monitor).value();
  for (int i = 0; i < 100; ++i) {
    moved.Push(std::sin(0.3 * i));
  }
  EXPECT_EQ(moved.samples_seen(), 100u);
  EXPECT_TRUE(moved.Report().ok());
}

}  // namespace
}  // namespace gva
