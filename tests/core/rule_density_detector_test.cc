#include "core/rule_density_detector.h"

#include <limits>

#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "datasets/ecg.h"
#include "datasets/power_demand.h"
#include "datasets/simple.h"

namespace gva {
namespace {

[[maybe_unused]] std::vector<Interval> Spans(
    const std::vector<DensityAnomaly>& anomalies) {
  std::vector<Interval> out;
  for (const DensityAnomaly& a : anomalies) {
    out.push_back(a.span);
  }
  return out;
}

TEST(FindLowDensityIntervalsTest, GlobalMinimaOnly) {
  std::vector<uint32_t> density{5, 5, 5, 1, 1, 5, 5, 0, 0, 0, 5, 5};
  DensityAnomalyOptions opts;
  std::vector<DensityAnomaly> anomalies =
      FindLowDensityIntervals(density, 0, opts);
  ASSERT_EQ(anomalies.size(), 1u);  // only the global minimum (0) qualifies
  EXPECT_EQ(anomalies[0].span, (Interval{7, 10}));
  EXPECT_EQ(anomalies[0].min_density, 0u);
  EXPECT_EQ(anomalies[0].rank, 0u);
}

TEST(FindLowDensityIntervalsTest, ThresholdFractionWidensSelection) {
  std::vector<uint32_t> density{5, 5, 5, 1, 1, 5, 5, 0, 0, 0, 5, 5};
  DensityAnomalyOptions opts;
  opts.threshold_fraction = 0.25;  // threshold = 0 + 0.25 * 5 = 1.25
  std::vector<DensityAnomaly> anomalies =
      FindLowDensityIntervals(density, 0, opts);
  ASSERT_EQ(anomalies.size(), 2u);
  // Ranked by mean density: the zero run first.
  EXPECT_EQ(anomalies[0].span, (Interval{7, 10}));
  EXPECT_EQ(anomalies[1].span, (Interval{3, 5}));
}

TEST(FindLowDensityIntervalsTest, EdgeExclusion) {
  // Zeros at the boundary are ramp artifacts; with exclusion the interior
  // minimum (value 1) wins.
  std::vector<uint32_t> density{0, 0, 4, 4, 1, 4, 4, 0, 0};
  DensityAnomalyOptions opts;
  std::vector<DensityAnomaly> anomalies =
      FindLowDensityIntervals(density, 2, opts);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].span, (Interval{4, 5}));
}

TEST(FindLowDensityIntervalsTest, EmptyAndDegenerateInputs) {
  DensityAnomalyOptions opts;
  EXPECT_TRUE(FindLowDensityIntervals({}, 10, opts).empty());
  // Window exclusion larger than the curve: falls back to the full curve.
  std::vector<uint32_t> tiny{1, 0, 1};
  EXPECT_EQ(FindLowDensityIntervals(tiny, 50, opts).size(), 1u);
  // Validate() rejects a NaN fraction, but the extraction step is public:
  // called without it, a NaN threshold admits no point and the scan ends.
  opts.threshold_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(FindLowDensityIntervals(tiny, 0, opts).empty());
}

TEST(FindLowDensityIntervalsTest, MaxAnomaliesCap) {
  std::vector<uint32_t> density{9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9};
  DensityAnomalyOptions opts;
  opts.max_anomalies = 3;
  EXPECT_EQ(FindLowDensityIntervals(density, 0, opts).size(), 3u);
}

TEST(DensityDetectorTest, FindsPlantedSineAnomaly) {
  LabeledSeries data = MakeSineWithAnomaly(2000, 100.0, 0.02, 1000, 120, 3);
  auto detection =
      DetectDensityAnomalies(data.series, data.recommended, {});
  ASSERT_TRUE(detection.ok());
  ASSERT_FALSE(detection->anomalies.empty());
  EXPECT_TRUE(HitsAnyTruth(detection->anomalies[0].span, data.anomalies,
                           data.recommended.window))
      << "top density anomaly at " << detection->anomalies[0].span;
}

TEST(DensityDetectorTest, FindsPlantedEcgAnomaly) {
  EcgOptions ecg;
  ecg.num_beats = 60;
  ecg.anomalous_beats = {35};
  LabeledSeries data = MakeEcg(ecg);
  SaxOptions sax = data.recommended;
  sax.paa_size = 6;
  sax.alphabet_size = 4;
  auto detection = DetectDensityAnomalies(data.series, sax, {});
  ASSERT_TRUE(detection.ok());
  ASSERT_FALSE(detection->anomalies.empty());
  EXPECT_TRUE(HitsAnyTruth(detection->anomalies[0].span, data.anomalies,
                           sax.window));
}

TEST(DensityDetectorTest, FindsHolidaysInPowerDemand) {
  PowerDemandOptions power;
  power.weeks = 30;
  power.holiday_days = {87};  // a Thursday
  LabeledSeries data = MakePowerDemand(power);
  auto detection =
      DetectDensityAnomalies(data.series, data.recommended, {});
  ASSERT_TRUE(detection.ok());
  ASSERT_FALSE(detection->anomalies.empty());
  EXPECT_TRUE(HitsAnyTruth(detection->anomalies[0].span, data.anomalies,
                           data.recommended.window));
}

TEST(DensityDetectorTest, PropagatesInvalidOptions) {
  std::vector<double> v(100, 0.0);
  SaxOptions bad;
  bad.window = 0;
  EXPECT_FALSE(DetectDensityAnomalies(v, bad, {}).ok());
}

TEST(DensityAnomalyOptionsTest, ValidateChecksRanges) {
  DensityAnomalyOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.threshold_fraction = -0.1;
  EXPECT_FALSE(o.Validate().ok());
  o.threshold_fraction = 1.0001;
  EXPECT_FALSE(o.Validate().ok());
  o.threshold_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(o.Validate().ok());
  o.threshold_fraction = 1.0;
  EXPECT_TRUE(o.Validate().ok());
}

// Regression: the batch detector used to silently accept out-of-range
// density options and produce nonsense reports.
TEST(DensityDetectorTest, RejectsInvalidDensityOptions) {
  LabeledSeries data = MakeSineWithAnomaly(600, 40.0, 0.05, 300, 50, 9);
  SaxOptions sax;
  sax.window = 60;
  sax.paa_size = 4;
  sax.alphabet_size = 4;
  DensityAnomalyOptions bad;
  bad.threshold_fraction = -3.0;
  EXPECT_FALSE(DetectDensityAnomalies(data.series, sax, bad).ok());
}

TEST(DensityDetectorTest, DensityCurveLengthMatchesSeries) {
  LabeledSeries data = MakeSineWithAnomaly(800, 40.0, 0.05, 400, 50, 9);
  SaxOptions sax;
  sax.window = 80;
  sax.paa_size = 4;
  sax.alphabet_size = 4;
  auto detection = DetectDensityAnomalies(data.series, sax, {});
  ASSERT_TRUE(detection.ok());
  EXPECT_EQ(detection->decomposition.density.size(), data.series.size());
}

TEST(EvaluateTest, OverlapFractionAndRecall) {
  EXPECT_DOUBLE_EQ(OverlapFraction({0, 10}, {5, 15}), 0.5);
  EXPECT_DOUBLE_EQ(OverlapFraction({0, 10}, {20, 30}), 0.0);
  EXPECT_DOUBLE_EQ(OverlapFraction({0, 100}, {40, 60}), 1.0);
  EXPECT_DOUBLE_EQ(Recall({{0, 10}}, {{5, 8}, {50, 60}}), 0.5);
  EXPECT_DOUBLE_EQ(Recall({}, {{1, 2}}), 0.0);
  EXPECT_DOUBLE_EQ(Recall({{1, 2}}, {}), 1.0);
  // Slack widens the truth interval; intervals are half-open so a gap of 2
  // needs slack 3 to produce a genuine overlap.
  EXPECT_TRUE(HitsAnyTruth({0, 5}, {{7, 9}}, 3));
  EXPECT_FALSE(HitsAnyTruth({0, 5}, {{7, 9}}, 1));
}

}  // namespace
}  // namespace gva
