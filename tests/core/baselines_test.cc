// Tests for the related-work baseline detectors (rare-word frequency and
// compression scoring).

#include <gtest/gtest.h>

#include "core/compression_score.h"
#include "core/evaluate.h"
#include "core/frequency_detector.h"
#include "datasets/ecg.h"
#include "datasets/simple.h"
#include "grammar/sequitur.h"

namespace gva {
namespace {

// --- rare-word frequency baseline -------------------------------------------

TEST(FrequencyDetectorTest, SupportCurveIsNormalized) {
  std::vector<double> series = MakeSine(600, 60.0, 0.05, 1);
  FrequencyAnomalyOptions opts;
  opts.sax.window = 120;
  auto detection = DetectRareWordAnomalies(series, opts);
  ASSERT_TRUE(detection.ok());
  ASSERT_EQ(detection->support.size(), series.size() - 120 + 1);
  for (double s : detection->support) {
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(FrequencyDetectorTest, FindsPlantedAnomaly) {
  LabeledSeries data = MakeSineWithAnomaly(1500, 75.0, 0.02, 700, 100, 3);
  FrequencyAnomalyOptions opts;
  opts.sax.window = 150;
  opts.sax.paa_size = 5;
  opts.sax.alphabet_size = 4;
  auto detection = DetectRareWordAnomalies(data.series, opts);
  ASSERT_TRUE(detection.ok());
  ASSERT_FALSE(detection->anomalies.empty());
  EXPECT_TRUE(HitsAnyTruth(detection->anomalies[0].span, data.anomalies,
                           opts.sax.window));
}

TEST(FrequencyDetectorTest, AnomaliesRankedBySupport) {
  LabeledSeries data = MakeSineWithAnomaly(1200, 60.0, 0.05, 600, 80, 5);
  FrequencyAnomalyOptions opts;
  opts.sax.window = 120;
  opts.threshold_fraction = 0.2;
  auto detection = DetectRareWordAnomalies(data.series, opts);
  ASSERT_TRUE(detection.ok());
  for (size_t i = 1; i < detection->anomalies.size(); ++i) {
    EXPECT_LE(detection->anomalies[i - 1].mean_support,
              detection->anomalies[i].mean_support);
  }
}

TEST(FrequencyDetectorTest, PropagatesInvalidOptions) {
  std::vector<double> series(50, 0.0);
  FrequencyAnomalyOptions opts;
  opts.sax.window = 100;  // longer than the series
  EXPECT_FALSE(DetectRareWordAnomalies(series, opts).ok());
}

// --- compression-score baseline ----------------------------------------------

TEST(CompressionScoreTest, GreedyParseUsesRules) {
  // abab abab -> grammar has a rule for "ab" (and "abab"); parsing "abab"
  // against the dictionary emits far fewer items than tokens.
  std::vector<int32_t> tokens{0, 1, 0, 1, 0, 1, 0, 1};
  auto grammar = InferGrammar(tokens);
  ASSERT_TRUE(grammar.ok());
  const size_t items = GreedyParseItems(*grammar, tokens);
  EXPECT_LT(items, tokens.size() / 2);
}

TEST(CompressionScoreTest, UnknownTokensCostOneEach) {
  std::vector<int32_t> tokens{0, 1, 0, 1};
  auto grammar = InferGrammar(tokens);
  ASSERT_TRUE(grammar.ok());
  std::vector<int32_t> foreign{7, 8, 9};
  EXPECT_EQ(GreedyParseItems(*grammar, foreign), foreign.size());
}

TEST(CompressionScoreTest, FindsPlantedAnomaly) {
  LabeledSeries data = MakeSineWithAnomaly(2000, 100.0, 0.02, 1000, 150, 7);
  CompressionScoreOptions opts;
  opts.sax.window = 200;
  opts.sax.paa_size = 4;
  opts.sax.alphabet_size = 3;
  opts.segment_tokens = 6;
  auto detection = DetectCompressionAnomalies(data.series, opts);
  ASSERT_TRUE(detection.ok());
  ASSERT_FALSE(detection->anomalies.empty());
  // The worst-compressing segment overlaps the planted anomaly.
  EXPECT_TRUE(HitsAnyTruth(detection->anomalies[0].span, data.anomalies,
                           opts.sax.window));
  // Costs are within (0, 1] and sorted descending.
  for (size_t i = 0; i < detection->anomalies.size(); ++i) {
    EXPECT_GT(detection->anomalies[i].cost, 0.0);
    EXPECT_LE(detection->anomalies[i].cost, 1.0);
    if (i > 0) {
      EXPECT_GE(detection->anomalies[i - 1].cost,
                detection->anomalies[i].cost);
    }
  }
}

TEST(CompressionScoreTest, SegmentsTileTheTokenStream) {
  LabeledSeries data = MakeSineWithAnomaly(1000, 50.0, 0.05, 500, 60, 9);
  CompressionScoreOptions opts;
  opts.sax.window = 100;
  opts.segment_tokens = 5;
  auto detection = DetectCompressionAnomalies(data.series, opts);
  ASSERT_TRUE(detection.ok());
  size_t total_tokens = 0;
  for (const SegmentScore& s : detection->segments) {
    total_tokens += s.tokens;
    EXPECT_LE(s.items, s.tokens);
    EXPECT_GE(s.items, 1u);
  }
  EXPECT_EQ(total_tokens, detection->decomposition.records.size());
}

TEST(CompressionScoreTest, RejectsZeroSegment) {
  std::vector<double> series(300, 0.0);
  CompressionScoreOptions opts;
  opts.segment_tokens = 0;
  EXPECT_FALSE(DetectCompressionAnomalies(series, opts).ok());
}

}  // namespace
}  // namespace gva
