// Property suite for the ensemble engine. The engine's contract is built
// around three invariances — single-config transparency, config-order
// permutation invariance, and substrate/thread-count independence — and
// every one of them is bit-for-bit, so the tests compare with == and not
// tolerances.

#include "ensemble/ensemble.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/pipeline.h"
#include "core/rule_density_detector.h"
#include "datasets/ecg.h"
#include "datasets/simple.h"

namespace gva {
namespace {

LabeledSeries TestSeries() {
  return MakeSineWithAnomaly(3000, 120.0, 0.05, 1500, 100, 13);
}

std::vector<EnsembleConfig> TestGrid() {
  return MakeEnsembleGrid({80, 120}, {4, 6}, {3, 4, 5});
}

void ExpectSameDetection(const EnsembleDetection& a,
                         const EnsembleDetection& b) {
  EXPECT_EQ(a.score, b.score);  // bit-for-bit
  EXPECT_EQ(a.configs_used, b.configs_used);
  EXPECT_EQ(a.max_window, b.max_window);
  ASSERT_EQ(a.anomalies.size(), b.anomalies.size());
  for (size_t i = 0; i < a.anomalies.size(); ++i) {
    EXPECT_EQ(a.anomalies[i].span, b.anomalies[i].span);
    EXPECT_EQ(a.anomalies[i].min_score, b.anomalies[i].min_score);
    EXPECT_EQ(a.anomalies[i].mean_score, b.anomalies[i].mean_score);
    EXPECT_EQ(a.anomalies[i].rank, b.anomalies[i].rank);
  }
}

// ---------------------------------------------------------------------------
// Single-config transparency: an ensemble of one is the plain rule-density
// detector seen through min-max normalization.

TEST(EnsembleSingleConfig, DensityCurveIsBitIdenticalToPipeline) {
  const LabeledSeries data = TestSeries();
  EnsembleOptions options;
  options.configs = {EnsembleConfig{120, 4, 4}};
  const auto ensemble = RunEnsemble(data.series, options);
  ASSERT_TRUE(ensemble.ok()) << ensemble.status();

  const auto plain =
      DetectDensityAnomalies(data.series, options.SaxFor(options.configs[0]),
                             options.anomaly);
  ASSERT_TRUE(plain.ok()) << plain.status();

  ASSERT_EQ(ensemble->configs.size(), 1u);
  EXPECT_TRUE(ensemble->configs[0].ok);
  EXPECT_FALSE(ensemble->configs[0].cache_hit);  // nothing to share with
  EXPECT_EQ(ensemble->configs[0].density, plain->decomposition.density);
  EXPECT_EQ(ensemble->score, NormalizeDensity(plain->decomposition.density));
}

TEST(EnsembleSingleConfig, AnomalyIntervalsMatchPlainDetectorAtThresholdZero) {
  // At threshold_fraction == 0 the detector keeps exactly the global
  // minima, and min-max normalization maps the density minimum to exactly
  // 0.0 — an order-preserving affine transform — so the extracted interval
  // set is identical, not merely close.
  const LabeledSeries data = TestSeries();
  EnsembleOptions options;
  options.configs = {EnsembleConfig{120, 4, 4}};
  options.anomaly.threshold_fraction = 0.0;
  options.anomaly.max_anomalies = 5;
  const auto ensemble = RunEnsemble(data.series, options);
  ASSERT_TRUE(ensemble.ok()) << ensemble.status();

  const auto plain =
      DetectDensityAnomalies(data.series, options.SaxFor(options.configs[0]),
                             options.anomaly);
  ASSERT_TRUE(plain.ok()) << plain.status();

  ASSERT_EQ(ensemble->anomalies.size(), plain->anomalies.size());
  for (size_t i = 0; i < ensemble->anomalies.size(); ++i) {
    EXPECT_EQ(ensemble->anomalies[i].span, plain->anomalies[i].span);
    EXPECT_EQ(ensemble->anomalies[i].rank, plain->anomalies[i].rank);
  }
}

// ---------------------------------------------------------------------------
// Permutation invariance: aggregation walks the canonical config order, so
// the caller's list order is immaterial down to the last bit.

TEST(EnsembleInvariance, ScoreIsPermutationInvariant) {
  const LabeledSeries data = TestSeries();
  EnsembleOptions options;
  options.configs = TestGrid();
  const auto forward = RunEnsemble(data.series, options);
  ASSERT_TRUE(forward.ok()) << forward.status();

  std::reverse(options.configs.begin(), options.configs.end());
  const auto reversed = RunEnsemble(data.series, options);
  ASSERT_TRUE(reversed.ok()) << reversed.status();
  ExpectSameDetection(*forward, *reversed);

  // An "interleaved" permutation as well — reversal alone would also pass
  // under pairwise-commutative-by-luck summation.
  std::vector<EnsembleConfig> shuffled;
  for (size_t i = 0; i < forward->configs.size(); i += 2) {
    shuffled.push_back(forward->configs[i].config);
  }
  for (size_t i = 1; i < forward->configs.size(); i += 2) {
    shuffled.push_back(forward->configs[i].config);
  }
  options.configs = shuffled;
  const auto interleaved = RunEnsemble(data.series, options);
  ASSERT_TRUE(interleaved.ok()) << interleaved.status();
  ExpectSameDetection(*forward, *interleaved);
}

TEST(EnsembleInvariance, SharedSubstrateMatchesNaivePipelines) {
  const LabeledSeries data = TestSeries();
  EnsembleOptions options;
  options.configs = TestGrid();
  const auto shared = RunEnsemble(data.series, options);
  ASSERT_TRUE(shared.ok()) << shared.status();
  ASSERT_EQ(shared->configs.size(), options.configs.size());
  for (size_t i = 0; i < options.configs.size(); ++i) {
    // Each config through its own single-query pipeline, no substrate.
    const auto naive =
        DecomposeSeries(data.series, options.SaxFor(options.configs[i]));
    ASSERT_TRUE(naive.ok()) << naive.status();
    EXPECT_TRUE(shared->configs[i].ok) << "config " << i;
    EXPECT_EQ(shared->configs[i].density, naive->density) << "config " << i;
  }
  EXPECT_GT(shared->cache_hits, 0u);
}

TEST(EnsembleInvariance, ThreadCountDoesNotChangeAnyBit) {
  const LabeledSeries data = TestSeries();
  EnsembleOptions options;
  options.configs = TestGrid();
  options.num_threads = 1;
  const auto serial = RunEnsemble(data.series, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  for (size_t threads : {size_t{4}, size_t{0}}) {
    options.num_threads = threads;
    const auto parallel = RunEnsemble(data.series, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectSameDetection(*serial, *parallel);
    for (size_t i = 0; i < serial->configs.size(); ++i) {
      EXPECT_EQ(serial->configs[i].density, parallel->configs[i].density)
          << "config " << i << " at " << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Cache accounting and failure handling.

TEST(EnsembleCache, OneMissPerDistinctWindowPaaKey) {
  const LabeledSeries data = TestSeries();
  EnsembleOptions options;
  options.configs = MakeEnsembleGrid({64, 128}, {4}, {3, 5});  // 2 keys
  const auto detection = RunEnsemble(data.series, options);
  ASSERT_TRUE(detection.ok()) << detection.status();
  EXPECT_EQ(detection->cache_misses, 2u);
  EXPECT_EQ(detection->cache_hits, 2u);
  // The canonically-first config per key owns the miss: (64,4,3) and
  // (128,4,3) computed, (64,4,5) and (128,4,5) served from the plane.
  for (const EnsembleConfigResult& c : detection->configs) {
    EXPECT_EQ(c.cache_hit, c.config.alphabet_size == 5)
        << "w=" << c.config.window << " a=" << c.config.alphabet_size;
  }
}

TEST(EnsembleCache, MissOwnershipIgnoresCallerOrder) {
  const LabeledSeries data = TestSeries();
  EnsembleOptions options;
  options.configs = {EnsembleConfig{64, 4, 5}, EnsembleConfig{64, 4, 3}};
  const auto detection = RunEnsemble(data.series, options);
  ASSERT_TRUE(detection.ok()) << detection.status();
  // Canonical order sorts (64,4,3) first even though the caller listed it
  // second, so the miss belongs to it deterministically.
  EXPECT_TRUE(detection->configs[0].cache_hit);
  EXPECT_FALSE(detection->configs[1].cache_hit);
}

TEST(EnsembleRobustness, OversizedWindowIsSkippedNotFatal) {
  const LabeledSeries data = TestSeries();
  EnsembleOptions options;
  options.configs = {EnsembleConfig{120, 4, 4},
                     EnsembleConfig{data.series.size() + 1, 4, 4}};
  const auto detection = RunEnsemble(data.series, options);
  ASSERT_TRUE(detection.ok()) << detection.status();
  EXPECT_EQ(detection->configs_used, 1u);
  EXPECT_TRUE(detection->configs[0].ok);
  EXPECT_FALSE(detection->configs[1].ok);
  EXPECT_FALSE(detection->configs[1].error.empty());
  EXPECT_EQ(detection->max_window, 120u);
}

TEST(EnsembleRobustness, AllConfigsUnrunnableIsAnError) {
  const LabeledSeries data = TestSeries();
  EnsembleOptions options;
  options.configs = {EnsembleConfig{data.series.size() + 1, 4, 4}};
  const auto detection = RunEnsemble(data.series, options);
  EXPECT_FALSE(detection.ok());
}

// RunEnsemble makes the threshold check the density detector and the
// streaming monitor make: unchecked, a fraction of 7 reports most of the
// series as one anomaly, -1 reports none, and NaN never finishes.
TEST(EnsembleRobustness, ThresholdOutsideUnitIntervalIsRejected) {
  const LabeledSeries data = TestSeries();
  for (const double threshold :
       {7.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    EnsembleOptions options;
    options.configs = {EnsembleConfig{120, 4, 4}};
    options.anomaly.threshold_fraction = threshold;
    const auto detection = RunEnsemble(data.series, options);
    EXPECT_EQ(detection.status().code(), StatusCode::kInvalidArgument)
        << threshold;
  }
}

TEST(EnsembleRobustness, EmptySeriesIsAnError) {
  EnsembleOptions options;
  options.configs = TestGrid();
  const auto detection =
      RunEnsemble(std::span<const double>{}, options);
  EXPECT_FALSE(detection.ok());
}

// ---------------------------------------------------------------------------
// The aggregation building blocks.

TEST(EnsembleScoring, NormalizeDensityMapsRangeToUnitInterval) {
  const std::vector<uint32_t> density = {2, 6, 4, 2, 10};
  const std::vector<double> normalized = NormalizeDensity(density);
  const std::vector<double> expected = {0.0, 0.5, 0.25, 0.0, 1.0};
  EXPECT_EQ(normalized, expected);
}

TEST(EnsembleScoring, NormalizeConstantCurveIsAllZeros) {
  const std::vector<uint32_t> density(16, 7);
  const std::vector<double> normalized = NormalizeDensity(density);
  EXPECT_EQ(normalized, std::vector<double>(16, 0.0));
}

TEST(EnsembleScoring, FindLowScoreIntervalsMirrorsDensityExtraction) {
  // Same curve fed to both extractors (as uint32 densities and as scaled
  // doubles) must produce the same interval set and ranking.
  const std::vector<uint32_t> density = {9, 9, 1, 1, 9, 9, 0, 0, 0, 9,
                                         9, 9, 2, 9, 9, 9};
  std::vector<double> score(density.size());
  for (size_t i = 0; i < density.size(); ++i) {
    score[i] = static_cast<double>(density[i]) / 9.0;
  }
  DensityAnomalyOptions options;
  options.threshold_fraction = 0.25;
  options.max_anomalies = 10;
  const auto expected = FindLowDensityIntervals(density, 0, options);
  const auto actual = FindLowScoreIntervals(score, 0, options);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].span, expected[i].span);
    EXPECT_EQ(actual[i].rank, expected[i].rank);
  }
}

TEST(EnsembleScoring, AutoGridCoversMultipleWindowsAndAlphabets) {
  const std::vector<EnsembleConfig> grid = AutoEnsembleGrid(3000);
  EXPECT_EQ(grid.size(), 18u);
  std::vector<size_t> windows;
  for (const EnsembleConfig& c : grid) {
    if (std::find(windows.begin(), windows.end(), c.window) ==
        windows.end()) {
      windows.push_back(c.window);
    }
    EXPECT_LE(c.window, 3000u);
  }
  EXPECT_EQ(windows.size(), 3u);
  EXPECT_TRUE(AutoEnsembleGrid(0).empty());
}

}  // namespace
}  // namespace gva
