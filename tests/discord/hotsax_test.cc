#include "discord/hotsax.h"

#include <algorithm>
#include <atomic>

#include <gtest/gtest.h>

#include "datasets/ecg.h"
#include "datasets/simple.h"
#include "discord/brute_force.h"
#include "discord/distance.h"
#include "timeseries/sliding_window.h"

namespace gva {
namespace {

bool HitsAnyTruthWindow(const DiscordRecord& discord,
                        const LabeledSeries& data) {
  for (const Interval& truth : data.anomalies) {
    if (discord.span().Overlaps(truth)) {
      return true;
    }
  }
  return false;
}

HotSaxOptions Opts(size_t window, size_t paa = 4, size_t alpha = 4,
                   size_t top_k = 1) {
  HotSaxOptions o;
  o.sax.window = window;
  o.sax.paa_size = paa;
  o.sax.alphabet_size = alpha;
  o.top_k = top_k;
  return o;
}

TEST(HotSaxTest, AgreesWithBruteForceOnDiscordDistance) {
  LabeledSeries data = MakeSineWithAnomaly(500, 40.0, 0.03, 250, 40, 3);
  auto brute = FindDiscordsBruteForce(data.series, 40, 1);
  auto hot = FindDiscordsHotSax(data.series, Opts(40));
  ASSERT_TRUE(brute.ok());
  ASSERT_TRUE(hot.ok());
  ASSERT_EQ(hot->discords.size(), 1u);
  // HOTSAX is exact: same discord distance (and, barring ties, the same
  // position).
  EXPECT_NEAR(hot->discords[0].distance, brute->discords[0].distance, 1e-9);
  EXPECT_EQ(hot->discords[0].position, brute->discords[0].position);
}

// Exactness must hold across discretization parameters — the SAX heuristic
// changes the visit order, never the result.
class HotSaxExactnessTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(HotSaxExactnessTest, SameDiscordDistanceAsBruteForce) {
  const auto [paa, alpha, seed] = GetParam();
  LabeledSeries data = MakeSineWithAnomaly(400, 30.0, 0.05, 200, 30, seed);
  auto brute = FindDiscordsBruteForce(data.series, 30, 1);
  HotSaxOptions opts = Opts(30, paa, alpha);
  opts.seed = seed * 17 + 1;
  auto hot = FindDiscordsHotSax(data.series, opts);
  ASSERT_TRUE(brute.ok());
  ASSERT_TRUE(hot.ok());
  EXPECT_NEAR(hot->discords[0].distance, brute->discords[0].distance, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HotSaxExactnessTest,
    ::testing::Combine(::testing::Values<size_t>(3, 4, 6),
                       ::testing::Values<size_t>(3, 4, 6),
                       ::testing::Values<uint64_t>(1, 2, 3)));

TEST(HotSaxTest, UsesFewerCallsThanBruteForce) {
  EcgOptions ecg;
  ecg.num_beats = 30;
  LabeledSeries data = MakeEcg(ecg);
  auto brute = FindDiscordsBruteForce(data.series, 120, 1);
  auto hot = FindDiscordsHotSax(data.series, Opts(120));
  ASSERT_TRUE(brute.ok());
  ASSERT_TRUE(hot.ok());
  EXPECT_LT(hot->distance_calls, brute->distance_calls / 5)
      << "HOTSAX should prune the vast majority of calls";
}

TEST(HotSaxTest, FindsPlantedEcgAnomaly) {
  EcgOptions ecg;
  ecg.num_beats = 40;
  ecg.anomalous_beats = {25};
  LabeledSeries data = MakeEcg(ecg);
  auto hot = FindDiscordsHotSax(data.series, Opts(120));
  ASSERT_TRUE(hot.ok());
  ASSERT_EQ(hot->discords.size(), 1u);
  EXPECT_TRUE(HitsAnyTruthWindow(hot->discords[0], data));
}

TEST(HotSaxTest, TopKNonOverlappingAndSorted) {
  LabeledSeries data = MakeSineWithAnomaly(900, 45.0, 0.05, 450, 45, 7);
  auto hot = FindDiscordsHotSax(data.series, Opts(45, 4, 4, 4));
  ASSERT_TRUE(hot.ok());
  ASSERT_GE(hot->discords.size(), 2u);
  for (size_t i = 0; i < hot->discords.size(); ++i) {
    for (size_t j = i + 1; j < hot->discords.size(); ++j) {
      EXPECT_FALSE(IsSelfMatch(hot->discords[i].position,
                               hot->discords[j].position, 45));
    }
  }
  for (size_t i = 1; i < hot->discords.size(); ++i) {
    EXPECT_GE(hot->discords[i - 1].distance, hot->discords[i].distance);
  }
}

TEST(HotSaxTest, DeterministicForFixedSeed) {
  LabeledSeries data = MakeSineWithAnomaly(400, 40.0, 0.05, 200, 40, 9);
  auto a = FindDiscordsHotSax(data.series, Opts(40));
  auto b = FindDiscordsHotSax(data.series, Opts(40));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->distance_calls, b->distance_calls);
  EXPECT_EQ(a->discords[0].position, b->discords[0].position);
}

TEST(HotSaxTest, RejectsBadArguments) {
  std::vector<double> series(50, 0.0);
  EXPECT_FALSE(FindDiscordsHotSax(series, Opts(40)).ok());  // too short
  HotSaxOptions zero_k = Opts(10);
  zero_k.top_k = 0;
  std::vector<double> longer(100, 0.0);
  EXPECT_FALSE(FindDiscordsHotSax(longer, zero_k).ok());
}

TEST(HotSaxTest, MeasuresDistancesWithTheOptionsEpsilon) {
  // Regression: HOTSAX discretized with sax.znorm_epsilon but measured
  // distances with the default epsilon, so at epsilon 0.5 it reported
  // 12.77 for a pair whose distance under that epsilon is 2.78. The
  // reported distance must be the pair's distance under the option.
  EcgOptions ecg;
  ecg.num_beats = 40;
  ecg.anomalous_beats = {20};
  ecg.seed = 5;
  const LabeledSeries data = MakeEcg(ecg);
  HotSaxOptions options = Opts(120, 4, 4);
  options.sax.znorm_epsilon = 0.5;
  auto hot = FindDiscordsHotSax(data.series, options);
  ASSERT_TRUE(hot.ok()) << hot.status();
  ASSERT_EQ(hot->discords.size(), 1u);
  const DiscordRecord& top = hot->discords[0];
  const std::span<const double> series = data.series.values();
  const double want = ZNormEuclideanDistance(
      series.subspan(top.position, 120), series.subspan(top.nn_position, 120),
      0.5);
  EXPECT_NEAR(top.distance, want, 1e-9 * std::max(1.0, want));
}

TEST(HotSaxTest, SetCancelTokenReturnsCancelled) {
  LabeledSeries data = MakeSineWithAnomaly(1500, 50.0, 0.05, 700, 50, 4);
  HotSaxOptions options = Opts(50, 4, 4, 2);
  auto plain = FindDiscordsHotSax(data.series, options);
  ASSERT_TRUE(plain.ok()) << plain.status();

  std::atomic<bool> cancel{true};
  options.cancel = &cancel;
  for (size_t threads : {1u, 4u}) {
    options.num_threads = threads;
    auto cancelled = FindDiscordsHotSax(data.series, options);
    ASSERT_FALSE(cancelled.ok()) << "threads=" << threads;
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled)
        << "threads=" << threads;
  }

  // A token that stays clear changes nothing.
  cancel.store(false);
  options.num_threads = 1;
  auto clear = FindDiscordsHotSax(data.series, options);
  ASSERT_TRUE(clear.ok()) << clear.status();
  ASSERT_EQ(clear->discords.size(), plain->discords.size());
  for (size_t i = 0; i < plain->discords.size(); ++i) {
    EXPECT_EQ(clear->discords[i].position, plain->discords[i].position);
    EXPECT_EQ(clear->discords[i].distance, plain->discords[i].distance);
  }
  EXPECT_EQ(clear->distance_calls, plain->distance_calls);
}

}  // namespace
}  // namespace gva
