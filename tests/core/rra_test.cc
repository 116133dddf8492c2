#include "core/rra.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "datasets/ecg.h"
#include "datasets/simple.h"
#include "datasets/tek.h"
#include "discord/brute_force.h"
#include "discord/hotsax.h"

namespace gva {
namespace {

RraOptions Opts(size_t window, size_t paa = 4, size_t alpha = 4,
                size_t top_k = 1) {
  RraOptions o;
  o.sax.window = window;
  o.sax.paa_size = paa;
  o.sax.alphabet_size = alpha;
  o.top_k = top_k;
  return o;
}

TEST(RraTest, FindsPlantedSineAnomaly) {
  LabeledSeries data = MakeSineWithAnomaly(2000, 100.0, 0.02, 1000, 120, 3);
  auto detection = FindRraDiscords(data.series, Opts(200));
  ASSERT_TRUE(detection.ok());
  ASSERT_FALSE(detection->result.discords.empty());
  const DiscordRecord& best = detection->result.discords[0];
  EXPECT_TRUE(HitsAnyTruth(best.span(), data.anomalies, 200))
      << "best discord at [" << best.position << ", "
      << best.position + best.length << ")";
}

TEST(RraTest, FindsPlantedEcgAnomaly) {
  EcgOptions ecg;
  ecg.num_beats = 60;
  ecg.anomalous_beats = {35};
  LabeledSeries data = MakeEcg(ecg);
  RraOptions opts = Opts(120, 6, 4);
  auto detection = FindRraDiscords(data.series, opts);
  ASSERT_TRUE(detection.ok());
  ASSERT_FALSE(detection->result.discords.empty());
  EXPECT_TRUE(HitsAnyTruth(detection->result.discords[0].span(),
                           data.anomalies, 120));
}

TEST(RraTest, UsesFarFewerCallsThanHotSax) {
  EcgOptions ecg;
  ecg.num_beats = 80;
  LabeledSeries data = MakeEcg(ecg);

  HotSaxOptions hot_opts;
  hot_opts.sax = Opts(120, 6, 4).sax;
  auto hot = FindDiscordsHotSax(data.series, hot_opts);
  auto rra = FindRraDiscords(data.series, Opts(120, 6, 4));
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(rra.ok());
  EXPECT_LT(rra->result.distance_calls, hot->distance_calls)
      << "RRA operates on numerosity-reduced intervals and must spend fewer"
         " distance calls (paper Table 1)";
}

TEST(RraTest, DiscordOverlapsHotSaxDiscord) {
  // Table 1's last column: the RRA discord covers the HOTSAX discord.
  EcgOptions ecg;
  ecg.num_beats = 60;
  ecg.anomalous_beats = {30};
  LabeledSeries data = MakeEcg(ecg);
  HotSaxOptions hot_opts;
  hot_opts.sax = Opts(120, 6, 4).sax;
  auto hot = FindDiscordsHotSax(data.series, hot_opts);
  auto rra = FindRraDiscords(data.series, Opts(120, 6, 4));
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(rra.ok());
  ASSERT_FALSE(hot->discords.empty());
  ASSERT_FALSE(rra->result.discords.empty());
  EXPECT_GT(OverlapFraction(rra->result.discords[0].span(),
                            hot->discords[0].span()),
            0.0);
}

TEST(RraTest, ReportsVariableLengths) {
  TekOptions tek;
  tek.num_cycles = 24;
  LabeledSeries data = MakeTek(tek);
  RraOptions opts = Opts(125, 5, 4, 4);
  auto detection = FindRraDiscords(data.series, opts);
  ASSERT_TRUE(detection.ok());
  ASSERT_GE(detection->result.discords.size(), 2u);
  // Discord lengths are not all equal to the seed window — they follow the
  // grammar-rule intervals.
  bool any_nonwindow = false;
  for (const DiscordRecord& d : detection->result.discords) {
    if (d.length != opts.sax.window) {
      any_nonwindow = true;
    }
  }
  EXPECT_TRUE(any_nonwindow);
}

TEST(RraTest, TopKDiscordsDoNotOverlap) {
  LabeledSeries data = MakeSineWithAnomaly(3000, 100.0, 0.03, 1500, 120, 5);
  auto detection = FindRraDiscords(data.series, Opts(200, 4, 4, 3));
  ASSERT_TRUE(detection.ok());
  const auto& discords = detection->result.discords;
  for (size_t i = 0; i < discords.size(); ++i) {
    for (size_t j = i + 1; j < discords.size(); ++j) {
      EXPECT_FALSE(discords[i].span().Overlaps(discords[j].span()))
          << i << " vs " << j;
    }
  }
}

TEST(RraTest, DeterministicForFixedSeed) {
  LabeledSeries data = MakeSineWithAnomaly(1500, 75.0, 0.05, 700, 90, 8);
  auto a = FindRraDiscords(data.series, Opts(150));
  auto b = FindRraDiscords(data.series, Opts(150));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->result.distance_calls, b->result.distance_calls);
  ASSERT_EQ(a->result.discords.size(), b->result.discords.size());
  for (size_t i = 0; i < a->result.discords.size(); ++i) {
    EXPECT_EQ(a->result.discords[i].position,
              b->result.discords[i].position);
    EXPECT_EQ(a->result.discords[i].length, b->result.discords[i].length);
  }
}

TEST(RraTest, GapIntervalsEnableRuleFreeAnomalies) {
  // An anomaly so unusual that it never enters a rule should surface as a
  // frequency-0 gap candidate (rule == kGapRule == -1).
  LabeledSeries data = MakeSineWithAnomaly(2000, 100.0, 0.01, 1000, 130, 4);
  auto detection = FindRraDiscords(data.series, Opts(200, 5, 5, 2));
  ASSERT_TRUE(detection.ok());
  bool saw_candidate_types = false;
  for (const DiscordRecord& d : detection->result.discords) {
    if (d.rule == -1 || d.rule >= 1) {
      saw_candidate_types = true;
    }
  }
  EXPECT_TRUE(saw_candidate_types);
}

TEST(RraTest, RejectsBadArguments) {
  std::vector<double> v(500, 0.0);
  RraOptions zero_k = Opts(50);
  zero_k.top_k = 0;
  EXPECT_FALSE(FindRraDiscords(v, zero_k).ok());
  RraOptions bad_sax = Opts(0);
  EXPECT_FALSE(FindRraDiscords(v, bad_sax).ok());
}

TEST(RraTest, DecompositionMismatchRejected) {
  LabeledSeries data = MakeSineWithAnomaly(1000, 50.0, 0.05, 500, 60, 2);
  auto detection = FindRraDiscords(data.series, Opts(100));
  ASSERT_TRUE(detection.ok());
  std::vector<double> other(999, 0.0);
  EXPECT_FALSE(FindRraDiscordsInDecomposition(other,
                                              detection->decomposition,
                                              Opts(100))
                   .ok());
}

TEST(IntervalNnDistancesTest, MatchesDefinitionOnSmallCase) {
  LabeledSeries data = MakeSineWithAnomaly(1200, 60.0, 0.03, 600, 70, 6);
  auto detection = FindRraDiscords(data.series, Opts(120));
  ASSERT_TRUE(detection.ok());
  const auto& intervals = detection->decomposition.intervals;
  ASSERT_FALSE(intervals.empty());
  std::vector<double> nn =
      IntervalNnDistances(data.series, intervals);
  ASSERT_EQ(nn.size(), intervals.size());
  // Each finite nn distance must be achievable: non-negative.
  for (double d : nn) {
    if (std::isfinite(d)) {
      EXPECT_GE(d, 0.0);
    }
  }
}

}  // namespace
}  // namespace gva
