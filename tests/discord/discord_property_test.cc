// Cross-algorithm property tests: the three discord finders must agree
// where their contracts overlap, across a sweep of signals and windows.

#include <cmath>

#include <gtest/gtest.h>

#include "core/rra.h"
#include "datasets/simple.h"
#include "discord/brute_force.h"
#include "discord/distance.h"
#include "discord/hotsax.h"

namespace gva {
namespace {

struct Case {
  size_t length;
  double period;
  size_t window;
  uint64_t seed;
};

class DiscordAgreementTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

// HOTSAX is exact: identical discord distance to brute force on arbitrary
// signals (here: noisy sines with a planted flat segment, random walks).
TEST_P(DiscordAgreementTest, HotSaxEqualsBruteForce) {
  const auto [window, seed] = GetParam();
  LabeledSeries sine = MakeSineWithAnomaly(420, 35.0, 0.08, 200, 40, seed);
  std::vector<double> walk = MakeRandomWalk(420, 1.0, seed + 100);

  for (std::span<const double> series :
       {std::span<const double>(sine.series), std::span<const double>(walk)}) {
    auto brute = FindDiscordsBruteForce(series, window, 1);
    HotSaxOptions opts;
    opts.sax.window = window;
    opts.sax.paa_size = 4;
    opts.sax.alphabet_size = 4;
    opts.seed = seed;
    auto hot = FindDiscordsHotSax(series, opts);
    ASSERT_TRUE(brute.ok());
    ASSERT_TRUE(hot.ok());
    ASSERT_FALSE(hot->discords.empty());
    EXPECT_NEAR(hot->discords[0].distance, brute->discords[0].distance,
                1e-9)
        << "window=" << window << " seed=" << seed;
    EXPECT_LE(hot->distance_calls, brute->distance_calls);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DiscordAgreementTest,
    ::testing::Combine(::testing::Values<size_t>(20, 30, 50),
                       ::testing::Values<uint64_t>(1, 2, 3, 4, 5)));

// The exact-NN RRA reports, for its winning interval, the true nearest
// non-self-match distance — verified against a direct exhaustive scan.
class RraExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RraExactnessTest, ReportedDistanceIsTrueNearestNeighbor) {
  const uint64_t seed = GetParam();
  LabeledSeries data = MakeSineWithAnomaly(900, 60.0, 0.05, 450, 70, seed);
  RraOptions opts;
  opts.sax.window = 120;
  opts.sax.paa_size = 4;
  opts.sax.alphabet_size = 4;
  opts.seed = seed * 31 + 7;
  auto rra = FindRraDiscords(data.series, opts);
  ASSERT_TRUE(rra.ok());
  ASSERT_FALSE(rra->result.discords.empty());
  const DiscordRecord& d = rra->result.discords[0];

  SubsequenceDistance dist(data.series);
  DistanceScan scan(dist);
  scan.SetQuery(d.position, d.length, dist.StatsOf(d.position, d.length));
  double nn = SubsequenceDistance::kInfinity;
  for (size_t q = 0; q + d.length <= data.series.size(); ++q) {
    const size_t gap = q > d.position ? q - d.position : d.position - q;
    if (gap < d.length) {
      continue;
    }
    nn = std::min(nn, scan.Distance(q, dist.StatsOf(q, d.length), nn));
  }
  EXPECT_NEAR(d.distance, nn / static_cast<double>(d.length), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RraExactnessTest,
                         ::testing::Range<uint64_t>(1, 9));

// The winning discord must dominate: no other candidate interval (that
// completed its scan) can have a larger exact nearest-neighbor distance.
TEST(RraDominanceTest, NoCandidateBeatsTheReportedDiscord) {
  LabeledSeries data = MakeSineWithAnomaly(800, 50.0, 0.04, 400, 60, 11);
  RraOptions opts;
  opts.sax.window = 100;
  opts.sax.paa_size = 4;
  opts.sax.alphabet_size = 4;
  auto rra = FindRraDiscords(data.series, opts);
  ASSERT_TRUE(rra.ok());
  ASSERT_FALSE(rra->result.discords.empty());
  const DiscordRecord& best = rra->result.discords[0];

  SubsequenceDistance dist(data.series);
  DistanceScan scan(dist);
  auto exact_nn = [&](size_t p, size_t len) {
    scan.SetQuery(p, len, dist.StatsOf(p, len));
    double nn = SubsequenceDistance::kInfinity;
    for (size_t q = 0; q + len <= data.series.size(); ++q) {
      const size_t gap = q > p ? q - p : p - q;
      if (gap < len) {
        continue;
      }
      nn = std::min(nn, scan.Distance(q, dist.StatsOf(q, len), nn));
    }
    return nn / static_cast<double>(len);
  };

  for (const RuleInterval& ri : rra->decomposition.intervals) {
    const size_t len = ri.span.length();
    if (len < 2 || ri.span.end > data.series.size()) {
      continue;
    }
    const double nn = exact_nn(ri.span.start, len);
    if (std::isfinite(nn)) {
      EXPECT_LE(nn, best.distance + 1e-9)
          << "interval [" << ri.span.start << ", " << ri.span.end
          << ") beats the reported discord";
    }
  }
}

// Exclusion-zone property under top-k: every reported discord is disjoint
// from every other, across algorithms.
TEST(TopKPropertyTest, AllAlgorithmsReportDisjointDiscords) {
  LabeledSeries data = MakeSineWithAnomaly(700, 35.0, 0.06, 350, 35, 13);
  const size_t window = 35;

  auto brute = FindDiscordsBruteForce(data.series, window, 4);
  HotSaxOptions hot_opts;
  hot_opts.sax.window = window;
  auto hot = FindDiscordsHotSax(data.series, hot_opts);
  RraOptions rra_opts;
  rra_opts.sax.window = window;
  rra_opts.top_k = 4;
  auto rra = FindRraDiscords(data.series, rra_opts);
  ASSERT_TRUE(brute.ok());
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(rra.ok());

  auto check_disjoint = [](const std::vector<DiscordRecord>& discords) {
    for (size_t i = 0; i < discords.size(); ++i) {
      for (size_t j = i + 1; j < discords.size(); ++j) {
        EXPECT_FALSE(discords[i].span().Overlaps(discords[j].span()));
      }
    }
  };
  check_disjoint(brute->discords);
  check_disjoint(hot->discords);
  check_disjoint(rra->result.discords);
}

}  // namespace
}  // namespace gva
