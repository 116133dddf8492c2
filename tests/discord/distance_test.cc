#include "discord/distance.h"

#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.h"
#include "datasets/simple.h"
#include "discord/distance_test_util.h"
#include "timeseries/znorm.h"
#include "util/rng.h"

namespace gva {
namespace {

TEST(EuclideanDistanceTest, KnownValues) {
  std::vector<double> a{0.0, 0.0};
  std::vector<double> b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, a), 0.0);
}

TEST(ZNormEuclideanTest, ScaleInvariant) {
  std::vector<double> a{1.0, 2.0, 3.0, 2.0};
  std::vector<double> b{10.0, 20.0, 30.0, 20.0};
  EXPECT_NEAR(ZNormEuclideanDistance(a, b), 0.0, 1e-9);
}

TEST(SubsequenceDistanceTest, MatchesNaiveZnormDistance) {
  std::vector<double> series = MakeSine(300, 37.0, 0.1, 9);
  SubsequenceDistance dist(series);
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = 5 + rng.UniformInt(60);
    const size_t p = rng.UniformInt(series.size() - len + 1);
    const size_t q = rng.UniformInt(series.size() - len + 1);
    const double fast = PairDistance(dist, p, q, len);
    const double naive = ZNormEuclideanDistance(
        std::span<const double>(series).subspan(p, len),
        std::span<const double>(series).subspan(q, len));
    EXPECT_NEAR(fast, naive, 1e-6) << "p=" << p << " q=" << q << " len=" << len;
  }
}

TEST(SubsequenceDistanceTest, ZeroForIdenticalPositions) {
  std::vector<double> series = MakeSine(100, 20.0, 0.0, 3);
  SubsequenceDistance dist(series);
  EXPECT_NEAR(PairDistance(dist, 10, 10, 30), 0.0, 1e-9);
}

TEST(SubsequenceDistanceTest, CountsEveryCall) {
  std::vector<double> series = MakeSine(100, 20.0, 0.1, 4);
  SubsequenceDistance dist(series);
  DistanceScan scan(dist);
  EXPECT_EQ(scan.tally().calls(), 0u);
  scan.SetQuery(0, 20, dist.StatsOf(0, 20));
  (void)scan.Distance(50, dist.StatsOf(50, 20));
  scan.SetQuery(1, 20, dist.StatsOf(1, 20));
  (void)scan.Distance(40, dist.StatsOf(40, 20), 0.001);  // abandoned, counted
  EXPECT_EQ(scan.tally().calls(), 2u);
  EXPECT_EQ(scan.tally().completed, 1u);
  EXPECT_EQ(scan.tally().abandoned, 1u);
  // A fresh scan starts from zero; the oracle itself keeps no count.
  EXPECT_EQ(DistanceScan(dist).tally().calls(), 0u);
}

TEST(SubsequenceDistanceTest, EarlyAbandonReturnsInfinity) {
  std::vector<double> series = MakeSine(200, 10.0, 0.2, 5);
  SubsequenceDistance dist(series);
  const double full = PairDistance(dist, 0, 100, 50);
  ASSERT_GT(full, 0.0);
  // A limit below the true distance must abandon.
  EXPECT_EQ(PairDistance(dist, 0, 100, 50, full * 0.5),
            SubsequenceDistance::kInfinity);
  // A limit above the true distance must return the exact value.
  EXPECT_NEAR(PairDistance(dist, 0, 100, 50, full * 1.5), full, 1e-12);
}

TEST(SubsequenceDistanceTest, AbandonThresholdIsTight) {
  std::vector<double> series = MakeSine(200, 10.0, 0.2, 6);
  // Pinned to the scalar backend: the property fl(sqrt(s))^2 <= s is not
  // guaranteed by IEEE rounding, it just holds for this input — and only
  // for the scalar accumulation order that produced this exact s.
  SubsequenceDistance dist(series, kDefaultZNormEpsilon,
                           backend::ScalarBackend());
  const double full = PairDistance(dist, 3, 120, 40);
  // Limit exactly equal to the distance: the running sum reaches the limit
  // only at the very end; equality abandons (>=), which is safe because a
  // caller never needs a distance equal to its current nearest neighbor.
  EXPECT_EQ(PairDistance(dist, 3, 120, 40, full),
            SubsequenceDistance::kInfinity);
}

TEST(SubsequenceDistanceTest, FlatWindowsUseCenteringOnly) {
  std::vector<double> series(100, 2.0);
  for (size_t i = 50; i < 100; ++i) {
    series[i] = 5.0;  // another flat level
  }
  SubsequenceDistance dist(series);
  // Both windows are flat; centered they are identical.
  EXPECT_NEAR(PairDistance(dist, 0, 55, 20), 0.0, 1e-12);
}

TEST(SubsequenceDistanceTest, SymmetricInArguments) {
  std::vector<double> series = MakeRandomWalk(400, 1.0, 12);
  SubsequenceDistance dist(series);
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t len = 10 + rng.UniformInt(40);
    const size_t p = rng.UniformInt(series.size() - len + 1);
    const size_t q = rng.UniformInt(series.size() - len + 1);
    EXPECT_NEAR(PairDistance(dist, p, q, len), PairDistance(dist, q, p, len),
                1e-9);
  }
}

TEST(SubsequenceDistanceTest, FlatWindowsMatchZNormEuclideanDistance) {
  // Both the convenience wrapper and the prefix-sum oracle must apply the
  // same flat-window rule — mean-center without dividing when sd < epsilon
  // — or rankings computed through one disagree with the other on
  // near-constant data. Mix flat, near-flat (noise below epsilon), and
  // oscillating windows to cover both sides of the threshold.
  std::vector<double> series(260);
  Rng rng(99);
  for (size_t i = 0; i < 80; ++i) {
    series[i] = 3.0;  // exactly flat
  }
  for (size_t i = 80; i < 160; ++i) {
    series[i] = -1.0 + 0.001 * rng.Gaussian();  // flat up to sub-eps noise
  }
  for (size_t i = 160; i < 260; ++i) {
    series[i] = std::sin(0.3 * static_cast<double>(i));
  }
  SubsequenceDistance dist(series);
  const size_t len = 40;
  const std::vector<std::pair<size_t, size_t>> pairs = {
      {0, 40},    // flat vs flat
      {0, 100},   // flat vs near-flat
      {100, 20},  // near-flat vs flat
      {10, 200},  // flat vs oscillating
      {90, 210},  // near-flat vs oscillating
      {170, 215}, // oscillating vs oscillating
  };
  for (const auto& [p, q] : pairs) {
    const double fast = PairDistance(dist, p, q, len);
    const double naive = ZNormEuclideanDistance(
        std::span<const double>(series).subspan(p, len),
        std::span<const double>(series).subspan(q, len));
    EXPECT_NEAR(fast, naive, 1e-9) << "p=" << p << " q=" << q;
  }
}

TEST(SubsequenceDistanceTest, FlatWindowEpsilonIsConfigurable) {
  // With a tiny epsilon the near-flat window is z-normalized (noise blown
  // up to unit variance); with the default it is only centered. The two
  // oracles must disagree — this is what made the shared-epsilon bug in
  // interval ranking observable.
  std::vector<double> series(200, 0.0);
  Rng rng(7);
  for (size_t i = 0; i < 100; ++i) {
    series[i] = 1.0 + 0.001 * rng.Gaussian();
  }
  for (size_t i = 100; i < 200; ++i) {
    series[i] = std::sin(0.2 * static_cast<double>(i));
  }
  SubsequenceDistance centered(series);          // default epsilon = 0.01
  SubsequenceDistance normalized(series, 1e-9);  // everything z-normalized
  const double d_centered = PairDistance(centered, 0, 120, 60);
  const double d_normalized = PairDistance(normalized, 0, 120, 60);
  EXPECT_GT(std::abs(d_centered - d_normalized), 1e-3);
}

TEST(SubsequenceDistanceTest, AbandonsExactlyWhenTrueDistanceReachesLimit) {
  // Early-abandon semantics, exhaustively over random pairs: Distance
  // returns kInfinity iff the true distance >= limit, and otherwise the
  // exact value. The limit only short-circuits; it never perturbs results.
  std::vector<double> series = MakeSine(400, 31.0, 0.15, 23);
  SubsequenceDistance dist(series);
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = 8 + rng.UniformInt(50);
    const size_t p = rng.UniformInt(series.size() - len + 1);
    const size_t q = rng.UniformInt(series.size() - len + 1);
    const double truth = PairDistance(dist, p, q, len);
    const double limit = truth * (0.25 + 1.5 * rng.UniformDouble()) + 1e-9;
    const double limited = PairDistance(dist, p, q, len, limit);
    if (truth >= limit) {
      EXPECT_EQ(limited, SubsequenceDistance::kInfinity)
          << "p=" << p << " q=" << q << " len=" << len;
    } else {
      EXPECT_EQ(limited, truth) << "p=" << p << " q=" << q << " len=" << len;
    }
  }
}

TEST(SubsequenceDistanceTest, CallCountIsExactUnderConcurrentUse) {
  // Threads share one oracle, each scanning through its own DistanceScan,
  // the way the parallel searches' chunks do: the oracle is read-only, so
  // tsan must stay quiet, and the per-thread tallies summed after the join
  // must account for every call — the invariant behind the paper's Table 1
  // accounting in the parallel searches.
  std::vector<double> series = MakeSine(500, 40.0, 0.1, 5);
  const SubsequenceDistance dist(series);
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 2000;
  std::vector<CallTally> tallies(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dist, &tallies, t] {
      DistanceScan scan(dist);
      for (int i = 0; i < kCallsPerThread; ++i) {
        const auto p = static_cast<size_t>((t * 7 + i) % 400);
        const auto q = static_cast<size_t>((i * 13) % 400);
        scan.SetQuery(p, 50, dist.StatsOf(p, 50));
        (void)scan.Distance(q, dist.StatsOf(q, 50), 1.0);
      }
      tallies[static_cast<size_t>(t)] = scan.tally();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  CallTally total;
  for (const CallTally& tally : tallies) {
    total += tally;
  }
  EXPECT_EQ(total.calls(),
            static_cast<uint64_t>(kThreads) * kCallsPerThread);
  EXPECT_EQ(total.completed + total.abandoned, total.calls());
}

TEST(SubsequenceDistanceTest, StatsTableMatchesPerWindowStats) {
  // The fixed-length searches read window statistics from a table built
  // once; every entry must be the bits StatsOf computes for that window,
  // flat windows (inv_std == 1.0) included.
  std::vector<double> series = MakeRandomWalk(300, 1.0, 19);
  for (size_t i = 120; i < 180; ++i) {
    series[i] = 2.0;
  }
  const SubsequenceDistance dist(series);
  const std::vector<WindowStats> table = dist.StatsOfAllWindows(40);
  ASSERT_EQ(table.size(), series.size() - 40 + 1);
  for (size_t p = 0; p < table.size(); ++p) {
    const WindowStats want = dist.StatsOf(p, 40);
    EXPECT_EQ(table[p].mean, want.mean) << "p=" << p;
    EXPECT_EQ(table[p].inv_std, want.inv_std) << "p=" << p;
  }
  EXPECT_EQ(table[130].inv_std, 1.0);
}

TEST(SubsequenceDistanceTest, ReusedScanMatchesFreshScanAcrossLengths) {
  // RRA reuses one scan for queries of different lengths; a query set
  // after a longer or shorter one must give the bits a fresh scan gives.
  std::vector<double> series = MakeSine(600, 37.0, 0.1, 27);
  const SubsequenceDistance dist(series);
  DistanceScan reused(dist);
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t len = 2 + rng.UniformInt(150);
    const size_t p = rng.UniformInt(series.size() - len + 1);
    const size_t q = rng.UniformInt(series.size() - len + 1);
    reused.SetQuery(p, len, dist.StatsOf(p, len));
    EXPECT_EQ(reused.Distance(q, dist.StatsOf(q, len)),
              PairDistance(dist, p, q, len))
        << "p=" << p << " q=" << q << " len=" << len;
  }
  EXPECT_EQ(reused.tally().calls(), 100u);
}

TEST(SubsequenceDistanceTest, TriangleInequalityHolds) {
  std::vector<double> series = MakeRandomWalk(300, 1.0, 13);
  SubsequenceDistance dist(series);
  Rng rng(31);
  const size_t len = 25;
  for (int trial = 0; trial < 100; ++trial) {
    const size_t a = rng.UniformInt(series.size() - len + 1);
    const size_t b = rng.UniformInt(series.size() - len + 1);
    const size_t c = rng.UniformInt(series.size() - len + 1);
    const double ab = PairDistance(dist, a, b, len);
    const double bc = PairDistance(dist, b, c, len);
    const double ac = PairDistance(dist, a, c, len);
    EXPECT_LE(ac, ab + bc + 1e-9);
  }
}

}  // namespace
}  // namespace gva
