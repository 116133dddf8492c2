// Exactness tests for the blocked-abandon distance kernel: the blocked
// accumulation (four quarter accumulators per 16-element block, with the
// abandon check between blocks) must match a scalar per-element reference
// in value and in abandon *decision*, and a scan's call tally must count
// exactly one call per invocation under concurrency.
//
// The reference sums left to right, a different order from the kernel's
// (DESIGN.md §11), so values are compared within a tolerance and limits
// keep clear of the distance. The oracles are pinned to the scalar
// backend; every backend builds the same kernel, and cross-backend
// agreement lives in tests/backend/.

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.h"
#include "datasets/simple.h"
#include "discord/distance.h"
#include "discord/distance_test_util.h"
#include "util/rng.h"

namespace gva {
namespace {

/// The pre-overhaul scalar kernel: prefix-sum window stats, one fused
/// normalize-subtract-square-accumulate loop, per-element abandon check.
class ScalarReferenceDistance {
 public:
  explicit ScalarReferenceDistance(std::span<const double> series,
                                   double epsilon = kDefaultZNormEpsilon)
      : series_(series), epsilon_(epsilon) {
    prefix_.resize(series.size() + 1);
    prefix_sq_.resize(series.size() + 1);
    prefix_[0] = 0.0;
    prefix_sq_[0] = 0.0;
    for (size_t i = 0; i < series.size(); ++i) {
      prefix_[i + 1] = prefix_[i] + series[i];
      prefix_sq_[i + 1] = prefix_sq_[i] + series[i] * series[i];
    }
  }

  double Distance(size_t p, size_t q, size_t length,
                  double limit = SubsequenceDistance::kInfinity) const {
    const auto [mean_p, inv_p] = StatsOf(p, length);
    const auto [mean_q, inv_q] = StatsOf(q, length);
    const double limit_sq =
        limit == SubsequenceDistance::kInfinity ? limit : limit * limit;
    double sum_sq = 0.0;
    for (size_t i = 0; i < length; ++i) {
      const double va = (series_[p + i] - mean_p) * inv_p;
      const double vb = (series_[q + i] - mean_q) * inv_q;
      const double d = va - vb;
      sum_sq += d * d;
      if (sum_sq >= limit_sq) {
        return SubsequenceDistance::kInfinity;
      }
    }
    return std::sqrt(sum_sq);
  }

 private:
  std::pair<double, double> StatsOf(size_t pos, size_t length) const {
    const double n = static_cast<double>(length);
    const double mean = (prefix_[pos + length] - prefix_[pos]) / n;
    double variance =
        (prefix_sq_[pos + length] - prefix_sq_[pos]) / n - mean * mean;
    if (variance < 0.0) {
      variance = 0.0;
    }
    const double sd = std::sqrt(variance);
    return {mean, sd < epsilon_ ? 1.0 : 1.0 / sd};
  }

  std::span<const double> series_;
  double epsilon_;
  std::vector<double> prefix_;
  std::vector<double> prefix_sq_;
};

TEST(BlockedDistanceTest, MatchesScalarReferenceOnRandomPairs) {
  const std::vector<double> series = MakeRandomWalk(2000, 1.0, 91);
  SubsequenceDistance dist(series, kDefaultZNormEpsilon,
                           backend::ScalarBackend());
  ScalarReferenceDistance ref(series);
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    // Lengths straddle the block size: shorter than one block, block
    // multiples, and ragged tails.
    const size_t len = 3 + rng.UniformInt(200);
    const size_t p = rng.UniformInt(series.size() - len + 1);
    const size_t q = rng.UniformInt(series.size() - len + 1);
    const double blocked = PairDistance(dist, p, q, len);
    const double scalar = ref.Distance(p, q, len);
    EXPECT_NEAR(blocked, scalar, 1e-9)
        << "p=" << p << " q=" << q << " len=" << len;
  }
}

TEST(BlockedDistanceTest, ExactBlockMultipleLengths) {
  const std::vector<double> series = MakeSine(1000, 43.0, 0.15, 3);
  SubsequenceDistance dist(series, kDefaultZNormEpsilon,
                           backend::ScalarBackend());
  ScalarReferenceDistance ref(series);
  for (size_t len :
       {SubsequenceDistance::kBlock, 2 * SubsequenceDistance::kBlock,
        8 * SubsequenceDistance::kBlock}) {
    for (size_t p : {0u, 17u, 400u}) {
      const size_t q = p + 300;
      EXPECT_NEAR(PairDistance(dist, p, q, len), ref.Distance(p, q, len), 1e-12)
          << "len=" << len << " p=" << p;
    }
  }
}

TEST(BlockedDistanceTest, AbandonsIffScalarReferenceWouldReachLimit) {
  // The squared sum is monotone, so the block-granular check must abandon
  // exactly the calls the per-element check abandons: kInfinity iff the
  // full distance >= limit, the exact value otherwise.
  const std::vector<double> series = MakeSine(1500, 27.0, 0.2, 29);
  SubsequenceDistance dist(series, kDefaultZNormEpsilon,
                           backend::ScalarBackend());
  ScalarReferenceDistance ref(series);
  Rng rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t len = 5 + rng.UniformInt(150);
    const size_t p = rng.UniformInt(series.size() - len + 1);
    const size_t q = rng.UniformInt(series.size() - len + 1);
    const double truth = ref.Distance(p, q, len);
    const double limit = truth * (0.25 + 1.5 * rng.UniformDouble()) + 1e-9;
    const double blocked = PairDistance(dist, p, q, len, limit);
    const double scalar = ref.Distance(p, q, len, limit);
    if (scalar == SubsequenceDistance::kInfinity) {
      EXPECT_EQ(blocked, SubsequenceDistance::kInfinity)
          << "p=" << p << " q=" << q << " len=" << len << " limit=" << limit;
    } else {
      EXPECT_NEAR(blocked, scalar, 1e-9)
          << "p=" << p << " q=" << q << " len=" << len << " limit=" << limit;
    }
  }
}

TEST(BlockedDistanceTest, LimitAtExactDistanceAbandonsIffOwnSumReachesIt) {
  // limit == the returned distance: the scan squares the limit, and
  // sqrt(sum)^2 may round below, onto or above sum. The completed sum is the
  // largest the kernel ever compares, so each backend abandons exactly when
  // its own unlimited sum reaches limit * limit; and since every backend
  // sums in one order, all of them decide alike.
  const std::vector<double> series = MakeSine(600, 21.0, 0.1, 5);
  Rng rng(19);
  size_t abandoned_calls = 0;
  size_t completed_calls = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = 2 + rng.UniformInt(150);
    const size_t p = rng.UniformInt(series.size() - len + 1);
    const size_t q = rng.UniformInt(series.size() - len + 1);
    std::vector<bool> decisions;
    for (const backend::KernelBackend* b : backend::AvailableBackends()) {
      SubsequenceDistance dist(series, kDefaultZNormEpsilon, b);
      // The kernel's own squared sum, from the query normalized the way
      // DistanceScan::SetQuery normalizes it.
      const WindowStats sp = dist.StatsOf(p, len);
      const WindowStats sq = dist.StatsOf(q, len);
      std::vector<double> za(len);
      for (size_t i = 0; i < len; ++i) {
        za[i] = (series[p + i] - sp.mean) * sp.inv_std;
      }
      double sum_sq = 0.0;
      ASSERT_TRUE(b->znorm_distance_block(za.data(), series.data() + q, len,
                                          sq.mean, sq.inv_std,
                                          SubsequenceDistance::kInfinity,
                                          &sum_sq));
      const double full = PairDistance(dist, p, q, len);
      ASSERT_EQ(full, std::sqrt(sum_sq)) << b->name;
      const bool abandoned =
          PairDistance(dist, p, q, len, full) == SubsequenceDistance::kInfinity;
      EXPECT_EQ(abandoned, sum_sq >= full * full)
          << b->name << " len=" << len << " p=" << p << " q=" << q;
      decisions.push_back(abandoned);
    }
    for (const bool abandoned : decisions) {
      EXPECT_EQ(abandoned, decisions.back())
          << "backends disagree: len=" << len << " p=" << p << " q=" << q;
    }
    if (decisions.back()) {
      ++abandoned_calls;
    } else {
      ++completed_calls;
    }
  }
  // Both roundings of sqrt(sum)^2 occur, so both outcomes are exercised.
  EXPECT_GT(abandoned_calls, 0u);
  EXPECT_GT(completed_calls, 0u);
}

TEST(BlockedDistanceTest, FastPathAndLimitedPathAgree) {
  // A limit far above the distance must not perturb the result relative to
  // the unconditional full-length path (same summation order in both).
  const std::vector<double> series = MakeRandomWalk(800, 1.0, 77);
  SubsequenceDistance dist(series, kDefaultZNormEpsilon,
                           backend::ScalarBackend());
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = 4 + rng.UniformInt(120);
    const size_t p = rng.UniformInt(series.size() - len + 1);
    const size_t q = rng.UniformInt(series.size() - len + 1);
    const double unlimited = PairDistance(dist, p, q, len);
    const double limited = PairDistance(dist, p, q, len, unlimited + 1.0);
    EXPECT_EQ(unlimited, limited) << "p=" << p << " q=" << q << " len=" << len;
  }
}

TEST(BlockedDistanceTest, EveryLengthBelowOneBlockMatchesScalar) {
  // Deterministic sweep of the short-subsequence regime the random-length
  // tests only sample: every length from 2 up to one full block runs
  // entirely in the kernel's ragged-tail path (full variant) respectively
  // before the first block-granular limit check (abandoning variant), so
  // each length is its own code shape worth pinning.
  const std::vector<double> series = MakeRandomWalk(400, 1.0, 41);
  SubsequenceDistance dist(series, kDefaultZNormEpsilon,
                           backend::ScalarBackend());
  ScalarReferenceDistance ref(series);
  for (size_t len = 2; len <= SubsequenceDistance::kBlock; ++len) {
    for (size_t p : {size_t{0}, size_t{33}, series.size() - len}) {
      const size_t q = (p + 2 * len + 19) % (series.size() - len + 1);
      const double blocked = PairDistance(dist, p, q, len);
      const double scalar = ref.Distance(p, q, len);
      EXPECT_NEAR(blocked, scalar, 1e-12) << "len=" << len << " p=" << p;

      // Abandoning path, limit above the distance: same value bit-for-bit.
      EXPECT_EQ(PairDistance(dist, p, q, len, blocked + 1.0), blocked)
          << "len=" << len << " p=" << p;
      // Limit below: both kernels must abandon (sum is monotone even when
      // the whole subsequence is shorter than one block).
      if (blocked > 0.0) {
        EXPECT_EQ(PairDistance(dist, p, q, len, blocked * 0.5),
                  SubsequenceDistance::kInfinity)
            << "len=" << len << " p=" << p;
        EXPECT_EQ(ref.Distance(p, q, len, blocked * 0.5),
                  SubsequenceDistance::kInfinity)
            << "len=" << len << " p=" << p;
      }
    }
  }
}

TEST(BlockedDistanceTest, ExactlyOneBlockExercisesNoRaggedTail) {
  // length == kBlock: one full block, zero tail elements — the boundary
  // between the blocked loop and the tail handling on both kernel paths.
  const std::vector<double> series = MakeSine(500, 31.0, 0.12, 17);
  SubsequenceDistance dist(series, kDefaultZNormEpsilon,
                           backend::ScalarBackend());
  ScalarReferenceDistance ref(series);
  const size_t len = SubsequenceDistance::kBlock;
  for (size_t p : {size_t{0}, size_t{7}, size_t{250}, series.size() - len}) {
    const size_t q = (p + 111) % (series.size() - len + 1);
    const double full = PairDistance(dist, p, q, len);
    EXPECT_NEAR(full, ref.Distance(p, q, len), 1e-12) << "p=" << p;
    EXPECT_EQ(PairDistance(dist, p, q, len, full + 1e-6), full) << "p=" << p;
    if (full > 0.0) {
      EXPECT_EQ(PairDistance(dist, p, q, len, full * 0.9),
                SubsequenceDistance::kInfinity)
          << "p=" << p;
    }
  }
}

TEST(BlockedDistanceTest, ZNormEuclideanAgreesWithOracleOnShortLengths) {
  // The span-based convenience wrapper and the prefix-sum oracle implement
  // the same z-normalize + accumulate composition; on short subsequences
  // (below and at one block) they must agree to rounding, including on a
  // flat window where the epsilon guard switches to mean-centering.
  std::vector<double> series = MakeRandomWalk(300, 1.0, 53);
  for (size_t i = 100; i < 100 + SubsequenceDistance::kBlock; ++i) {
    series[i] = 4.2;  // flat stretch: sd < epsilon
  }
  SubsequenceDistance dist(series, kDefaultZNormEpsilon,
                           backend::ScalarBackend());
  for (size_t len :
       {size_t{2}, size_t{5}, size_t{11}, SubsequenceDistance::kBlock}) {
    for (size_t p : {size_t{0}, size_t{100}, size_t{200}}) {
      const size_t q = p + 50;
      const std::span<const double> a(series.data() + p, len);
      const std::span<const double> b(series.data() + q, len);
      EXPECT_NEAR(PairDistance(dist, p, q, len), ZNormEuclideanDistance(a, b),
                  1e-9)
          << "len=" << len << " p=" << p;
    }
  }
}

TEST(BlockedDistanceTest, CountsExactlyOneCallPerInvocationUnderConcurrency) {
  // Both kernel paths (fast and abandoning) add exactly one count per
  // invocation to the calling scan's tally, split by outcome; per-thread
  // scans over a shared oracle must not lose any.
  const std::vector<double> series = MakeSine(600, 40.0, 0.1, 9);
  const SubsequenceDistance dist(series, kDefaultZNormEpsilon,
                                 backend::ScalarBackend());
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 3000;
  std::vector<CallTally> tallies(kThreads);
  std::vector<uint64_t> infinities(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      DistanceScan scan(dist);
      for (int i = 0; i < kCallsPerThread; ++i) {
        const auto p = static_cast<size_t>((t * 11 + i) % 500);
        const auto q = static_cast<size_t>((i * 17) % 500);
        scan.SetQuery(p, 60, dist.StatsOf(p, 60));
        const double limit =
            i % 2 == 0 ? SubsequenceDistance::kInfinity : 0.25;
        if (scan.Distance(q, dist.StatsOf(q, 60), limit) ==
            SubsequenceDistance::kInfinity) {
          ++infinities[static_cast<size_t>(t)];
        }
      }
      tallies[static_cast<size_t>(t)] = scan.tally();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    const CallTally& tally = tallies[static_cast<size_t>(t)];
    EXPECT_EQ(tally.calls(), static_cast<uint64_t>(kCallsPerThread));
    EXPECT_EQ(tally.abandoned, infinities[static_cast<size_t>(t)]);
  }
}

}  // namespace
}  // namespace gva
