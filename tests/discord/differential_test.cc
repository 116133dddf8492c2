// Differential correctness suite: each optimized search is pinned against
// an independent exhaustive reference over the same candidate set, at one
// and several threads.
//
//  - HOTSAX (rare-word ordering + early abandoning + shared-best pruning)
//    must report the same fixed-length discords as brute force.
//  - RRA (frequency ordering + alignment refinement + exhaustive tail)
//    must report the same best discord as a no-pruning exhaustive scan over
//    exactly the candidate intervals BuildRraCandidates assembles.
//
// Distances are compared with EXPECT_DOUBLE_EQ (not a tolerance): the
// searches early-abandon only losing scans, and a completed scan follows
// the same blocked summation order as an unlimited one, so agreement is
// exact by construction — any drift is a real bug in the pruning logic.

#include <gtest/gtest.h>

#include <vector>

#include "core/pipeline.h"
#include "core/rra.h"
#include "datasets/ecg.h"
#include "datasets/simple.h"
#include "discord/brute_force.h"
#include "discord/distance.h"
#include "discord/hotsax.h"
#include "discord/parallel_search.h"

namespace gva {
namespace {

class DifferentialTest : public ::testing::TestWithParam<size_t> {
 protected:
  size_t threads() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(Threads, DifferentialTest,
                         ::testing::Values(1u, 4u),
                         [](const auto& param_info) {
                           return "threads_" + std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// HOTSAX vs brute force.

void ExpectSameDiscords(const DiscordResult& fast,
                        const DiscordResult& reference) {
  ASSERT_EQ(fast.discords.size(), reference.discords.size());
  for (size_t k = 0; k < fast.discords.size(); ++k) {
    EXPECT_DOUBLE_EQ(fast.discords[k].distance,
                     reference.discords[k].distance)
        << "rank " << k;
    EXPECT_EQ(fast.discords[k].position, reference.discords[k].position)
        << "rank " << k;
    EXPECT_EQ(fast.discords[k].length, reference.discords[k].length)
        << "rank " << k;
  }
}

TEST_P(DifferentialTest, HotSaxEqualsBruteForceOnPlantedAnomaly) {
  const LabeledSeries data = MakeSineWithAnomaly(900, 60.0, 0.04, 450, 50, 11);
  HotSaxOptions options;
  options.sax.window = 60;
  options.top_k = 3;
  options.num_threads = threads();
  const auto fast = FindDiscordsHotSax(data.series, options);
  const auto reference =
      FindDiscordsBruteForce(data.series, 60, 3, threads());
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSameDiscords(*fast, *reference);
}

TEST_P(DifferentialTest, HotSaxEqualsBruteForceOnEcg) {
  EcgOptions ecg;
  ecg.num_beats = 12;  // ~1.4k points keeps the quadratic reference fast
  const LabeledSeries data = MakeEcg(ecg);
  HotSaxOptions options;
  options.sax.window = 120;
  options.top_k = 2;
  options.num_threads = threads();
  const auto fast = FindDiscordsHotSax(data.series, options);
  const auto reference =
      FindDiscordsBruteForce(data.series, 120, 2, threads());
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSameDiscords(*fast, *reference);
}

TEST_P(DifferentialTest, HotSaxEqualsBruteForceOnRandomWalk) {
  // Structureless input: every SAX bucket is crowded, so the orderings buy
  // little and the pruning paths get exercised hard.
  const std::vector<double> walk = MakeRandomWalk(700, 1.0, 23);
  HotSaxOptions options;
  options.sax.window = 50;
  options.top_k = 3;
  options.num_threads = threads();
  const auto fast = FindDiscordsHotSax(walk, options);
  const auto reference = FindDiscordsBruteForce(walk, 50, 3, threads());
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSameDiscords(*fast, *reference);
}

// ---------------------------------------------------------------------------
// RRA vs an exhaustive scan over the same candidate set.

/// No-pruning reference for the RRA search: for every candidate interval,
/// the exact length-normalized nearest-non-self-match distance over every
/// sliding position, reduced with the same BestCandidate total order the
/// search uses. O(candidates * series * length) — test-sized inputs only.
BestCandidate ExhaustiveBestOverCandidates(
    std::span<const double> series,
    const std::vector<RuleInterval>& candidates, double znorm_epsilon) {
  const SubsequenceDistance dist(series, znorm_epsilon);
  DistanceScan scan(dist);
  const size_t m = series.size();
  BestCandidate best;
  for (const RuleInterval& cand : candidates) {
    const size_t p = cand.span.start;
    const size_t len = cand.span.length();
    const double norm = static_cast<double>(len);
    double nn = SubsequenceDistance::kInfinity;
    size_t nn_q = 0;
    scan.SetQuery(p, len, dist.StatsOf(p, len));
    for (size_t q = 0; q + len <= m; ++q) {
      const size_t gap = p > q ? p - q : q - p;
      if (gap < len) {
        continue;  // self match, same rule as the search
      }
      const double d = scan.Distance(q, dist.StatsOf(q, len)) / norm;
      if (d < nn) {
        nn = d;
        nn_q = q;
      }
    }
    if (nn != SubsequenceDistance::kInfinity) {
      best.Consider(BestCandidate{nn, p, len, nn_q, cand.rule, true});
    }
  }
  return best;
}

void ExpectRraMatchesExhaustive(std::span<const double> series,
                                const RraOptions& options) {
  const auto decomposition = DecomposeSeries(series, options.sax);
  ASSERT_TRUE(decomposition.ok()) << decomposition.status();
  const std::vector<RuleInterval> candidates =
      BuildRraCandidates(*decomposition, options);
  ASSERT_FALSE(candidates.empty());
  const BestCandidate expected = ExhaustiveBestOverCandidates(
      series, candidates, options.sax.znorm_epsilon);
  ASSERT_TRUE(expected.valid);

  const auto detection =
      FindRraDiscordsInDecomposition(series, *decomposition, options);
  ASSERT_TRUE(detection.ok()) << detection.status();
  ASSERT_FALSE(detection->discords.empty());
  const DiscordRecord& top = detection->discords[0];
  EXPECT_DOUBLE_EQ(top.distance, expected.distance);
  EXPECT_EQ(top.position, expected.position);
  EXPECT_EQ(top.length, expected.length);
}

TEST_P(DifferentialTest, RraEqualsExhaustiveOnPlantedAnomaly) {
  const LabeledSeries data =
      MakeSineWithAnomaly(1500, 100.0, 0.05, 750, 80, 7);
  RraOptions options;
  options.sax.window = 100;
  options.num_threads = threads();
  ExpectRraMatchesExhaustive(data.series, options);
}

TEST_P(DifferentialTest, RraEqualsExhaustiveOnEcg) {
  EcgOptions ecg;
  ecg.num_beats = 15;
  const LabeledSeries data = MakeEcg(ecg);
  RraOptions options;
  options.sax.window = 120;
  options.num_threads = threads();
  ExpectRraMatchesExhaustive(data.series, options);
}

TEST_P(DifferentialTest, RraApproximateModeNeverExceedsExhaustive) {
  // The approximate inner loop (no exhaustive tail) reports a distance at
  // least the true nearest-neighbor distance of its winning candidate —
  // alignment quantization can only miss closer neighbors, never invent
  // them. Differential bound rather than equality.
  const LabeledSeries data =
      MakeSineWithAnomaly(1200, 80.0, 0.05, 600, 60, 31);
  RraOptions options;
  options.sax.window = 80;
  options.exact_nearest_neighbor = false;
  options.num_threads = threads();
  const auto decomposition = DecomposeSeries(data.series, options.sax);
  ASSERT_TRUE(decomposition.ok()) << decomposition.status();
  const auto detection = FindRraDiscordsInDecomposition(
      data.series, *decomposition, options);
  ASSERT_TRUE(detection.ok()) << detection.status();
  ASSERT_FALSE(detection->discords.empty());
  const DiscordRecord& top = detection->discords[0];

  const SubsequenceDistance dist(data.series, options.sax.znorm_epsilon);
  const double norm = static_cast<double>(top.length);
  DistanceScan scan(dist);
  scan.SetQuery(top.position, top.length,
                dist.StatsOf(top.position, top.length));
  double truth = SubsequenceDistance::kInfinity;
  for (size_t q = 0; q + top.length <= data.series.size(); ++q) {
    const size_t gap =
        top.position > q ? top.position - q : q - top.position;
    if (gap < top.length) {
      continue;
    }
    truth = std::min(
        truth, scan.Distance(q, dist.StatsOf(q, top.length)) / norm);
  }
  EXPECT_GE(top.distance, truth);
}

}  // namespace
}  // namespace gva
