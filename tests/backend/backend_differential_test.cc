// Backend differential suite: every backend this host can run, validated
// against the scalar backend — the kernel level (randomized lengths
// 2..1024 with ragged tails, flat windows, abandon and no-abandon limits,
// limits exactly at the distance), the discretization level
// (byte-identical SAX records), and the search level (brute force / HOTSAX
// / RRA return the same discords under the scalar backend and the CPU's
// choice, swapped through the SetActiveBackend test seam, at 1 and 4
// threads).
//
// Agreement contract (DESIGN.md §11): every backend builds the one distance
// kernel and sums in its one order, so distances are the same bits and
// every abandon decision is the same — no tolerance, not even for a limit
// that ties the distance. On hosts with no AVX2 backend the suite
// degenerates to scalar-vs-scalar and passes trivially.

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.h"
#include "core/rra.h"
#include "datasets/simple.h"
#include "discord/brute_force.h"
#include "discord/distance.h"
#include "discord/distance_test_util.h"
#include "discord/hotsax.h"
#include "sax/sax_transform.h"
#include "util/rng.h"

namespace gva {
namespace {

using backend::AvailableBackends;
using backend::KernelBackend;
using backend::ScalarBackend;

/// A series with oscillating stretches, exactly-flat and sub-epsilon-noise
/// stretches (to hit the centering-only windows), and random-walk tails.
std::vector<double> MakeMixedSeries(size_t n, uint64_t seed) {
  std::vector<double> series(n);
  Rng rng(seed);
  double walk = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t phase = (i / 97) % 4;
    switch (phase) {
      case 0:
        series[i] = std::sin(0.21 * static_cast<double>(i));
        break;
      case 1:
        series[i] = 2.5;  // exactly flat
        break;
      case 2:
        series[i] = -1.0 + 1e-4 * rng.Gaussian();  // flat up to sub-eps noise
        break;
      default:
        walk += 0.1 * rng.Gaussian();
        series[i] = walk;
        break;
    }
  }
  return series;
}

TEST(BackendDifferentialTest, RandomizedLengthsAgainstScalar) {
  const std::vector<double> series = MakeMixedSeries(4096, 99);
  SubsequenceDistance scalar_dist(series, kDefaultZNormEpsilon,
                                  ScalarBackend());
  Rng rng(31337);

  for (int trial = 0; trial < 400; ++trial) {
    // 2..1024, biased toward small lengths so tails and sub-block cases
    // (including every residue mod the lane widths) are well covered.
    const size_t length =
        trial % 2 == 0 ? 2 + rng.UniformInt(63) : 2 + rng.UniformInt(1023);
    const size_t p = rng.UniformInt(series.size() - length + 1);
    const size_t q = rng.UniformInt(series.size() - length + 1);
    const double truth = PairDistance(scalar_dist, p, q, length);

    // Limits: no limit, a clearly-losing limit (abandons), a clearly-
    // winning limit (completes), and the distance itself, where the
    // decision turns on the last bit of the sum.
    const double limits[] = {SubsequenceDistance::kInfinity,
                             truth * 0.6 + 1e-6, truth * 1.7 + 1e-6, truth};
    for (const KernelBackend* b : AvailableBackends()) {
      SubsequenceDistance dist(series, kDefaultZNormEpsilon, b);
      for (const double limit : limits) {
        EXPECT_EQ(PairDistance(dist, p, q, length, limit),
                  PairDistance(scalar_dist, p, q, length, limit))
            << b->name << " p=" << p << " q=" << q << " len=" << length
            << " limit=" << limit;
      }
    }
  }
}

TEST(BackendDifferentialTest, LimitedPathAgreesWithFullPathPerBackend) {
  // Within one backend, a limit that never trips must return the same bits
  // as the unlimited fast path — the two paths share their accumulation
  // structure by contract, on every backend.
  const std::vector<double> series = MakeMixedSeries(2048, 7);
  Rng rng(11);
  for (const KernelBackend* b : AvailableBackends()) {
    SubsequenceDistance dist(series, kDefaultZNormEpsilon, b);
    for (int trial = 0; trial < 100; ++trial) {
      const size_t length = 2 + rng.UniformInt(1023);
      const size_t p = rng.UniformInt(series.size() - length + 1);
      const size_t q = rng.UniformInt(series.size() - length + 1);
      const double full = PairDistance(dist, p, q, length);
      EXPECT_EQ(PairDistance(dist, p, q, length, full * 2.0 + 1.0), full)
          << b->name << " len=" << length;
    }
  }
}

TEST(BackendDifferentialTest, FlatWindowsAgreeBitwiseOnEveryBackend) {
  // Identical flat windows give zero in every lane, and zero sums are
  // exact — the distance must be exactly 0.0, not merely small, on every
  // backend.
  std::vector<double> series(600, 4.0);
  for (size_t i = 300; i < 600; ++i) {
    series[i] = -2.0;
  }
  for (const KernelBackend* b : AvailableBackends()) {
    SubsequenceDistance dist(series, kDefaultZNormEpsilon, b);
    EXPECT_EQ(PairDistance(dist, 0, 100, 150), 0.0) << b->name;
    EXPECT_EQ(PairDistance(dist, 310, 400, 100), 0.0) << b->name;
  }
}

TEST(BackendDifferentialTest, DiscretizeIsByteIdenticalUnderEveryBackend) {
  // The SAX kernel makes no dispatched call (it reads segment sums straight
  // from the prefix table), so the active backend must not change a word or
  // an offset — both for divisible geometry (whole-sample segments) and
  // non-divisible geometry (the fractional-segment path).
  const std::vector<double> series = MakeMixedSeries(5000, 5);
  for (const size_t window : {120u, 97u}) {  // divisible and ragged vs paa=6
    SaxOptions opts;
    opts.window = window;
    opts.paa_size = 6;
    opts.alphabet_size = 5;

    backend::SetActiveBackend(*ScalarBackend());
    const auto reference = Discretize(series, opts);
    ASSERT_TRUE(reference.ok()) << reference.status();

    for (const KernelBackend* b : AvailableBackends()) {
      backend::SetActiveBackend(*b);
      const auto got = Discretize(series, opts);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->words, reference->words) << b->name << " w=" << window;
      EXPECT_EQ(got->offsets, reference->offsets)
          << b->name << " w=" << window;
    }
    backend::SetActiveBackend(*AvailableBackends().front());
  }
}

// ---------------------------------------------------------------------------
// Search-level: dispatch must never change reported discords.

class BackendSearchDifferentialTest : public ::testing::TestWithParam<size_t> {
 protected:
  size_t threads() const { return GetParam(); }

  /// Runs `fn` once under the scalar backend and once under the CPU's
  /// choice, leaves the latter active, and returns the two results.
  template <typename Fn>
  auto UnderBothBackends(Fn&& fn) {
    backend::SetActiveBackend(*ScalarBackend());
    auto scalar_result = fn();
    backend::SetActiveBackend(*AvailableBackends().front());
    auto auto_result = fn();
    return std::make_pair(std::move(scalar_result), std::move(auto_result));
  }
};

INSTANTIATE_TEST_SUITE_P(Threads, BackendSearchDifferentialTest,
                         ::testing::Values(1u, 4u),
                         [](const auto& param_info) {
                           return "threads_" + std::to_string(param_info.param);
                         });

void ExpectSameDiscords(const DiscordResult& scalar_result,
                        const DiscordResult& auto_result) {
  ASSERT_EQ(scalar_result.discords.size(), auto_result.discords.size());
  for (size_t k = 0; k < scalar_result.discords.size(); ++k) {
    EXPECT_EQ(auto_result.discords[k].position,
              scalar_result.discords[k].position)
        << "rank " << k;
    EXPECT_EQ(auto_result.discords[k].length,
              scalar_result.discords[k].length)
        << "rank " << k;
    EXPECT_EQ(auto_result.discords[k].distance,
              scalar_result.discords[k].distance)
        << "rank " << k;
    EXPECT_EQ(auto_result.discords[k].nn_position,
              scalar_result.discords[k].nn_position)
        << "rank " << k;
  }
}

TEST_P(BackendSearchDifferentialTest, BruteForceInvariantUnderDispatch) {
  const LabeledSeries data = MakeSineWithAnomaly(900, 60.0, 0.04, 450, 50, 11);
  auto [scalar_result, auto_result] = UnderBothBackends([&] {
    auto r = FindDiscordsBruteForce(data.series, 60, 3, threads());
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(*r);
  });
  ExpectSameDiscords(scalar_result, auto_result);
}

TEST_P(BackendSearchDifferentialTest, HotSaxInvariantUnderDispatch) {
  const LabeledSeries data = MakeSineWithAnomaly(900, 60.0, 0.04, 450, 50, 11);
  HotSaxOptions options;
  options.sax.window = 60;
  options.top_k = 3;
  options.num_threads = threads();
  auto [scalar_result, auto_result] = UnderBothBackends([&] {
    auto r = FindDiscordsHotSax(data.series, options);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(*r);
  });
  ExpectSameDiscords(scalar_result, auto_result);
}

TEST_P(BackendSearchDifferentialTest, RraInvariantUnderDispatch) {
  const LabeledSeries data = MakeSineWithAnomaly(1200, 80.0, 0.05, 600, 60, 3);
  RraOptions options;
  options.sax.window = 80;
  options.sax.paa_size = 4;
  options.sax.alphabet_size = 4;
  options.top_k = 2;
  options.num_threads = threads();
  auto [scalar_result, auto_result] = UnderBothBackends([&] {
    auto r = FindRraDiscords(data.series, options);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r->result);
  });
  ExpectSameDiscords(scalar_result, auto_result);
}

}  // namespace
}  // namespace gva
