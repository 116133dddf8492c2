// Golden pins of whole discord-search results. Every field of the
// DiscordResult that HOTSAX, RRA~, RRAx and brute force return — each
// discord's position, length, distance bits, neighbor and rule, the call
// split, the visited/pruned counts, and the single-thread best-so-far
// trajectory — is folded into one FNV-1a fingerprint per (generator,
// search), on small instances of the Table-1 generators. Any change to the
// distance kernel, the window statistics, the visit orders or the call
// accounting that moves one bit of a result shows here.
//
// The searches run under the scalar backend, whose summation order is the
// bit-exactness contract; the fixture selects it and restores the previous
// backend afterwards.

#include <bit>
#include <cstdio>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.h"
#include "core/rra.h"
#include "datasets/ecg.h"
#include "datasets/respiration.h"
#include "datasets/tek.h"
#include "datasets/video.h"
#include "discord/brute_force.h"
#include "discord/hotsax.h"

namespace gva {
namespace {

uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t ResultFingerprint(const DiscordResult& r) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  hash = Fnv1a(hash, r.discords.size());
  for (const DiscordRecord& d : r.discords) {
    hash = Fnv1a(hash, d.position);
    hash = Fnv1a(hash, d.length);
    hash = Fnv1a(hash, std::bit_cast<uint64_t>(d.distance));
    hash = Fnv1a(hash, d.nn_position);
    hash = Fnv1a(hash, static_cast<uint32_t>(d.rule));
  }
  hash = Fnv1a(hash, r.distance_calls);
  hash = Fnv1a(hash, r.distance_calls_completed);
  hash = Fnv1a(hash, r.distance_calls_abandoned);
  hash = Fnv1a(hash, r.candidates_visited);
  hash = Fnv1a(hash, r.candidates_pruned);
  hash = Fnv1a(hash, r.best_trajectory.size());
  for (const obs::BestSoFarSample& s : r.best_trajectory) {
    hash = Fnv1a(hash, s.at_call);
    hash = Fnv1a(hash, std::bit_cast<uint64_t>(s.distance));
  }
  return hash;
}

/// A readable summary printed next to a fingerprint mismatch.
std::string Describe(const DiscordResult& r) {
  std::string out = "calls=" + std::to_string(r.distance_calls) +
                    " completed=" + std::to_string(r.distance_calls_completed) +
                    " abandoned=" + std::to_string(r.distance_calls_abandoned) +
                    " visited=" + std::to_string(r.candidates_visited) +
                    " pruned=" + std::to_string(r.candidates_pruned) +
                    " trajectory=" + std::to_string(r.best_trajectory.size());
  for (const DiscordRecord& d : r.discords) {
    char line[96];
    std::snprintf(line, sizeof(line), " [%zu+%zu %.17g nn=%zu]", d.position,
                  d.length, d.distance, d.nn_position);
    out += line;
  }
  return out;
}

struct GoldenCase {
  const char* name;
  LabeledSeries (*make)();
  size_t window;
  size_t paa;
  size_t alphabet;
  uint64_t hotsax;
  uint64_t rra_approx;
  uint64_t rra_exact;
  uint64_t brute;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

LabeledSeries Ecg0606() {
  EcgOptions o;
  o.num_beats = 19;
  o.anomalous_beats = {12};
  o.seed = 606;
  return MakeEcg(o);
}

LabeledSeries Video() {
  VideoOptions o;
  o.num_cycles = 20;
  o.anomalous_cycles = {10};
  return MakeVideo(o);
}

LabeledSeries Tek16() {
  TekOptions o;
  o.num_cycles = 10;
  o.anomalous_cycles = {5};
  o.seed = 16;
  return MakeTek(o);
}

LabeledSeries Respiration43() {
  RespirationOptions o;
  o.length = 3000;
  o.anomaly_start = 1800;
  o.seed = 43;
  return MakeRespiration(o);
}

class SearchGoldenTest : public ::testing::TestWithParam<GoldenCase> {
 protected:
  void SetUp() override {
    previous_ = backend::ActiveBackend().name;
    ASSERT_TRUE(backend::SetActiveBackend("scalar").ok());
  }
  void TearDown() override {
    ASSERT_TRUE(backend::SetActiveBackend(previous_).ok());
  }

 private:
  std::string previous_;
};

constexpr size_t kTopK = 3;

TEST_P(SearchGoldenTest, WholeResultIsPinned) {
  const GoldenCase& c = GetParam();
  const LabeledSeries data = c.make();
  const std::span<const double> series = data.series.values();
  SaxOptions sax;
  sax.window = c.window;
  sax.paa_size = c.paa;
  sax.alphabet_size = c.alphabet;

  HotSaxOptions hot_options;
  hot_options.sax = sax;
  hot_options.top_k = kTopK;
  auto hot = FindDiscordsHotSax(series, hot_options);
  ASSERT_TRUE(hot.ok()) << hot.status();
  EXPECT_EQ(ResultFingerprint(*hot), c.hotsax) << std::hex
      << ResultFingerprint(*hot) << std::dec << " " << Describe(*hot);

  RraOptions rra_options;
  rra_options.sax = sax;
  rra_options.top_k = kTopK;
  rra_options.exact_nearest_neighbor = false;
  auto approx = FindRraDiscords(series, rra_options);
  ASSERT_TRUE(approx.ok()) << approx.status();
  EXPECT_EQ(ResultFingerprint(approx->result), c.rra_approx) << std::hex
      << ResultFingerprint(approx->result) << std::dec << " "
      << Describe(approx->result);

  rra_options.exact_nearest_neighbor = true;
  auto exact = FindRraDiscords(series, rra_options);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(ResultFingerprint(exact->result), c.rra_exact) << std::hex
      << ResultFingerprint(exact->result) << std::dec << " "
      << Describe(exact->result);

  auto brute = FindDiscordsBruteForce(series, c.window, kTopK);
  ASSERT_TRUE(brute.ok()) << brute.status();
  EXPECT_EQ(ResultFingerprint(*brute), c.brute) << std::hex
      << ResultFingerprint(*brute) << std::dec << " " << Describe(*brute);
}

INSTANTIATE_TEST_SUITE_P(
    Table1Generators, SearchGoldenTest,
    ::testing::Values(
        GoldenCase{"ecg0606", &Ecg0606, 120, 4, 4, 0x0b14c1551e7736e7ULL,
                   0xc9d450e1adcbefa9ULL, 0x06b7da18a6520bddULL,
                   0xdacb214940c60b01ULL},
        GoldenCase{"video", &Video, 150, 5, 3, 0x9cda0ef9f92ef8f7ULL,
                   0xd962bb88d2028103ULL, 0xe6127aba88cb135bULL,
                   0x755bee9b87b426a4ULL},
        GoldenCase{"tek16", &Tek16, 128, 4, 4, 0x40a9d66db59f07b3ULL,
                   0x5098c3e110493f28ULL, 0x367d701da2966ba7ULL,
                   0xeb0d45bd608dae2bULL},
        GoldenCase{"respiration43", &Respiration43, 128, 5, 4,
                   0x88874eef37cd1addULL, 0xd2e2b06b7d8e9231ULL,
                   0x4a2896a0ae5843acULL, 0x16dcbf9af2e4ef72ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& golden) {
      return std::string(golden.param.name);
    });

}  // namespace
}  // namespace gva
