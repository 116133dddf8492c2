// Golden pins of whole discord-search results. Every field of the
// DiscordResult that HOTSAX, RRA~, RRAx and brute force return — each
// discord's position, length, distance bits, neighbor and rule, the call
// split, and the visited/pruned counts — is folded into one FNV-1a
// fingerprint per (generator, search), on small instances of the Table-1
// generators. Any change to the distance kernel, the window statistics,
// the visit orders or the call accounting that moves one bit of a result
// shows here.
//
// Every backend builds the same distance kernel and sums in the same order
// (DESIGN.md §11), so each search runs under every available backend and
// must match the one set of fingerprints on each. The fixture restores the
// previously active backend afterwards.

#include <bit>
#include <cstdio>
#include <cstdint>
#include <ostream>
#include <span>
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
  return hash;
}

/// A readable summary printed next to a fingerprint mismatch.
std::string Describe(const DiscordResult& r) {
  std::string out = "calls=" + std::to_string(r.distance_calls) +
                    " completed=" + std::to_string(r.distance_calls_completed) +
                    " abandoned=" + std::to_string(r.distance_calls_abandoned) +
                    " visited=" + std::to_string(r.candidates_visited) +
                    " pruned=" + std::to_string(r.candidates_pruned);
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
  void SetUp() override { previous_ = &backend::ActiveBackend(); }
  void TearDown() override { backend::SetActiveBackend(*previous_); }

 private:
  const backend::KernelBackend* previous_ = nullptr;
};

constexpr size_t kTopK = 3;

/// Runs the four searches of `c` under the active backend and checks each
/// result against its pin.
void ExpectPinnedResults(const GoldenCase& c, std::span<const double> series,
                         const SaxOptions& sax) {
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

TEST_P(SearchGoldenTest, WholeResultIsPinned) {
  const GoldenCase& c = GetParam();
  const LabeledSeries data = c.make();
  const std::span<const double> series = data.series.values();
  SaxOptions sax;
  sax.window = c.window;
  sax.paa_size = c.paa;
  sax.alphabet_size = c.alphabet;

  for (const backend::KernelBackend* b : backend::AvailableBackends()) {
    SCOPED_TRACE(b->name);
    backend::SetActiveBackend(*b);
    ExpectPinnedResults(c, series, sax);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1Generators, SearchGoldenTest,
    ::testing::Values(
        GoldenCase{"ecg0606", &Ecg0606, 120, 4, 4, 0x55a95e23c2bfc7d9ULL,
                   0xa093e538e410e0b3ULL, 0x4b408003ab80b81aULL,
                   0x0735af10705151e2ULL},
        GoldenCase{"video", &Video, 150, 5, 3, 0xc259c13230f6adfeULL,
                   0x0ac495026252b3d2ULL, 0xf974556dec1ba520ULL,
                   0x647ff6b1df380c94ULL},
        GoldenCase{"tek16", &Tek16, 128, 4, 4, 0x3803b4fd3bdf381dULL,
                   0x18400668b59b8fbcULL, 0xb9a564c8f200dd85ULL,
                   0x6d62a070f6746ed8ULL},
        GoldenCase{"respiration43", &Respiration43, 128, 5, 4,
                   0xa4c9fbe3cfb9241aULL, 0x9d4827546733a885ULL,
                   0x80dc11c41a65d57eULL, 0xae984745e7245f6fULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& golden) {
      return std::string(golden.param.name);
    });

}  // namespace
}  // namespace gva
