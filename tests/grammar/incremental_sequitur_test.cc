#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "grammar/audit.h"
#include "grammar/sequitur.h"
#include "util/rng.h"

namespace gva {
namespace {

TEST(IncrementalSequiturTest, RejectsNegativeTokens) {
  IncrementalSequitur s;
  EXPECT_TRUE(s.Append(0).ok());
  EXPECT_FALSE(s.Append(-1).ok());
}

TEST(IncrementalSequiturTest, SnapshotEqualsBatchAtEveryPrefix) {
  Rng rng(21);
  std::vector<int32_t> tokens;
  for (int i = 0; i < 200; ++i) {
    tokens.push_back(static_cast<int32_t>(rng.UniformInt(4)));
  }
  IncrementalSequitur incremental;
  for (size_t n = 0; n < tokens.size(); ++n) {
    ASSERT_TRUE(incremental.Append(tokens[n]).ok());
    if (n % 17 != 0) {  // sample a few prefixes
      continue;
    }
    Grammar snapshot = incremental.ExtractGrammar();
    auto batch = InferGrammar(
        std::span<const int32_t>(tokens.data(), n + 1));
    ASSERT_TRUE(batch.ok());
    // Same rule structure: Sequitur is deterministic, and snapshotting must
    // not disturb the induction.
    ASSERT_EQ(snapshot.size(), batch->size()) << "prefix " << n + 1;
    for (size_t r = 0; r < snapshot.size(); ++r) {
      EXPECT_EQ(snapshot.rule(r).rhs, batch->rule(r).rhs);
      EXPECT_EQ(snapshot.rule(r).occurrences, batch->rule(r).occurrences);
    }
  }
}

TEST(IncrementalSequiturTest, AppendContinuesAfterSnapshot) {
  IncrementalSequitur s;
  for (int32_t t : {0, 1, 0, 1}) {
    ASSERT_TRUE(s.Append(t).ok());
  }
  Grammar first = s.ExtractGrammar();
  EXPECT_EQ(first.num_tokens(), 4u);
  for (int32_t t : {0, 1, 0, 1}) {
    ASSERT_TRUE(s.Append(t).ok());
  }
  Grammar second = s.ExtractGrammar();
  EXPECT_EQ(second.num_tokens(), 8u);
  EXPECT_EQ(second.ExpandToTerminals(0),
            (std::vector<int32_t>{0, 1, 0, 1, 0, 1, 0, 1}));
}

// Random tokens, or a fixed random motif of 13 tokens with one token in 50
// replaced by a random one: the noisy repeats make Sequitur create and
// retire rules all the time, which recycles symbols, rules and digram index
// slots.
std::vector<int32_t> ChurnTokens(bool periodic, int vocabulary, size_t length,
                                 uint64_t seed) {
  Rng rng(seed);
  const auto draw = [&] {
    return static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(vocabulary)));
  };
  std::vector<int32_t> motif(13);
  for (int32_t& t : motif) {
    t = draw();
  }
  std::vector<int32_t> tokens;
  tokens.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    const bool noise = !periodic || rng.UniformInt(50) == 0;
    tokens.push_back(noise ? draw() : motif[i % motif.size()]);
  }
  return tokens;
}

class SequiturChurnTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(SequiturChurnTest, EverySnapshotAuditsAndRoundTrips) {
  const auto [periodic, vocabulary] = GetParam();
  const std::vector<int32_t> tokens = ChurnTokens(
      periodic, vocabulary, 20000, static_cast<uint64_t>(31 + vocabulary));
  IncrementalSequitur sequitur;
  for (size_t n = 1; n <= tokens.size(); ++n) {
    ASSERT_TRUE(sequitur.Append(tokens[n - 1]).ok());
    if (n % 1000 != 0) {
      continue;
    }
    const std::span<const int32_t> prefix(tokens.data(), n);
    const Grammar snapshot = sequitur.ExtractGrammar();
    const Status audit = AuditGrammar(snapshot, prefix);
    ASSERT_TRUE(audit.ok()) << "after " << n << " tokens: "
                            << audit.message();
    ASSERT_EQ(snapshot.ExpandToTerminals(0),
              std::vector<int32_t>(prefix.begin(), prefix.end()))
        << "after " << n << " tokens";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SequiturChurnTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(2, 3, 8, 64)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& param) {
      return std::string(std::get<0>(param.param) ? "periodic" : "random") +
             "_vocab" + std::to_string(std::get<1>(param.param));
    });

TEST(IncrementalSequiturTest, MovedInstanceKeepsAppending) {
  const std::vector<int32_t> tokens = ChurnTokens(true, 8, 6000, 5);
  IncrementalSequitur never_moved;
  IncrementalSequitur first;
  for (size_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(never_moved.Append(tokens[i]).ok());
    ASSERT_TRUE(first.Append(tokens[i]).ok());
  }
  IncrementalSequitur constructed(std::move(first));
  for (size_t i = 2000; i < 4000; ++i) {
    ASSERT_TRUE(never_moved.Append(tokens[i]).ok());
    ASSERT_TRUE(constructed.Append(tokens[i]).ok());
  }
  // Assign over an instance with a grammar of its own, which the
  // assignment releases.
  IncrementalSequitur assigned;
  for (int32_t t : {1, 2, 1, 2, 1, 2}) {
    ASSERT_TRUE(assigned.Append(t).ok());
  }
  assigned = std::move(constructed);
  for (size_t i = 4000; i < tokens.size(); ++i) {
    ASSERT_TRUE(never_moved.Append(tokens[i]).ok());
    ASSERT_TRUE(assigned.Append(tokens[i]).ok());
  }
  ASSERT_EQ(assigned.num_tokens(), tokens.size());
  const Grammar want = never_moved.ExtractGrammar();
  const Grammar got = assigned.ExtractGrammar();
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got.rule(r).rhs, want.rule(r).rhs) << "R" << r;
    EXPECT_EQ(got.rule(r).use_count, want.rule(r).use_count) << "R" << r;
    EXPECT_EQ(got.rule(r).occurrences, want.rule(r).occurrences) << "R" << r;
  }
  EXPECT_EQ(got.ExpandToTerminals(0), tokens);
}

TEST(IncrementalSequiturTest, MoveTransfersState) {
  IncrementalSequitur a;
  for (int32_t t : {5, 6, 5, 6}) {
    ASSERT_TRUE(a.Append(t).ok());
  }
  IncrementalSequitur b = std::move(a);
  EXPECT_EQ(b.num_tokens(), 4u);
  EXPECT_EQ(b.ExtractGrammar().ExpandToTerminals(0),
            (std::vector<int32_t>{5, 6, 5, 6}));
}

}  // namespace
}  // namespace gva
