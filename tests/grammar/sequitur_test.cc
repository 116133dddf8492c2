#include "grammar/sequitur.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/simple.h"
#include "grammar/audit.h"
#include "sax/sax_transform.h"
#include "util/rng.h"

namespace gva {
namespace {

std::vector<int32_t> Tokens(std::initializer_list<int32_t> list) {
  return std::vector<int32_t>(list);
}

// --- structural invariant checkers -----------------------------------------

// Every rule except R0 is referenced at least twice, and use_count matches
// the actual number of references (Sequitur's *utility* constraint).
void CheckRuleUtility(const Grammar& g) {
  std::vector<size_t> references(g.size(), 0);
  for (const GrammarRule& rule : g.rules()) {
    for (const GrammarSymbol& sym : rule.rhs) {
      if (!sym.is_terminal) {
        ++references[static_cast<size_t>(sym.id)];
      }
    }
  }
  EXPECT_EQ(references[0], 0u) << "R0 must never be referenced";
  for (size_t r = 1; r < g.size(); ++r) {
    EXPECT_GE(references[r], 2u) << "rule utility violated for R" << r;
    EXPECT_EQ(references[r], g.rule(r).use_count) << "R" << r;
    EXPECT_GE(g.rule(r).rhs.size(), 2u)
        << "R" << r << " has a degenerate right-hand side";
  }
}

// No digram appears twice without overlap anywhere in the grammar
// (Sequitur's *uniqueness* constraint).
void CheckDigramUniqueness(const Grammar& g) {
  struct Occurrence {
    size_t rule;
    size_t index;
  };
  std::map<std::pair<std::pair<bool, int32_t>, std::pair<bool, int32_t>>,
           std::vector<Occurrence>>
      digrams;
  for (size_t r = 0; r < g.size(); ++r) {
    const auto& rhs = g.rule(r).rhs;
    for (size_t i = 0; i + 1 < rhs.size(); ++i) {
      digrams[{{rhs[i].is_terminal, rhs[i].id},
               {rhs[i + 1].is_terminal, rhs[i + 1].id}}]
          .push_back({r, i});
    }
  }
  for (const auto& [key, occurrences] : digrams) {
    if (occurrences.size() == 1) {
      continue;
    }
    // Multiple occurrences are only legal when they overlap (a run like
    // "x x x" inside one rule): same rule, adjacent indices.
    ASSERT_EQ(occurrences.size(), 2u)
        << "digram appears " << occurrences.size() << " times";
    EXPECT_EQ(occurrences[0].rule, occurrences[1].rule);
    EXPECT_EQ(occurrences[0].index + 1, occurrences[1].index)
        << "non-overlapping duplicate digram";
  }
}

// Every recorded occurrence of every rule expands to exactly the input
// slice it claims to cover.
void CheckOccurrences(const Grammar& g, const std::vector<int32_t>& input) {
  for (size_t r = 0; r < g.size(); ++r) {
    const GrammarRule& rule = g.rule(r);
    const std::vector<int32_t> expansion = g.ExpandToTerminals(r);
    EXPECT_EQ(expansion.size(), rule.expansion_tokens) << "R" << r;
    if (r == 0) {
      EXPECT_EQ(rule.occurrences, std::vector<size_t>{0});
      continue;
    }
    EXPECT_EQ(rule.occurrences.size(), 0u == rule.use_count
                                           ? 0u
                                           : rule.occurrences.size());
    EXPECT_GE(rule.occurrences.size(), rule.use_count);
    for (size_t start : rule.occurrences) {
      ASSERT_LE(start + expansion.size(), input.size());
      for (size_t i = 0; i < expansion.size(); ++i) {
        EXPECT_EQ(expansion[i], input[start + i])
            << "R" << r << " occurrence at " << start << " position " << i;
      }
    }
    // Occurrences ascend.
    for (size_t i = 1; i < rule.occurrences.size(); ++i) {
      EXPECT_LT(rule.occurrences[i - 1], rule.occurrences[i]);
    }
  }
}

void CheckAllInvariants(const Grammar& g, const std::vector<int32_t>& input) {
  EXPECT_EQ(g.ExpandToTerminals(0), input) << "round trip failed";
  EXPECT_EQ(g.num_tokens(), input.size());
  CheckRuleUtility(g);
  CheckDigramUniqueness(g);
  CheckOccurrences(g, input);
}

// --- basic cases ------------------------------------------------------------

TEST(SequiturTest, EmptyInput) {
  auto g = InferGrammar(std::vector<int32_t>{});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->size(), 1u);
  EXPECT_TRUE(g->rule(0).rhs.empty());
  EXPECT_TRUE(g->ExpandToTerminals(0).empty());
}

TEST(SequiturTest, SingleToken) {
  auto g = InferGrammar(Tokens({7}));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->size(), 1u);
  CheckAllInvariants(*g, {7});
}

TEST(SequiturTest, NoRepetitionYieldsFlatGrammar) {
  std::vector<int32_t> input{1, 2, 3, 4, 5};
  auto g = InferGrammar(input);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->size(), 1u);  // nothing to compress
  CheckAllInvariants(*g, input);
}

TEST(SequiturTest, SimpleRepeatCreatesOneRule) {
  // "abab" -> R0: R1 R1, R1: a b.
  std::vector<int32_t> input{0, 1, 0, 1};
  auto g = InferGrammar(input);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->size(), 2u);
  EXPECT_EQ(g->rule(0).rhs.size(), 2u);
  EXPECT_EQ(g->rule(1).rhs.size(), 2u);
  EXPECT_EQ(g->rule(1).use_count, 2u);
  EXPECT_EQ(g->rule(1).occurrences, (std::vector<size_t>{0, 2}));
  CheckAllInvariants(*g, input);
}

TEST(SequiturTest, RunsOfOneSymbol) {
  for (size_t len : {2u, 3u, 4u, 5u, 6u, 7u, 8u, 15u, 16u, 17u, 100u}) {
    std::vector<int32_t> input(len, 3);
    auto g = InferGrammar(input);
    ASSERT_TRUE(g.ok()) << "len=" << len;
    CheckAllInvariants(*g, input);
  }
}

TEST(SequiturTest, NegativeTokensRejected) {
  EXPECT_FALSE(InferGrammar(Tokens({1, -1, 2})).ok());
}

TEST(SequiturTest, NestedRepetition) {
  // "abab abab" should produce hierarchy: R1 = ab used inside R2 = R1 R1.
  std::vector<int32_t> input{0, 1, 0, 1, 0, 1, 0, 1};
  auto g = InferGrammar(input);
  ASSERT_TRUE(g.ok());
  EXPECT_GE(g->size(), 3u) << "expected hierarchical compression";
  CheckAllInvariants(*g, input);
}

// --- the paper's Section 3 worked example -----------------------------------

TEST(SequiturTest, PaperSectionThreeExample) {
  // S = abc abc cba xxx abc abc cba
  std::vector<std::string> words{"abc", "abc", "cba", "xxx",
                                 "abc", "abc", "cba"};
  auto wg = InferGrammarFromWords(words);
  ASSERT_TRUE(wg.ok());
  const Grammar& g = wg->grammar;
  CheckAllInvariants(g, wg->tokens);

  // The repeated block "abc abc cba" is compressed into a rule used twice,
  // with xxx left bare in R0: R0 -> R? xxx R?.
  ASSERT_EQ(g.rule(0).rhs.size(), 3u);
  EXPECT_FALSE(g.rule(0).rhs[0].is_terminal);
  EXPECT_TRUE(g.rule(0).rhs[1].is_terminal);
  EXPECT_EQ(wg->WordOf(g.rule(0).rhs[1].id), "xxx");
  EXPECT_FALSE(g.rule(0).rhs[2].is_terminal);
  EXPECT_EQ(g.rule(0).rhs[0].id, g.rule(0).rhs[2].id);

  // Per-token rule coverage (the paper's subscript annotation): the xxx
  // token is covered by no rule — algorithmically incompressible — while
  // every other token is covered by at least one rule.
  std::vector<int> coverage(wg->tokens.size(), 0);
  for (size_t r = 1; r < g.size(); ++r) {
    for (size_t start : g.rule(r).occurrences) {
      for (size_t i = 0; i < g.rule(r).expansion_tokens; ++i) {
        ++coverage[start + i];
      }
    }
  }
  EXPECT_EQ(coverage[3], 0) << "xxx must be rule-free";
  for (size_t i = 0; i < coverage.size(); ++i) {
    if (i != 3) {
      EXPECT_GE(coverage[i], 1) << "token " << i;
    }
  }
}

TEST(SequiturTest, PaperSectionThreeOneWordGrammar) {
  // S1 (reduced) = aac abc abb acd aac abc; the paper's grammar has a
  // single rule R1 = aac abc used twice, at token offsets 0 and 4.
  std::vector<std::string> words{"aac", "abc", "abb", "acd", "aac", "abc"};
  auto wg = InferGrammarFromWords(words);
  ASSERT_TRUE(wg.ok());
  const Grammar& g = wg->grammar;
  CheckAllInvariants(g, wg->tokens);
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.rule(1).occurrences, (std::vector<size_t>{0, 4}));
  EXPECT_EQ(g.rule(1).expansion_tokens, 2u);
  // R0 -> R1 abb acd R1.
  ASSERT_EQ(g.rule(0).rhs.size(), 4u);
  EXPECT_FALSE(g.rule(0).rhs[0].is_terminal);
  EXPECT_EQ(wg->WordOf(g.rule(0).rhs[1].id), "abb");
  EXPECT_EQ(wg->WordOf(g.rule(0).rhs[2].id), "acd");
  EXPECT_FALSE(g.rule(0).rhs[3].is_terminal);
}

// --- compression sanity -------------------------------------------------

TEST(SequiturTest, PeriodicInputCompressesLogarithmically) {
  // 2^k copies of "ab" should give a grammar with O(k) rules whose total
  // right-hand-side size is far below the input size.
  std::vector<int32_t> input;
  for (int i = 0; i < 512; ++i) {
    input.push_back(0);
    input.push_back(1);
  }
  auto g = InferGrammar(input);
  ASSERT_TRUE(g.ok());
  size_t grammar_size = 0;
  for (const GrammarRule& r : g->rules()) {
    grammar_size += r.rhs.size();
  }
  EXPECT_LT(grammar_size, 64u) << "expected strong compression";
  CheckAllInvariants(*g, input);
}

TEST(SequiturTest, RandomNoiseBarelyCompresses) {
  Rng rng(99);
  std::vector<int32_t> input;
  for (int i = 0; i < 500; ++i) {
    input.push_back(static_cast<int32_t>(rng.UniformInt(1000)));
  }
  auto g = InferGrammar(input);
  ASSERT_TRUE(g.ok());
  CheckAllInvariants(*g, input);
  // With 1000 distinct symbols over 500 draws, repeats are rare.
  EXPECT_LE(g->size(), 12u);
}

// --- regression corpus ------------------------------------------------------
// Minimized inputs that broke earlier revisions of the digram-index
// maintenance (found by fuzzing): runs of identical symbols whose indexed
// digram was destroyed while an overlapping twin survived unindexed, and
// rule inlining whose spliced boundary digram duplicated an existing one.

TEST(SequiturRegressionTest, OverlappingDigramLosesIndexEntry) {
  // "0 0 0 1 1 1 0 0 0 1 0 1 1 1": the (1,1) digram's index entry used to
  // vanish when its first occurrence was folded, leaving a later (1,1)
  // unfolded — a digram-uniqueness violation.
  std::vector<int32_t> input{0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1};
  auto g = InferGrammar(input);
  ASSERT_TRUE(g.ok());
  CheckAllInvariants(*g, input);
}

TEST(SequiturRegressionTest, ExpandBoundaryDigramDuplicates) {
  // "4 16 16 16 4 16 9 16 16": inlining an underused rule spliced a
  // boundary digram identical to one already present; blind re-indexing
  // (as in the reference implementation) orphaned the other occurrence.
  std::vector<int32_t> input{4, 16, 16, 16, 4, 16, 9, 16, 16};
  auto g = InferGrammar(input);
  ASSERT_TRUE(g.ok());
  CheckAllInvariants(*g, input);
}

TEST(SequiturRegressionTest, DigramsWithCollidingKeysStayDistinct) {
  // The digram (1159822835, 188684876) and the digram (2, 0) have the same
  // 64-bit mix of their symbol ids. An index keyed by the mix alone took
  // the second for a repeat of the first and induced R0 -> R1 7 R1,
  // R1 -> 2 0, whose expansion "2 0 7 2 0" is not the input.
  std::vector<int32_t> input{1159822835, 188684876, 7, 2, 0};
  auto g = InferGrammar(input);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->ExpandToTerminals(0), input);
  EXPECT_EQ(g->size(), 1u) << "no digram repeats, so R0 is the only rule";
  const Status audit = AuditGrammar(*g, input);
  EXPECT_TRUE(audit.ok()) << audit.message();
}

TEST(SequiturRegressionTest, LongRunsMixedWithMotifs) {
  // Runs of length 3-6 interleaved with repeated pairs stress the
  // twin-inheritance path in DeleteDigram.
  std::vector<int32_t> input;
  for (int block = 0; block < 20; ++block) {
    for (int i = 0; i < 3 + block % 4; ++i) {
      input.push_back(7);
    }
    input.push_back(block % 3);
    input.push_back((block + 1) % 3);
  }
  auto g = InferGrammar(input);
  ASSERT_TRUE(g.ok());
  CheckAllInvariants(*g, input);
}

// --- rule-churn golden ------------------------------------------------------
// The (100,5,4) SAX words of a long noisy sine create and retire tens of
// thousands of rules while a few hundred survive, so rule retirement runs
// far more often than anywhere else in the suite. The fingerprint covers
// every rule's right-hand side, use count and occurrences: any change to the
// rule table's bookkeeping that alters a grammar shows here.

uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t GrammarFingerprint(const Grammar& g) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const GrammarRule& rule : g.rules()) {
    hash = Fnv1a(hash, rule.rhs.size());
    for (const GrammarSymbol& sym : rule.rhs) {
      hash = Fnv1a(hash, sym.is_terminal ? 1u : 0u);
      hash = Fnv1a(hash, static_cast<uint32_t>(sym.id));
    }
    hash = Fnv1a(hash, rule.use_count);
    hash = Fnv1a(hash, rule.occurrences.size());
    for (size_t start : rule.occurrences) {
      hash = Fnv1a(hash, start);
    }
  }
  return hash;
}

TEST(SequiturGoldenTest, RuleChurnOnLongSineIsPinned) {
  const LabeledSeries data =
      MakeSineWithAnomaly(200000, 80.0, 0.04, 190000, 90, 7);
  SaxOptions sax;
  sax.window = 100;
  sax.paa_size = 5;
  sax.alphabet_size = 4;
  auto records = Discretize(data.series.values(), sax);
  ASSERT_TRUE(records.ok()) << records.status();
  auto wg = InferGrammarFromWords(records->words);
  ASSERT_TRUE(wg.ok()) << wg.status();
  EXPECT_EQ(wg->tokens.size(), 55142u);
  EXPECT_EQ(wg->grammar.size(), 296u);
  EXPECT_EQ(GrammarFingerprint(wg->grammar), 0xa184de7eebcd9f4bULL);
  const Status audit = AuditGrammar(wg->grammar, wg->tokens);
  EXPECT_TRUE(audit.ok()) << audit.message();
}

// --- randomized property sweep ----------------------------------------------

class SequiturPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, size_t, uint64_t>> {};

TEST_P(SequiturPropertyTest, InvariantsHoldOnRandomStrings) {
  const auto [alphabet, length, seed] = GetParam();
  Rng rng(seed);
  std::vector<int32_t> input;
  input.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    input.push_back(static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(alphabet))));
  }
  auto g = InferGrammar(input);
  ASSERT_TRUE(g.ok());
  CheckAllInvariants(*g, input);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SequiturPropertyTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 8, 26),
                       ::testing::Values<size_t>(2, 3, 7, 50, 300, 1500),
                       ::testing::Values<uint64_t>(1, 2, 3, 4)));

// Structured random strings: repeated motifs embedded in noise, closer to
// the SAX-word sequences the detectors feed in.
class SequiturMotifPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SequiturMotifPropertyTest, InvariantsHoldOnMotifStrings) {
  Rng rng(GetParam());
  std::vector<int32_t> motif;
  for (int i = 0; i < 8; ++i) {
    motif.push_back(static_cast<int32_t>(rng.UniformInt(5)));
  }
  std::vector<int32_t> input;
  for (int block = 0; block < 60; ++block) {
    if (rng.UniformDouble() < 0.7) {
      input.insert(input.end(), motif.begin(), motif.end());
    } else {
      for (int i = 0; i < 5; ++i) {
        input.push_back(static_cast<int32_t>(rng.UniformInt(50)) + 10);
      }
    }
  }
  auto g = InferGrammar(input);
  ASSERT_TRUE(g.ok());
  CheckAllInvariants(*g, input);
  EXPECT_GT(g->size(), 1u) << "motifs must produce rules";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequiturMotifPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

// --- word-level wrapper ------------------------------------------------------

TEST(WordGrammarTest, VocabularyInFirstOccurrenceOrder) {
  auto wg = InferGrammarFromWords({"x", "y", "x", "z"});
  ASSERT_TRUE(wg.ok());
  EXPECT_EQ(wg->vocabulary, (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_EQ(wg->tokens, (std::vector<int32_t>{0, 1, 0, 2}));
  EXPECT_EQ(wg->WordOf(2), "z");
}

TEST(WordGrammarTest, EmptyWordList) {
  auto wg = InferGrammarFromWords({});
  ASSERT_TRUE(wg.ok());
  EXPECT_TRUE(wg->vocabulary.empty());
  EXPECT_EQ(wg->grammar.size(), 1u);
}

}  // namespace
}  // namespace gva
