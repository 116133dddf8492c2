#include "sax/sax_transform.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/simple.h"
#include "timeseries/sliding_window.h"

namespace gva {
namespace {

SaxOptions Opts(size_t window, size_t paa, size_t alpha,
                NumerosityReduction nr = NumerosityReduction::kExact) {
  SaxOptions o;
  o.window = window;
  o.paa_size = paa;
  o.alphabet_size = alpha;
  o.numerosity = nr;
  return o;
}

TEST(SaxOptionsTest, ValidationCatchesBadParameters) {
  EXPECT_TRUE(Opts(16, 4, 4).Validate().ok());
  EXPECT_FALSE(Opts(1, 1, 4).Validate().ok());    // window too small
  EXPECT_FALSE(Opts(16, 0, 4).Validate().ok());   // paa zero
  EXPECT_FALSE(Opts(16, 17, 4).Validate().ok());  // paa > window
  EXPECT_FALSE(Opts(16, 4, 1).Validate().ok());   // alphabet too small
  EXPECT_FALSE(Opts(16, 4, 27).Validate().ok());  // alphabet too large
  SaxOptions bad = Opts(16, 4, 4);
  bad.znorm_epsilon = -1.0;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(SaxOptionsTest, NonFiniteEpsilonIsRejected) {
  const std::vector<double> series = MakeSine(200, 25.0, 0.0, 3);
  for (const double eps : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SaxOptions opts = Opts(16, 4, 4);
    opts.znorm_epsilon = eps;
    EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument) << eps;
    EXPECT_EQ(Discretize(series, opts).status().code(),
              StatusCode::kInvalidArgument)
        << eps;
  }
}

TEST(SaxWordTest, SameLettersAgreesWithStringEquality) {
  // Every length through the 8- and 4-byte steps and the byte tail, with
  // the difference at every position.
  for (size_t n = 0; n <= 20; ++n) {
    const std::string word(n, 'c');
    EXPECT_TRUE(SameLetters(word, word)) << n;
    EXPECT_FALSE(SameLetters(word, word + "c")) << n;
    for (size_t at = 0; at < n; ++at) {
      std::string other = word;
      other[at] = 'd';
      EXPECT_FALSE(SameLetters(word, other)) << n << " at " << at;
    }
  }
}

TEST(SaxWordTest, RampMapsToAscendingLetters) {
  std::vector<double> ramp;
  for (int i = 0; i < 40; ++i) {
    ramp.push_back(static_cast<double>(i));
  }
  NormalAlphabet alphabet(4);
  std::string word = SaxWordForWindow(ramp, Opts(40, 4, 4), alphabet);
  EXPECT_EQ(word, "abcd");
}

TEST(SaxWordTest, DescendingRampReverses) {
  std::vector<double> ramp;
  for (int i = 40; i > 0; --i) {
    ramp.push_back(static_cast<double>(i));
  }
  NormalAlphabet alphabet(4);
  EXPECT_EQ(SaxWordForWindow(ramp, Opts(40, 4, 4), alphabet), "dcba");
}

TEST(SaxWordTest, FlatWindowIsAllMidLetters) {
  std::vector<double> flat(24, 5.0);
  NormalAlphabet alphabet(4);
  // Mean-centered zeros land in the upper-middle region ('c' for size 4
  // since 0 sits on the middle breakpoint).
  EXPECT_EQ(SaxWordForWindow(flat, Opts(24, 4, 4), alphabet), "cccc");
}

TEST(SaxWordTest, ShapeInvariantToScaleAndOffset) {
  std::vector<double> base;
  for (int i = 0; i < 60; ++i) {
    base.push_back(std::sin(0.3 * i));
  }
  std::vector<double> scaled;
  for (double v : base) {
    scaled.push_back(250.0 * v - 77.0);
  }
  NormalAlphabet alphabet(5);
  EXPECT_EQ(SaxWordForWindow(base, Opts(60, 6, 5), alphabet),
            SaxWordForWindow(scaled, Opts(60, 6, 5), alphabet));
}

TEST(DiscretizeTest, FailsWhenSeriesShorterThanWindow) {
  std::vector<double> v(10, 0.0);
  EXPECT_FALSE(Discretize(v, Opts(20, 4, 4)).ok());
}

TEST(DiscretizeTest, AllWindowsKeepsEveryPosition) {
  std::vector<double> v = MakeSine(200, 25.0, 0.05, 1);
  auto records = DiscretizeAllWindows(v, Opts(50, 5, 4));
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), NumSlidingWindows(200, 50));
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ(records->offsets[i], i);
  }
}

TEST(DiscretizeTest, ExactReductionDropsConsecutiveDuplicates) {
  std::vector<double> v = MakeSine(400, 40.0, 0.0, 2);
  auto all = DiscretizeAllWindows(v, Opts(40, 4, 4));
  auto reduced = Discretize(v, Opts(40, 4, 4));
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(reduced.ok());
  EXPECT_LT(reduced->size(), all->size());
  // No two consecutive kept words are equal.
  for (size_t i = 1; i < reduced->size(); ++i) {
    EXPECT_NE(reduced->words[i], reduced->words[i - 1]);
  }
  // Offsets are strictly increasing and within range.
  for (size_t i = 1; i < reduced->size(); ++i) {
    EXPECT_LT(reduced->offsets[i - 1], reduced->offsets[i]);
  }
  EXPECT_EQ(reduced->offsets.front(), 0u);
}

TEST(DiscretizeTest, ReducedIsSubsequenceOfAll) {
  std::vector<double> v = MakeSine(300, 30.0, 0.02, 3);
  auto all = DiscretizeAllWindows(v, Opts(30, 5, 5));
  auto reduced = Discretize(v, Opts(30, 5, 5));
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(reduced.ok());
  for (size_t i = 0; i < reduced->size(); ++i) {
    const size_t pos = reduced->offsets[i];
    EXPECT_EQ(reduced->words[i], all->words[pos]);
  }
}

TEST(DiscretizeTest, FirstKeptWordIsFirstWindow) {
  std::vector<double> v = MakeSine(100, 20.0, 0.0, 4);
  auto reduced = Discretize(v, Opts(20, 4, 3));
  ASSERT_TRUE(reduced.ok());
  ASSERT_FALSE(reduced->empty());
  EXPECT_EQ(reduced->offsets[0], 0u);
}

TEST(DiscretizeTest, MinDistReductionDropsAtLeastAsMuchAsExact) {
  std::vector<double> v = MakeSine(500, 50.0, 0.05, 5);
  auto exact = Discretize(v, Opts(50, 6, 6, NumerosityReduction::kExact));
  auto mindist = Discretize(v, Opts(50, 6, 6, NumerosityReduction::kMinDist));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(mindist.ok());
  EXPECT_LE(mindist->size(), exact->size());
}

TEST(DiscretizeTest, NoneReductionEqualsAllWindows) {
  std::vector<double> v = MakeSine(150, 25.0, 0.05, 6);
  auto none = Discretize(v, Opts(25, 4, 4, NumerosityReduction::kNone));
  auto all = DiscretizeAllWindows(v, Opts(25, 4, 4));
  ASSERT_TRUE(none.ok());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(none->words, all->words);
  EXPECT_EQ(none->offsets, all->offsets);
}

TEST(DiscretizeTest, ConstantSeriesCollapsesToOneWord) {
  std::vector<double> v(200, 1.0);
  auto reduced = Discretize(v, Opts(20, 4, 4));
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ(reduced->size(), 1u);
}

// The paper's motivating property: numerosity reduction converts the smooth
// sliding-window redundancy into a compact word sequence whose length tracks
// the number of distinct shapes, not the series length.
TEST(DiscretizeTest, PeriodicSeriesReductionIsSubstantial) {
  std::vector<double> v = MakeSine(2000, 100.0, 0.0, 7);
  auto reduced = Discretize(v, Opts(100, 4, 4));
  ASSERT_TRUE(reduced.ok());
  EXPECT_LT(reduced->size(), NumSlidingWindows(2000, 100) / 3);
}

}  // namespace
}  // namespace gva
