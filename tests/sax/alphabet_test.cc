#include "sax/alphabet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/math_utils.h"

namespace gva {
namespace {

TEST(AlphabetTest, Size4HasClassicBreakpoints) {
  NormalAlphabet a(4);
  ASSERT_EQ(a.breakpoints().size(), 3u);
  EXPECT_NEAR(a.breakpoints()[0], -0.6745, 1e-3);
  EXPECT_NEAR(a.breakpoints()[1], 0.0, 1e-9);
  EXPECT_NEAR(a.breakpoints()[2], 0.6745, 1e-3);
}

TEST(AlphabetTest, Size3HasClassicBreakpoints) {
  NormalAlphabet a(3);
  ASSERT_EQ(a.breakpoints().size(), 2u);
  EXPECT_NEAR(a.breakpoints()[0], -0.4307, 1e-3);
  EXPECT_NEAR(a.breakpoints()[1], 0.4307, 1e-3);
}

TEST(AlphabetTest, BreakpointsAscendAndAreEquiprobable) {
  for (size_t size = kMinAlphabetSize; size <= kMaxAlphabetSize; ++size) {
    NormalAlphabet a(size);
    ASSERT_EQ(a.breakpoints().size(), size - 1);
    for (size_t i = 0; i < a.breakpoints().size(); ++i) {
      if (i > 0) {
        EXPECT_LT(a.breakpoints()[i - 1], a.breakpoints()[i]);
      }
      // Each region has probability 1/size.
      EXPECT_NEAR(NormalCdf(a.breakpoints()[i]),
                  static_cast<double>(i + 1) / static_cast<double>(size),
                  1e-7);
    }
  }
}

TEST(AlphabetTest, IndexOfMapsToEquiprobableRegions) {
  NormalAlphabet a(4);
  EXPECT_EQ(a.IndexOf(-10.0), 0u);
  EXPECT_EQ(a.IndexOf(-0.7), 0u);
  EXPECT_EQ(a.IndexOf(-0.5), 1u);
  EXPECT_EQ(a.IndexOf(0.5), 2u);
  EXPECT_EQ(a.IndexOf(0.7), 3u);
  EXPECT_EQ(a.IndexOf(10.0), 3u);
}

TEST(AlphabetTest, ValueOnBreakpointGoesUp) {
  NormalAlphabet a(4);
  EXPECT_EQ(a.IndexOf(0.0), 2u);  // middle breakpoint -> upper region
}

TEST(AlphabetTest, IndexOfIsUpperBoundOnEdgeValues) {
  // IndexOf counts breakpoints instead of binary-searching them; it must
  // return std::upper_bound's index on every value where the two could
  // part: NaN (upper_bound's index is the end), infinities, both zeros,
  // and each breakpoint with its two neighbouring doubles.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t size = kMinAlphabetSize; size <= kMaxAlphabetSize; ++size) {
    const NormalAlphabet a(size);
    const std::vector<double>& cuts = a.breakpoints();
    std::vector<double> values{std::numeric_limits<double>::quiet_NaN(),
                               -std::numeric_limits<double>::quiet_NaN(),
                               kInf, -kInf, 0.0, -0.0};
    for (const double cut : cuts) {
      values.push_back(cut);
      values.push_back(std::nextafter(cut, -kInf));
      values.push_back(std::nextafter(cut, kInf));
    }
    for (const double v : values) {
      const size_t want = static_cast<size_t>(
          std::upper_bound(cuts.begin(), cuts.end(), v) - cuts.begin());
      EXPECT_EQ(a.IndexOf(v), want) << "size " << size << " value " << v;
    }
    EXPECT_EQ(a.IndexOf(std::numeric_limits<double>::quiet_NaN()), size - 1);
  }
}

TEST(AlphabetTest, LetterOf) {
  NormalAlphabet a(4);
  EXPECT_EQ(a.LetterOf(-10.0), 'a');
  EXPECT_EQ(a.LetterOf(-0.3), 'b');
  EXPECT_EQ(a.LetterOf(0.3), 'c');
  EXPECT_EQ(a.LetterOf(10.0), 'd');
  EXPECT_EQ(NormalAlphabet::IndexOfLetter('c'), 2u);
}

TEST(AlphabetTest, CellDistanceZeroForAdjacentLetters) {
  NormalAlphabet a(5);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      const double d = a.CellDistance(r, c);
      if (r == c || r + 1 == c || c + 1 == r) {
        EXPECT_DOUBLE_EQ(d, 0.0);
      } else {
        EXPECT_GT(d, 0.0);
      }
      EXPECT_DOUBLE_EQ(d, a.CellDistance(c, r)) << "symmetry";
    }
  }
}

TEST(AlphabetTest, CellDistanceMatchesBreakpointGap) {
  NormalAlphabet a(4);
  // dist(a, d) = breakpoint[2] - breakpoint[0].
  EXPECT_NEAR(a.CellDistance(0, 3),
              a.breakpoints()[2] - a.breakpoints()[0], 1e-12);
  EXPECT_NEAR(a.CellDistance(0, 2),
              a.breakpoints()[1] - a.breakpoints()[0], 1e-12);
}

TEST(AlphabetDeathTest, RejectsBadSizes) {
  EXPECT_DEATH(NormalAlphabet a(1), "alphabet size");
  EXPECT_DEATH(NormalAlphabet a(27), "alphabet size");
}

}  // namespace
}  // namespace gva
