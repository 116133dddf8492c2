#include "timeseries/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace gva {
namespace {

TEST(StatsTest, MeanBasics) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{7.0}), 7.0);
}

TEST(StatsTest, PopulationVarianceAndStdDev) {
  std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Variance(v), 4.0);  // classic example
  EXPECT_DOUBLE_EQ(StdDev(v), 2.0);
}

TEST(StatsTest, ConstantSeriesHasZeroVariance) {
  std::vector<double> v(100, 3.25);
  EXPECT_DOUBLE_EQ(Variance(v), 0.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 0.0);
}

TEST(StatsTest, MinMax) {
  std::vector<double> v{3.0, -1.0, 4.0, -1.5, 9.0};
  EXPECT_DOUBLE_EQ(Min(v), -1.5);
  EXPECT_DOUBLE_EQ(Max(v), 9.0);
  EXPECT_TRUE(std::isinf(Min(std::vector<double>{})));
  EXPECT_TRUE(std::isinf(Max(std::vector<double>{})));
}

TEST(StatsTest, MeanOfNegativeValues) {
  std::vector<double> v{-3.0, -5.0, -7.0};
  EXPECT_DOUBLE_EQ(Mean(v), -5.0);
}

}  // namespace
}  // namespace gva
