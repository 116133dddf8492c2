#include "util/math_utils.h"

#include <cmath>

#include <gtest/gtest.h>

namespace gva {
namespace {

TEST(NormalCdfTest, KnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.0), 0.8413447460685429, 1e-9);
  EXPECT_NEAR(NormalCdf(-1.0), 0.15865525393145705, 1e-9);
  EXPECT_NEAR(NormalCdf(1.959963984540054), 0.975, 1e-9);
}

TEST(InverseNormalCdfTest, KnownQuantiles) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-9);
  // The classic SAX breakpoints for alphabet size 4 are -0.6745, 0, 0.6745.
  EXPECT_NEAR(InverseNormalCdf(0.25), -0.6744897501960817, 1e-7);
  EXPECT_NEAR(InverseNormalCdf(0.75), 0.6744897501960817, 1e-7);
  // Alphabet size 3: -0.4307..., 0.4307...
  EXPECT_NEAR(InverseNormalCdf(1.0 / 3.0), -0.4307272992954576, 1e-7);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959963984540054, 1e-7);
}

TEST(InverseNormalCdfTest, RoundTripsWithCdf) {
  for (double p = 0.001; p < 1.0; p += 0.0173) {
    EXPECT_NEAR(NormalCdf(InverseNormalCdf(p)), p, 1e-9) << "p=" << p;
  }
}

TEST(InverseNormalCdfTest, TailsAreFinite) {
  EXPECT_TRUE(std::isfinite(InverseNormalCdf(1e-12)));
  EXPECT_TRUE(std::isfinite(InverseNormalCdf(1.0 - 1e-12)));
  EXPECT_LT(InverseNormalCdf(1e-12), -6.0);
  EXPECT_GT(InverseNormalCdf(1.0 - 1e-12), 6.0);
}

TEST(InverseNormalCdfTest, Antisymmetric) {
  for (double p : {0.01, 0.1, 0.3, 0.45}) {
    EXPECT_NEAR(InverseNormalCdf(p), -InverseNormalCdf(1.0 - p), 1e-9);
  }
}

TEST(InverseNormalCdfDeathTest, RejectsOutOfDomain) {
  EXPECT_DEATH((void)InverseNormalCdf(0.0), "p=");
  EXPECT_DEATH((void)InverseNormalCdf(1.0), "p=");
}

}  // namespace
}  // namespace gva
