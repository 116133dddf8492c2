#include "backend/backend.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/session.h"
#include "util/rng.h"

namespace gva::backend {
namespace {

TEST(BackendRegistryTest, ScalarIsAlwaysAvailable) {
  const KernelBackend* scalar = ScalarBackend();
  ASSERT_NE(scalar, nullptr);
  EXPECT_STREQ(scalar->name, "scalar");
  EXPECT_EQ(scalar->id, BackendId::kScalar);
  EXPECT_NE(scalar->znorm_distance_block, nullptr);
}

TEST(BackendRegistryTest, AvailableBackendsEndsWithScalarAndIsComplete) {
  const std::vector<const KernelBackend*> backends = AvailableBackends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.back(), ScalarBackend());
  // Every advertised backend has a well-formed table.
  for (const KernelBackend* b : backends) {
    EXPECT_NE(b->name, nullptr);
    EXPECT_NE(b->znorm_distance_block, nullptr);
  }
  // The AVX2 build, when the CPU runs it, is the one preferred.
  if (const KernelBackend* avx2 = Avx2Backend()) {
    EXPECT_EQ(backends.front(), avx2);
    EXPECT_EQ(avx2->id, BackendId::kAvx2);
  }
}

TEST(BackendRegistryTest, ActiveBackendIsTheFirstAvailable) {
  // The CPU decides: the active backend is the front of the preference
  // list. Every test in this binary that swaps it restores the front.
  EXPECT_EQ(&ActiveBackend(), AvailableBackends().front());
}

TEST(BackendRegistryTest, SetActiveBackendApplies) {
  SetActiveBackend(*ScalarBackend());
  EXPECT_EQ(&ActiveBackend(), ScalarBackend());

  SetActiveBackend(*AvailableBackends().front());
  EXPECT_EQ(&ActiveBackend(), AvailableBackends().front());
}

TEST(BackendRegistryTest, SelectionSurvivesCaptureSession) {
  // The selection is recorded once, when it is made; a metrics session
  // opened afterwards (gva_cli and the bench mains resolve the backend
  // first) must still export it.
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "metrics compiled out";
  }
  SetActiveBackend(*ScalarBackend());
  const std::string metrics_path =
      ::testing::TempDir() + "gva_backend_selection_metrics.json";
  {
    obs::ObsSession::Options options;
    options.metrics_path = metrics_path;
    options.announce = false;
    obs::ObsSession session(options);
    EXPECT_EQ(obs::GlobalMetrics().gauge("backend.selected").value(),
              static_cast<int64_t>(BackendId::kScalar));
  }
  std::remove(metrics_path.c_str());
  SetActiveBackend(*AvailableBackends().front());
  EXPECT_EQ(obs::GlobalMetrics().gauge("backend.selected").value(),
            static_cast<int64_t>(ActiveBackend().id));
}

TEST(BackendDistanceKernelTest, InfiniteLimitNeverAbandons) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(7);
  std::vector<double> a(300);
  std::vector<double> b(300);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Gaussian();
    b[i] = rng.Gaussian();
  }
  for (const KernelBackend* backend : AvailableBackends()) {
    double sum_sq = -1.0;
    EXPECT_TRUE(backend->znorm_distance_block(a.data(), b.data(), a.size(),
                                              0.0, 1.0, kInf, &sum_sq))
        << backend->name;
    EXPECT_GE(sum_sq, 0.0) << backend->name;
  }
}

}  // namespace
}  // namespace gva::backend
