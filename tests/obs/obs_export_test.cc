#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/rra.h"
#include "datasets/ecg.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/trace.h"

namespace gva {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ObsExportTest : public ::testing::Test {
 protected:
  std::string TmpPath(const std::string& name) {
    return ::testing::TempDir() + "gva_obs_export_" + name;
  }
  void TearDown() override {
    // The session toggles process-wide state; leave it off for other suites.
    obs::GlobalTracer().Disable();
    obs::GlobalTracer().Clear();
    obs::SetStageTimingEnabled(false);
  }
};

TEST_F(ObsExportTest, SessionWritesBothFilesOnDestruction) {
  const std::string trace_path = TmpPath("trace.json");
  const std::string metrics_path = TmpPath("metrics.json");
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  {
    obs::ObsSession::Options options;
    options.trace_path = trace_path;
    options.metrics_path = metrics_path;
    options.announce = false;
    obs::ObsSession session(options);
    EXPECT_TRUE(session.tracing());
    EXPECT_TRUE(session.metrics());
    GVA_OBS_SPAN("export_test.stage");
  }
  const std::string trace = ReadFileOrEmpty(trace_path);
  const std::string metrics = ReadFileOrEmpty(metrics_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(metrics.find("\"metrics\""), std::string::npos);
  if constexpr (obs::kEnabled) {
    EXPECT_NE(trace.find("export_test.stage"), std::string::npos);
    EXPECT_NE(metrics.find("stage.export_test.stage.count"),
              std::string::npos);
  }
}

TEST_F(ObsExportTest, SearchUnderSessionExportsItsMetrics) {
  if constexpr (!obs::kEnabled) {
    return;
  }
  const std::string metrics_path = TmpPath("search_metrics.json");
  {
    obs::ObsSession::Options options;
    options.metrics_path = metrics_path;
    options.announce = false;
    obs::ObsSession session(options);

    EcgOptions ecg;
    ecg.num_beats = 20;
    const LabeledSeries data = MakeEcg(ecg);
    RraOptions rra;
    rra.sax.window = 120;
    rra.sax.paa_size = 4;
    rra.sax.alphabet_size = 4;
    rra.top_k = 1;
    auto detection = FindRraDiscords(data.series, rra);
    ASSERT_TRUE(detection.ok());
  }
  const std::string metrics = ReadFileOrEmpty(metrics_path);
  // The search-level accumulation, the stage spans, and the pool counters
  // all surface in one snapshot.
  EXPECT_NE(metrics.find("search.rra.calls.completed"), std::string::npos);
  EXPECT_NE(metrics.find("search.rra.discords"), std::string::npos);
  EXPECT_NE(metrics.find("stage.grammar.sequitur.us"), std::string::npos);
  EXPECT_NE(metrics.find("threadpool.tasks.inline"), std::string::npos);
}

TEST_F(ObsExportTest, MetricsOnlySessionLeavesTracerIdle) {
  const std::string metrics_path = TmpPath("only_metrics.json");
  {
    obs::ObsSession::Options options;
    options.metrics_path = metrics_path;
    options.announce = false;
    obs::ObsSession session(options);
    EXPECT_FALSE(session.tracing());
    EXPECT_FALSE(obs::GlobalTracer().enabled());
  }
  EXPECT_NE(ReadFileOrEmpty(metrics_path).find("\"metrics\""),
            std::string::npos);
}

}  // namespace
}  // namespace gva
