// Cross-product integration matrix: each of the library's four detectors,
// on every synthetic dataset family, must run cleanly and produce ranked,
// in-bounds anomalies ordered by that detector's own ranking key. Hit
// requirements are asserted only for the grammar-driven detectors (the
// paper's contribution); the related-work baselines must merely behave
// (they are known to be weaker — that is the paper's point).

#include <gtest/gtest.h>

#include "core/compression_score.h"
#include "core/evaluate.h"
#include "core/frequency_detector.h"
#include "core/rra.h"
#include "core/rule_density_detector.h"
#include "datasets/ecg.h"
#include "datasets/power_demand.h"
#include "datasets/respiration.h"
#include "datasets/tek.h"
#include "datasets/video.h"

namespace gva {
namespace {

struct MatrixCase {
  std::string dataset;
  std::string detector;
};

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  std::string name = info.param.dataset + "_" + info.param.detector;
  for (char& c : name) {
    if (c == '-') {
      c = '_';  // gtest parameter names must be alphanumeric/underscore
    }
  }
  return name;
}

LabeledSeries MakeDataset(const std::string& name) {
  if (name == "ecg") {
    EcgOptions o;
    o.num_beats = 40;
    o.anomalous_beats = {25};
    return MakeEcg(o);
  }
  if (name == "power") {
    PowerDemandOptions o;
    o.weeks = 16;
    o.holiday_days = {52};
    return MakePowerDemand(o);
  }
  if (name == "video") {
    VideoOptions o;
    o.num_cycles = 20;
    o.anomalous_cycles = {11};
    return MakeVideo(o);
  }
  if (name == "tek") {
    TekOptions o;
    o.num_cycles = 16;
    o.anomalous_cycles = {8};
    return MakeTek(o);
  }
  RespirationOptions o;
  return MakeRespiration(o);
}

/// One reported anomaly: where, its rank, and the value of the detector's
/// ranking key.
struct RankedSpan {
  Interval span;
  size_t rank = 0;
  double key = 0.0;
};

/// A detector's top-k anomalies, most anomalous first, and the direction
/// its ranking key runs in.
struct Ranking {
  std::vector<RankedSpan> anomalies;
  bool key_ascending = true;  // lower key = more anomalous
};

/// Runs `detector` with the dataset's recommended SAX options, asking for
/// its top `k` anomalies.
StatusOr<Ranking> Detect(const std::string& detector,
                         const LabeledSeries& data, size_t k) {
  Ranking out;
  if (detector == "rule-density") {
    DensityAnomalyOptions options;
    options.max_anomalies = k;
    GVA_ASSIGN_OR_RETURN(
        DensityDetection detection,
        DetectDensityAnomalies(data.series, data.recommended, options));
    for (const DensityAnomaly& a : detection.anomalies) {
      out.anomalies.push_back({a.span, a.rank, a.mean_density});
    }
  } else if (detector == "rra") {
    RraOptions options;
    options.sax = data.recommended;
    options.top_k = k;
    GVA_ASSIGN_OR_RETURN(RraDetection detection,
                         FindRraDiscords(data.series, options));
    const std::vector<DiscordRecord>& discords = detection.result.discords;
    for (size_t i = 0; i < discords.size(); ++i) {
      out.anomalies.push_back({discords[i].span(), i, discords[i].distance});
    }
    out.key_ascending = false;  // farthest nearest neighbor first
  } else if (detector == "rare-word") {
    FrequencyAnomalyOptions options;
    options.sax = data.recommended;
    options.max_anomalies = k;
    GVA_ASSIGN_OR_RETURN(FrequencyDetection detection,
                         DetectRareWordAnomalies(data.series, options));
    for (const FrequencyAnomaly& a : detection.anomalies) {
      out.anomalies.push_back({a.span, a.rank, a.mean_support});
    }
  } else {
    CompressionScoreOptions options;
    options.sax = data.recommended;
    options.max_anomalies = k;
    GVA_ASSIGN_OR_RETURN(CompressionDetection detection,
                         DetectCompressionAnomalies(data.series, options));
    for (const SegmentScore& s : detection.anomalies) {
      out.anomalies.push_back({s.span, s.rank, s.cost});
    }
    out.key_ascending = false;  // worst-compressing segment first
  }
  return out;
}

class DetectorMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(DetectorMatrixTest, RunsAndProducesSaneRankedAnomalies) {
  const MatrixCase& param = GetParam();
  LabeledSeries data = MakeDataset(param.dataset);

  auto detection = Detect(param.detector, data, 3);
  ASSERT_TRUE(detection.ok()) << detection.status();
  const std::vector<RankedSpan>& anomalies = detection->anomalies;
  ASSERT_FALSE(anomalies.empty());
  for (size_t i = 0; i < anomalies.size(); ++i) {
    const RankedSpan& a = anomalies[i];
    EXPECT_LE(a.span.end, data.series.size());
    EXPECT_GT(a.span.length(), 0u);
    EXPECT_EQ(a.rank, i);
    if (i > 0) {
      const double prev = anomalies[i - 1].key;
      if (detection->key_ascending) {
        EXPECT_LE(prev, a.key);
      } else {
        EXPECT_GE(prev, a.key);
      }
    }
  }

  // The grammar-driven detectors must find the planted anomaly.
  if (param.detector == "rule-density" || param.detector == "rra") {
    std::vector<Interval> found;
    for (const RankedSpan& a : anomalies) {
      found.push_back(a.span);
    }
    EXPECT_GT(Recall(found, data.anomalies, data.recommended.window), 0.0)
        << param.dataset << " / " << param.detector;
  }
}

std::vector<MatrixCase> AllCases() {
  std::vector<MatrixCase> cases;
  for (const char* dataset :
       {"ecg", "power", "video", "tek", "respiration"}) {
    for (const char* detector :
         {"rule-density", "rra", "rare-word", "compression"}) {
      cases.push_back({dataset, detector});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, DetectorMatrixTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace gva
