// Integration tests: the full pipeline (generator -> SAX -> Sequitur ->
// detectors) on every synthetic dataset, asserting the paper's qualitative
// claims — planted anomalies are found, and the distance-call ordering
// RRA < HOTSAX << brute force holds.

#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "core/rra.h"
#include "core/rule_density_detector.h"
#include "datasets/ecg.h"
#include "datasets/power_demand.h"
#include "datasets/respiration.h"
#include "datasets/simple.h"
#include "datasets/tek.h"
#include "datasets/trajectory.h"
#include "datasets/video.h"
#include "discord/brute_force.h"
#include "discord/hotsax.h"

namespace gva {
namespace {

struct Scenario {
  std::string name;
  LabeledSeries data;
};

std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> scenarios;
  {
    EcgOptions o;
    o.num_beats = 50;
    o.anomalous_beats = {30};
    scenarios.push_back({"ecg", MakeEcg(o)});
  }
  {
    PowerDemandOptions o;
    o.weeks = 20;
    o.holiday_days = {59};  // Thursday of week 8
    scenarios.push_back({"power", MakePowerDemand(o)});
  }
  {
    VideoOptions o;
    o.num_cycles = 22;
    o.anomalous_cycles = {12};
    scenarios.push_back({"video", MakeVideo(o)});
  }
  {
    TekOptions o;
    o.num_cycles = 18;
    o.anomalous_cycles = {9};
    scenarios.push_back({"tek", MakeTek(o)});
  }
  {
    RespirationOptions o;
    scenarios.push_back({"respiration", MakeRespiration(o)});
  }
  return scenarios;
}

class EndToEndTest : public ::testing::TestWithParam<size_t> {
 protected:
  static const Scenario& scenario() {
    static const std::vector<Scenario>* scenarios =
        new std::vector<Scenario>(MakeScenarios());
    return (*scenarios)[GetParam()];
  }
};

TEST_P(EndToEndTest, RraFindsPlantedAnomaly) {
  const Scenario& s = scenario();
  RraOptions opts;
  opts.sax = s.data.recommended;
  opts.top_k = 2;
  auto detection = FindRraDiscords(s.data.series, opts);
  ASSERT_TRUE(detection.ok()) << s.name;
  ASSERT_FALSE(detection->result.discords.empty()) << s.name;
  std::vector<Interval> found;
  for (const DiscordRecord& d : detection->result.discords) {
    found.push_back(d.span());
  }
  EXPECT_GT(Recall(found, s.data.anomalies, opts.sax.window), 0.0)
      << s.name << ": none of the top discords hit the planted anomaly";
}

TEST_P(EndToEndTest, DensityCurveDipsAtPlantedAnomaly) {
  const Scenario& s = scenario();
  DensityAnomalyOptions density_opts;
  density_opts.threshold_fraction = 0.1;
  auto detection =
      DetectDensityAnomalies(s.data.series, s.data.recommended, density_opts);
  ASSERT_TRUE(detection.ok()) << s.name;
  ASSERT_FALSE(detection->anomalies.empty()) << s.name;
  std::vector<Interval> found;
  for (const DensityAnomaly& a : detection->anomalies) {
    found.push_back(a.span);
  }
  EXPECT_GT(Recall(found, s.data.anomalies, s.data.recommended.window), 0.0)
      << s.name;
}

TEST_P(EndToEndTest, CallOrderingRraBelowHotSaxBelowBruteForce) {
  const Scenario& s = scenario();
  RraOptions rra_opts;
  rra_opts.sax = s.data.recommended;
  auto rra = FindRraDiscords(s.data.series, rra_opts);
  HotSaxOptions hot_opts;
  hot_opts.sax = s.data.recommended;
  auto hot = FindDiscordsHotSax(s.data.series, hot_opts);
  ASSERT_TRUE(rra.ok()) << s.name;
  ASSERT_TRUE(hot.ok()) << s.name;
  const uint64_t brute =
      BruteForceCallCount(s.data.series.size(), s.data.recommended.window);
  EXPECT_LT(rra->result.distance_calls, hot->distance_calls) << s.name;
  EXPECT_LT(hot->distance_calls, brute / 10) << s.name;
}

INSTANTIATE_TEST_SUITE_P(Datasets, EndToEndTest,
                         ::testing::Range<size_t>(0, 5));

TEST(TrajectoryEndToEndTest, DensityFindsDetour) {
  TrajectoryOptions opts;
  TrajectoryData data = MakeTrajectory(opts);
  DensityAnomalyOptions density_opts;
  density_opts.threshold_fraction = 0.05;
  auto detection = DetectDensityAnomalies(
      data.labeled.series, data.labeled.recommended, density_opts);
  ASSERT_TRUE(detection.ok());
  ASSERT_FALSE(detection->anomalies.empty());
  std::vector<Interval> found;
  for (const DensityAnomaly& a : detection->anomalies) {
    found.push_back(a.span);
  }
  // The detour (first ground-truth interval) is the density method's target.
  EXPECT_TRUE(HitsAnyTruth(data.labeled.anomalies[0], found,
                           data.labeled.recommended.window))
      << "density curve missed the detour";
}

TEST(TrajectoryEndToEndTest, RraFindsAnAnomalousTrip) {
  TrajectoryOptions opts;
  TrajectoryData data = MakeTrajectory(opts);
  RraOptions rra_opts;
  rra_opts.sax = data.labeled.recommended;
  rra_opts.top_k = 3;
  auto detection = FindRraDiscords(data.labeled.series, rra_opts);
  ASSERT_TRUE(detection.ok());
  ASSERT_FALSE(detection->result.discords.empty());
  std::vector<Interval> found;
  for (const DiscordRecord& d : detection->result.discords) {
    found.push_back(d.span());
  }
  EXPECT_GT(Recall(found, data.labeled.anomalies,
                   data.labeled.recommended.window),
            0.0);
}

// The paper's headline qualitative claim, end to end on the ECG data: both
// detectors point at the same planted beat that HOTSAX (exact baseline)
// finds.
TEST(AgreementTest, AllThreeDetectorsAgreeOnEcg) {
  EcgOptions o;
  o.num_beats = 45;
  o.anomalous_beats = {25};
  LabeledSeries data = MakeEcg(o);
  SaxOptions sax = data.recommended;

  HotSaxOptions hot_opts;
  hot_opts.sax = sax;
  auto hot = FindDiscordsHotSax(data.series, hot_opts);
  RraOptions rra_opts;
  rra_opts.sax = sax;
  auto rra = FindRraDiscords(data.series, rra_opts);
  auto density = DetectDensityAnomalies(data.series, sax, {});
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(rra.ok());
  ASSERT_TRUE(density.ok());

  const Interval truth = data.anomalies[0];
  EXPECT_TRUE(hot->discords[0].span().Overlaps(truth));
  EXPECT_TRUE(rra->result.discords[0].span().Overlaps(truth));
  ASSERT_FALSE(density->anomalies.empty());
  const Interval widened{truth.start >= sax.window
                             ? truth.start - sax.window
                             : 0,
                         truth.end + sax.window};
  EXPECT_TRUE(density->anomalies[0].span.Overlaps(widened));
}

}  // namespace
}  // namespace gva
