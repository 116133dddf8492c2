// Differential correctness suite for the streaming engine: the streaming
// report must be bit-for-bit identical to the batch detector run over the
// same suffix/horizon, at every report cadence, with the batch side
// computed through the parallel z-plane substrate (so the ThreadPool is
// exercised and the suite runs under tsan via the `concurrency` label).
// Streaming changes *when* work happens, never the result.

#include <algorithm>
#include <cstddef>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/rule_density_detector.h"
#include "core/streaming.h"
#include "datasets/simple.h"
#include "sax/sax_transform.h"
#include "util/thread_pool.h"

namespace gva {
namespace {

/// Batch detection over `suffix` computed through the threaded substrate:
/// parallel z-plane -> guarded letter mapping -> decomposition tail ->
/// anomaly extraction. By the z-plane's byte-exactness contract this equals
/// DetectDensityAnomalies(suffix, sax, density) for every thread count.
DensityDetection BatchDetect(std::span<const double> suffix,
                             const SaxOptions& sax,
                             const DensityAnomalyOptions& density,
                             ThreadPool* pool) {
  auto plane = ComputeSaxZPlane(suffix, sax, nullptr, pool);
  EXPECT_TRUE(plane.ok()) << plane.status().ToString();
  auto records = DiscretizeWithZPlane(suffix, sax, *plane);
  EXPECT_TRUE(records.ok()) << records.status().ToString();
  auto decomposition =
      DecomposeSeriesWithRecords(suffix, sax, std::move(*records));
  EXPECT_TRUE(decomposition.ok()) << decomposition.status().ToString();
  DensityDetection detection;
  detection.decomposition = std::move(*decomposition);
  detection.anomalies = FindLowDensityIntervals(
      detection.decomposition.density, sax.window, density);
  return detection;
}

void ExpectIdentical(const DensityDetection& streaming,
                     const DensityDetection& batch) {
  ASSERT_EQ(streaming.decomposition.records.words,
            batch.decomposition.records.words);
  ASSERT_EQ(streaming.decomposition.records.offsets,
            batch.decomposition.records.offsets);
  ASSERT_EQ(streaming.decomposition.density, batch.decomposition.density);
  ASSERT_EQ(streaming.anomalies.size(), batch.anomalies.size());
  for (size_t i = 0; i < batch.anomalies.size(); ++i) {
    EXPECT_EQ(streaming.anomalies[i].span, batch.anomalies[i].span);
    EXPECT_EQ(streaming.anomalies[i].min_density,
              batch.anomalies[i].min_density);
    EXPECT_EQ(streaming.anomalies[i].mean_density,
              batch.anomalies[i].mean_density);
    EXPECT_EQ(streaming.anomalies[i].rank, batch.anomalies[i].rank);
  }
}

/// A report cadence plus overrides of each test's own configuration; a
/// zero keeps the test's default. `horizon` applies to the bounded test
/// only, since the unbounded one runs with horizon 0 by definition.
struct StreamCase {
  size_t report_every;
  size_t horizon = 0;
  size_t window = 0;
  size_t paa = 0;
  NumerosityReduction numerosity = NumerosityReduction::kExact;
};

std::string CaseName(const StreamCase& c) {
  std::string name = "every" + std::to_string(c.report_every);
  if (c.horizon != 0) {
    name += "_horizon" + std::to_string(c.horizon);
  }
  if (c.window != 0) {
    name += "_w" + std::to_string(c.window) + "paa" + std::to_string(c.paa);
  }
  if (c.numerosity == NumerosityReduction::kNone) {
    name += "_nonumerosity";
  } else if (c.numerosity == NumerosityReduction::kMinDist) {
    name += "_mindist";
  }
  return name;
}

// gtest would otherwise print the struct's raw bytes, padding included.
void PrintTo(const StreamCase& c, std::ostream* os) { *os << CaseName(c); }

void ApplyCase(const StreamCase& c, StreamingOptions* opts) {
  opts->sax.window = c.window != 0 ? c.window : opts->sax.window;
  opts->sax.paa_size = c.paa != 0 ? c.paa : opts->sax.paa_size;
  opts->sax.numerosity = c.numerosity;
}

class StreamingDifferentialTest : public ::testing::TestWithParam<StreamCase> {
};

// Horizon-bounded streaming vs the batch detector on the retained suffix,
// replayed at the parameterized report cadence and checked against both a
// single-threaded and a 4-thread batch substrate.
TEST_P(StreamingDifferentialTest, StreamEqualsBatchOnSuffix) {
  const size_t report_every = GetParam().report_every;
  LabeledSeries data = MakeSineWithAnomaly(3000, 70.0, 0.04, 2500, 80, 29);
  StreamingOptions opts;
  opts.sax.window = 100;
  opts.sax.paa_size = 5;
  opts.sax.alphabet_size = 4;
  opts.density.threshold_fraction = 0.05;
  opts.horizon = GetParam().horizon != 0 ? GetParam().horizon : 600;
  ApplyCase(GetParam(), &opts);

  auto monitor = StreamingAnomalyMonitor::Create(opts);
  ASSERT_TRUE(monitor.ok());
  ThreadPool single(1);
  ThreadPool quad(4);

  // Every cadence tick draws a report (exercising mid-stream grammar
  // snapshots); the expensive batch recomputation is spot-checked on a
  // subsample of ~20 reports so the fine cadences stay tractable under
  // sanitizers.
  const size_t reports_expected = data.series.size() / report_every;
  const size_t check_every = std::max<size_t>(1, reports_expected / 20);
  size_t reports = 0;
  size_t checked = 0;
  for (size_t i = 0; i < data.series.size(); ++i) {
    monitor->Push(data.series[i]);
    if ((i + 1) % report_every != 0 || i + 1 < opts.sax.window) {
      continue;
    }
    auto report = monitor->Report();
    ASSERT_TRUE(report.ok()) << "at sample " << i + 1;
    ASSERT_EQ(report->suffix_start + report->suffix_length, i + 1);
    if (++reports % check_every != 0) {
      continue;
    }
    std::span<const double> suffix(
        data.series.values().data() + report->suffix_start,
        report->suffix_length);
    ExpectIdentical(report->detection,
                    BatchDetect(suffix, opts.sax, opts.density, &single));
    ExpectIdentical(report->detection,
                    BatchDetect(suffix, opts.sax, opts.density, &quad));
    ++checked;
  }
  EXPECT_GE(checked, 2u) << "cadence too coarse to prove anything";
}

// Unbounded mode (horizon == 0): the report covers the full prefix and
// equals the batch detector on it, independent of cadence.
TEST_P(StreamingDifferentialTest, UnboundedStreamEqualsBatchOnPrefix) {
  const size_t report_every = GetParam().report_every;
  LabeledSeries data = MakeSineWithAnomaly(1400, 50.0, 0.03, 900, 60, 31);
  StreamingOptions opts;
  opts.sax.window = 80;
  opts.sax.paa_size = 4;
  opts.sax.alphabet_size = 5;
  ApplyCase(GetParam(), &opts);

  auto monitor = StreamingAnomalyMonitor::Create(opts);
  ASSERT_TRUE(monitor.ok());
  ThreadPool quad(4);

  const size_t reports_expected = data.series.size() / report_every;
  const size_t check_every = std::max<size_t>(1, reports_expected / 15);
  size_t reports = 0;
  for (size_t i = 0; i < data.series.size(); ++i) {
    monitor->Push(data.series[i]);
    if ((i + 1) % report_every != 0 || i + 1 < opts.sax.window) {
      continue;
    }
    auto report = monitor->Report();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->suffix_start, 0u);
    if (++reports % check_every != 0 && i + 1 != data.series.size()) {
      continue;
    }
    std::span<const double> prefix(data.series.values().data(), i + 1);
    ExpectIdentical(report->detection,
                    BatchDetect(prefix, opts.sax, opts.density, &quad));
  }
}

// Cadence-independence stated directly: monitors replaying the same stream
// under different report schedules end in identical final reports.
TEST(StreamingDifferentialTest2, FinalReportIndependentOfCadence) {
  LabeledSeries data = MakeSineWithAnomaly(2200, 60.0, 0.05, 1800, 70, 41);
  StreamingOptions opts;
  opts.sax.window = 90;
  opts.sax.paa_size = 3;
  opts.sax.alphabet_size = 4;
  opts.horizon = 400;

  std::vector<size_t> cadences = {1, 113, 2200};
  std::vector<StreamingReport> finals;
  for (size_t cadence : cadences) {
    auto monitor = StreamingAnomalyMonitor::Create(opts);
    ASSERT_TRUE(monitor.ok());
    for (size_t i = 0; i < data.series.size(); ++i) {
      monitor->Push(data.series[i]);
      if ((i + 1) % cadence == 0 && i + 1 >= opts.sax.window) {
        ASSERT_TRUE(monitor->Report().ok());
      }
    }
    auto report = monitor->Report();
    ASSERT_TRUE(report.ok());
    finals.push_back(std::move(*report));
  }
  for (size_t i = 1; i < finals.size(); ++i) {
    EXPECT_EQ(finals[i].suffix_start, finals[0].suffix_start);
    EXPECT_EQ(finals[i].suffix_length, finals[0].suffix_length);
    ExpectIdentical(finals[i].detection, finals[0].detection);
  }
}

// Cadences first, then the configurations where generations and words are
// easiest to misalign: a horizon equal to the window (every generation sees
// exactly one window before the next opens) or just past it, a window the
// PAA segments do not divide, and the other two numerosity strategies.
INSTANTIATE_TEST_SUITE_P(
    Cadences, StreamingDifferentialTest,
    ::testing::Values(
        StreamCase{1}, StreamCase{251}, StreamCase{997},
        StreamCase{.report_every = 1, .horizon = 100},
        StreamCase{.report_every = 7, .horizon = 101},
        StreamCase{.report_every = 13, .horizon = 137},
        StreamCase{.report_every = 251, .window = 97, .paa = 6},
        StreamCase{.report_every = 251,
                   .numerosity = NumerosityReduction::kNone},
        StreamCase{.report_every = 251,
                   .numerosity = NumerosityReduction::kMinDist}),
    [](const ::testing::TestParamInfo<StreamCase>& case_info) {
      return CaseName(case_info.param);
    });

}  // namespace
}  // namespace gva
