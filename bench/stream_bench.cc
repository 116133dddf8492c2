// Streaming-engine benchmark: amortized-O(1) ingestion throughput of
// StreamingAnomalyMonitor under unbounded and horizon-bounded operation,
// self-checked against the batch detector. Every configuration CHECKs the
// correctness contract before anything is timed:
//
//   * the final streaming report is identical (records, density curve,
//     ranked anomalies) to DetectDensityAnomalies over the same suffix;
//   * retained state stays horizon-bounded: the token count across live
//     generations never exceeds 4x the horizon worth of windows;
//   * reports drawn mid-stream at a coarse cadence do not change the final
//     report (a grammar snapshot leaves the induction state untouched).
//
// Timings are emitted as machine-readable JSON (default BENCH_stream.json)
// so later PRs have a perf trajectory. The headline acceptance gate is
// >= 1M points/s sustained ingestion on the horizon-bounded configuration,
// and the 64k-horizon row must keep >= 0.7x the 16k row's rate, since the
// per-sample cost must not grow with the horizon (both waived under
// sanitizer instrumentation, where wall-clock is meaningless). The two
// horizon rows are timed in alternating passes, so both see the same host
// load.
//
//   stream_bench [--smoke] [--out PATH]
//
// --smoke runs a seconds-scale configuration and skips the JSON (unless
// --out is given): it is wired into ctest under the `perf-smoke` and
// `streaming` labels to assert the equivalence contract, not speed, so the
// binary cannot bit-rot.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/rule_density_detector.h"
#include "core/streaming.h"
#include "datasets/simple.h"
#include "util/strings.h"

namespace gva {
namespace {

/// Best-of-`reps` wall time of `fn`, in seconds (see kernel_bench.cc for
/// why best-of: single-CPU containers, scheduling noise).
double BestOf(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

struct StreamRow {
  std::string name;
  std::string detail;
  double seconds = 0.0;
  double points = 0.0;
  size_t max_retained_tokens = 0;
  size_t evictions = 0;

  double PointsPerSecond() const { return points / seconds; }
};

void PrintRow(const StreamRow& row) {
  std::printf(
      "%-24s %-44s %8.4fs  %10.0f pts/s  max_tokens=%zu  evicted=%zu\n",
      row.name.c_str(), row.detail.c_str(), row.seconds,
      row.PointsPerSecond(), row.max_retained_tokens, row.evictions);
}

std::string JsonRow(const StreamRow& row) {
  return StrFormat(
      "    {\"name\": \"%s\", \"detail\": \"%s\", \"seconds\": %.6f, "
      "\"points\": %.0f, \"points_per_s\": %.0f, "
      "\"max_retained_tokens\": %zu, \"evictions\": %zu}",
      row.name.c_str(), row.detail.c_str(), row.seconds, row.points,
      row.PointsPerSecond(), row.max_retained_tokens, row.evictions);
}

void ExpectIdenticalDetection(const std::string& name,
                              const DensityDetection& streaming,
                              const DensityDetection& batch) {
  bench::Check(streaming.decomposition.records.words ==
                       batch.decomposition.records.words &&
                   streaming.decomposition.records.offsets ==
                       batch.decomposition.records.offsets,
               name + ": streaming SAX records byte-identical to batch");
  bench::Check(streaming.decomposition.density == batch.decomposition.density,
               name + ": streaming density curve identical to batch");
  bool anomalies_equal = streaming.anomalies.size() == batch.anomalies.size();
  for (size_t i = 0; anomalies_equal && i < batch.anomalies.size(); ++i) {
    anomalies_equal = streaming.anomalies[i].span == batch.anomalies[i].span &&
                      streaming.anomalies[i].min_density ==
                          batch.anomalies[i].min_density &&
                      streaming.anomalies[i].rank == batch.anomalies[i].rank;
  }
  bench::Check(anomalies_equal,
               name + ": streaming anomaly ranking identical to batch");
}

/// One configuration's row with its correctness contract CHECKed
/// (equivalence + memory bound + cadence independence); the caller times
/// it with IngestPass.
StreamRow CheckedRow(const std::string& name, std::span<const double> series,
                     const StreamingOptions& options, size_t report_every) {
  StreamRow row;
  row.name = "stream/" + name;
  row.detail = StrFormat("n=%zu w=%zu paa=%zu a=%zu horizon=%zu",
                         series.size(), options.sax.window,
                         options.sax.paa_size, options.sax.alphabet_size,
                         options.horizon);
  row.points = static_cast<double>(series.size());

  // --- Checked pass (untimed). ---
  auto monitor = StreamingAnomalyMonitor::Create(options);
  bench::Check(monitor.ok(), row.name + ": monitor created");
  if (!monitor.ok()) {
    row.seconds = 1.0;
    return row;
  }
  size_t max_retained = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    monitor->Push(series[i]);
    max_retained = std::max(max_retained, monitor->retained_tokens());
    if (report_every != 0 && (i + 1) % report_every == 0 &&
        i + 1 >= options.sax.window) {
      bench::Check(monitor->Report().ok(),
                   StrFormat("%s: mid-stream report at t=%zu",
                             row.name.c_str(), i + 1));
    }
  }
  row.max_retained_tokens = max_retained;
  row.evictions = monitor->generations_evicted();

  auto final_report = monitor->Report();
  bench::Check(final_report.ok(), row.name + ": final report");
  if (final_report.ok()) {
    std::span<const double> suffix =
        series.subspan(final_report->suffix_start, final_report->suffix_length);
    auto batch = DetectDensityAnomalies(suffix, options.sax, options.density);
    bench::Check(batch.ok(), row.name + ": batch detector on suffix");
    if (batch.ok()) {
      ExpectIdenticalDetection(row.name, final_report->detection, *batch);
    }
    if (options.horizon > 0) {
      // Each live generation covers < 2*horizon samples, at most one token
      // per sample, at most two generations live: 4*horizon bounds the
      // retained token count no matter how long the stream runs.
      bench::Check(max_retained <= 4 * options.horizon,
                   StrFormat("%s: retained tokens %zu <= 4*horizon %zu",
                             row.name.c_str(), max_retained,
                             4 * options.horizon));
      bench::Check(final_report->suffix_length >= options.horizon &&
                       final_report->suffix_length <= 2 * options.horizon,
                   row.name + ": report suffix within [horizon, 2*horizon]");
    } else {
      bench::Check(final_report->suffix_start == 0,
                   row.name + ": unbounded report covers the full prefix");
    }
  }

  // A second monitor with no mid-stream reports must land on the same final
  // report: a report cannot depend on the cadence.
  auto quiet = StreamingAnomalyMonitor::Create(options);
  if (quiet.ok() && final_report.ok()) {
    quiet->PushAll(series);
    auto quiet_report = quiet->Report();
    bench::Check(quiet_report.ok() &&
                     quiet_report->suffix_start == final_report->suffix_start,
                 row.name + ": cadence-independent suffix");
    if (quiet_report.ok()) {
      ExpectIdenticalDetection(row.name + " (quiet replay)",
                               quiet_report->detection,
                               final_report->detection);
    }
  }

  return row;
}

/// One timed pass: a fresh monitor ingests the whole series, with reports
/// at the checked cadence so the timing covers the full operating loop.
void IngestPass(std::span<const double> series,
                const StreamingOptions& options, size_t report_every) {
  auto m = StreamingAnomalyMonitor::Create(options);
  if (!m.ok()) {
    std::abort();
  }
  for (size_t i = 0; i < series.size(); ++i) {
    m->Push(series[i]);
    if (report_every != 0 && (i + 1) % report_every == 0 &&
        i + 1 >= options.sax.window) {
      if (!m->Report().ok()) {
        std::abort();
      }
    }
  }
  if (m->samples_seen() != series.size()) {
    std::abort();  // keep the optimizer honest
  }
}

/// CheckedRow plus the best of `reps` IngestPass timings.
StreamRow BenchStream(const std::string& name,
                      std::span<const double> series,
                      const StreamingOptions& options, size_t report_every,
                      int reps) {
  StreamRow row = CheckedRow(name, series, options, report_every);
  row.seconds =
      BestOf(reps, [&] { IngestPass(series, options, report_every); });
  return row;
}

int Run(bool smoke, const std::string& out_path) {
  bench::Header(smoke ? "Stream bench (smoke)" : "Stream bench");

  StreamingOptions base;
  base.sax.window = 100;
  base.sax.paa_size = 5;
  base.sax.alphabet_size = 4;
  base.density.threshold_fraction = 0.05;

  std::vector<StreamRow> rows;
  if (smoke) {
    LabeledSeries data = MakeSineWithAnomaly(40000, 80.0, 0.04, 30000, 90, 7);
    StreamingOptions unbounded = base;
    rows.push_back(BenchStream("smoke_unbounded", data.series, unbounded,
                               /*report_every=*/8000, 1));
    StreamingOptions bounded = base;
    bounded.horizon = 8000;
    rows.push_back(BenchStream("smoke_horizon_8k", data.series, bounded,
                               /*report_every=*/8000, 1));
  } else {
    // The acceptance configuration: 2M points streamed through a 16k-sample
    // horizon, reports every 50k samples, and the same stream through a
    // 64k-sample horizon.
    LabeledSeries data =
        MakeSineWithAnomaly(2000000, 80.0, 0.04, 1990000, 90, 7);
    constexpr size_t kReportEvery = 50000;
    StreamingOptions bounded = base;
    bounded.horizon = 16000;
    StreamingOptions wide = base;
    wide.horizon = 64000;
    StreamRow narrow_row = CheckedRow("sine_2M_horizon_16k", data.series,
                                      bounded, kReportEvery);
    StreamRow wide_row =
        CheckedRow("sine_2M_horizon_64k", data.series, wide, kReportEvery);
    // The second gate is a ratio of these two rows, so they are timed in
    // alternating passes (16k, 64k, 16k, ...): load that comes and goes on
    // a shared host then reaches both rows alike, instead of whichever row
    // happened to run during it.
    const auto one_pass = [&](const StreamingOptions& options) {
      return BestOf(1,
                    [&] { IngestPass(data.series, options, kReportEvery); });
    };
    narrow_row.seconds = one_pass(bounded);
    wide_row.seconds = one_pass(wide);
    for (int pass = 1; pass < 5; ++pass) {
      narrow_row.seconds = std::min(narrow_row.seconds, one_pass(bounded));
      wide_row.seconds = std::min(wide_row.seconds, one_pass(wide));
    }
    rows.push_back(narrow_row);
    rows.push_back(wide_row);
    StreamingOptions unbounded = base;
    rows.push_back(BenchStream("sine_1M_unbounded",
                               std::span<const double>(data.series.values())
                                   .first(1000000),
                               unbounded, /*report_every=*/0, 3));
  }

  std::printf("\n");
  for (const StreamRow& row : rows) {
    PrintRow(row);
  }

  // The headline acceptance number: sustained ingestion at >= 1M points/s
  // on the horizon-bounded configuration, reports included. A 4x wider
  // horizon retains 4x the grammar, but the cost per sample must not grow
  // with it; 0.7x leaves room for its 4x longer reports.
  if (!smoke) {
#ifdef GVA_SANITIZED
    bench::Check(true,
                 "ingestion throughput gates waived under sanitizer "
                 "instrumentation");
#else
    bench::Check(rows[0].PointsPerSecond() >= 1e6,
                 StrFormat("horizon-bounded ingestion %.0f points/s >= 1M",
                           rows[0].PointsPerSecond()));
    bench::Check(rows[1].PointsPerSecond() >= 0.7 * rows[0].PointsPerSecond(),
                 StrFormat("horizon-64k ingestion %.0f points/s >= 0.7x "
                           "horizon-16k %.0f points/s",
                           rows[1].PointsPerSecond(),
                           rows[0].PointsPerSecond()));
#endif
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::string json = "{\n  \"bench\": \"stream_bench\",\n";
    json += StrFormat("  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    json +=
        "  \"note\": \"StreamingAnomalyMonitor sustained ingestion; each "
        "row is best-of-N over the full stream with mid-stream reports at "
        "the checked cadence (the two horizon rows: best of 5 passes each, "
        "timed alternately). Equivalence vs DetectDensityAnomalies and the "
        "4*horizon retained-token bound are CHECKed before timing.\",\n";
    json += "  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      json += JsonRow(rows[i]);
      json += i + 1 < rows.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
  }
  return bench::CheckExitCode();
}

}  // namespace
}  // namespace gva

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_stream.json";
  bool out_set = false;
  gva::bench::ObsFlags obs_flags;
  for (int i = 1; i < argc; ++i) {
    if (gva::bench::ParseObsFlag(argv[i], &obs_flags)) {
      continue;
    }
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
      out_set = true;
    } else {
      std::printf(
          "usage: stream_bench [--smoke] [--out PATH] [--trace=PATH] "
          "[--metrics=PATH] [--quiet]\n");
      return 2;
    }
  }
  if (smoke && !out_set) {
    out_path.clear();  // smoke mode asserts equivalence; no JSON by default
  }
  auto session = gva::bench::MakeObsSession(obs_flags);
  return gva::Run(smoke, out_path);
}
