// gva_cli — command-line front end for the library.
//
//   gva_cli density  <series.csv> [options]  rule-density anomaly discovery
//   gva_cli rra      <series.csv> [options]  RRA variable-length discords
//   gva_cli ensemble <series.csv> [options]  multi-config ensemble scoring
//   gva_cli profile  <series.csv> [options]  parameter-grid profiling
//   gva_cli stream   <series.csv|-> [options] streaming monitor replay
//
// The input may be a CSV path or one of the built-in synthetic datasets
// ("demo:ecg", "demo:power"), which makes the CLI runnable with no files.
// The stream command additionally accepts "-" to consume whitespace-
// separated samples from stdin (live ingestion: nothing is materialized,
// memory stays bounded by --horizon).
//
// Common options (--flag value and --flag=value are both accepted):
//   --column N      CSV column to read (default 0)
//   --window N      sliding window  (default: suggested from the data)
//   --paa N         PAA segments    (default: suggested)
//   --alphabet N    alphabet size   (default: suggested)
//   --top N         anomalies/discords to report (default 3)
//   --threshold F   density threshold fraction (default 0.05)
//   --approx        rra: paper's interval-aligned inner loop (no exact tail)
//   --threads N     rra/ensemble: worker threads (0 = all cores; default 1);
//                   results are identical for every value
//   --csv-out PATH  write the density curve next to the series as CSV
//
// Stream options:
//   --horizon N       eviction horizon in samples; reports cover the last
//                     [horizon, 2*horizon) samples and older state is
//                     dropped (0 = keep everything; default 0). Must be 0
//                     or >= window.
//   --report-every N  draw an incremental report every N samples (0 = only
//                     the final report; default 0). Reports print absolute
//                     stream positions. The `stream.*` counters (samples,
//                     tokens, evictions, reports) show under --metrics.
//
// Ensemble options (also reachable as `density --ensemble`):
//   --grid SPEC     configuration grid, e.g. --grid w:80,160,paa:4,8,a:3,6
//                   (groups: w/window, paa, a/alphabet; a missing group
//                   falls back to the resolved single value). Without
//                   --grid and without explicit --window/--paa/--alphabet,
//                   an automatic grid around the suggested window is used.
//
// Observability (see DESIGN.md §6 and §12):
//   --trace PATH    capture a Chrome trace-event JSON (chrome://tracing)
//   --metrics PATH  write the metrics-registry snapshot as JSON and print
//                   the per-stage timing summary
//   --telemetry-port N  serve live telemetry over HTTP on 127.0.0.1:N for
//                   the process lifetime (0 = ephemeral port, printed at
//                   startup): /metrics (Prometheus), /metrics.json,
//                   /healthz, /flightz (flight-recorder Chrome trace)
//   --quiet         suppress informational chatter (loaded/suggested/wrote
//                   lines and the metrics summary); result tables only
//
// Kernel dispatch (see DESIGN.md §11):
//   --backend NAME  force the kernel backend (scalar|avx2|neon|auto);
//                   default is the GVA_BACKEND environment variable, then
//                   auto-selection (fastest available). Search results are
//                   backend-independent up to floating-point rounding.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "core/parameter_profile.h"
#include "core/rra.h"
#include "core/rule_density_detector.h"
#include "core/streaming.h"
#include "datasets/ecg.h"
#include "ensemble/ensemble.h"
#include "datasets/power_demand.h"
#include "obs/recorder.h"
#include "obs/session.h"
#include "obs/telemetry_server.h"
#include "timeseries/io.h"
#include "util/csv.h"
#include "viz/ascii_plot.h"
#include "viz/report.h"

namespace {

using namespace gva;

struct Args {
  std::string command;
  std::string csv_path;
  std::map<std::string, std::string> options;
  bool has_flag(const std::string& name) const {
    return options.count(name) > 0;
  }
  size_t get_size(const std::string& name, size_t fallback) const {
    auto it = options.find(name);
    return it == options.end()
               ? fallback
               : std::strtoul(it->second.c_str(), nullptr, 10);
  }
  double get_double(const std::string& name, double fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: gva_cli <density|rra|ensemble|profile|stream> "
               "<series.csv|demo:ecg|demo:power|-> "
               "[--window N --paa N --alphabet N --column N --top N "
               "--threshold F --approx --threads N --csv-out PATH "
               "--ensemble --grid SPEC "
               "--horizon N --report-every N "
               "--backend scalar|avx2|neon|auto "
               "--trace PATH --metrics PATH --telemetry-port N --quiet]\n");
  return 2;
}

bool IsBooleanFlag(const std::string& flag) {
  return flag == "approx" || flag == "quiet" || flag == "ensemble";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 3) {
    return false;
  }
  args->command = argv[1];
  args->csv_path = argv[2];
  for (int i = 3; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      return false;
    }
    flag = flag.substr(2);
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      // --flag=value spelling.
      const std::string value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      if (IsBooleanFlag(flag)) {
        return false;
      }
      args->options[flag] = value;
    } else if (IsBooleanFlag(flag)) {
      args->options[flag] = "1";
    } else if (i + 1 < argc) {
      args->options[flag] = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

/// Resolves the input argument: "demo:<name>" builds one of the synthetic
/// datasets in-process, anything else is read as a CSV path.
StatusOr<TimeSeries> LoadInput(const Args& args) {
  if (args.csv_path == "demo:ecg") {
    return MakeEcg().series;
  }
  if (args.csv_path == "demo:power") {
    return MakePowerDemand().series;
  }
  if (args.csv_path.rfind("demo:", 0) == 0) {
    return Status::NotFound("unknown demo dataset '" + args.csv_path +
                            "' (have demo:ecg, demo:power)");
  }
  return ReadTimeSeriesCsv(args.csv_path, args.get_size("column", 0));
}

/// Resolves the SAX options: explicit flags win; missing pieces come from
/// the data-driven suggestion.
StatusOr<SaxOptions> ResolveSax(const Args& args, const TimeSeries& series) {
  SaxOptions sax;
  const bool all_given = args.has_flag("window") && args.has_flag("paa") &&
                         args.has_flag("alphabet");
  if (!all_given) {
    StatusOr<SaxOptions> suggested = SuggestParameters(series);
    if (suggested.ok()) {
      sax = *suggested;
      if (!args.has_flag("quiet")) {
        std::printf("suggested parameters: window=%zu paa=%zu alphabet=%zu\n",
                    sax.window, sax.paa_size, sax.alphabet_size);
      }
    } else if (!args.has_flag("quiet")) {
      std::printf("parameter suggestion failed (%s); using defaults\n",
                  suggested.status().ToString().c_str());
    }
  }
  sax.window = args.get_size("window", sax.window);
  sax.paa_size = args.get_size("paa", sax.paa_size);
  sax.alphabet_size = args.get_size("alphabet", sax.alphabet_size);
  GVA_RETURN_IF_ERROR(sax.Validate());
  return sax;
}

int RunDensity(const Args& args, const TimeSeries& series) {
  StatusOr<SaxOptions> sax = ResolveSax(args, series);
  if (!sax.ok()) {
    std::fprintf(stderr, "%s\n", sax.status().ToString().c_str());
    return 1;
  }
  DensityAnomalyOptions options;
  options.threshold_fraction = args.get_double("threshold", 0.05);
  options.max_anomalies = args.get_size("top", 3);
  auto detection = DetectDensityAnomalies(series, *sax, options);
  if (!detection.ok()) {
    std::fprintf(stderr, "%s\n", detection.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n",
              RenderDensityShading(detection->decomposition.density).c_str());
  std::printf("%s", DensityAnomalyTable(*detection).c_str());
  if (args.has_flag("csv-out")) {
    std::vector<double> density(detection->decomposition.density.begin(),
                                detection->decomposition.density.end());
    Status written = WriteCsvColumns(args.options.at("csv-out"),
                                     {"value", "rule_density"},
                                     {series.values(), density});
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    if (!args.has_flag("quiet")) {
      std::printf("wrote %s\n", args.options.at("csv-out").c_str());
    }
  }
  return 0;
}

int RunRra(const Args& args, const TimeSeries& series) {
  StatusOr<SaxOptions> sax = ResolveSax(args, series);
  if (!sax.ok()) {
    std::fprintf(stderr, "%s\n", sax.status().ToString().c_str());
    return 1;
  }
  RraOptions options;
  options.sax = *sax;
  options.top_k = args.get_size("top", 3);
  options.exact_nearest_neighbor = !args.has_flag("approx");
  options.num_threads = args.get_size("threads", 1);
  auto detection = FindRraDiscords(series, options);
  if (!detection.ok()) {
    std::fprintf(stderr, "%s\n", detection.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", DiscordTable(*detection).c_str());
  return 0;
}

/// Parses a --grid spec of the form `w:80,160,paa:4,8,a:3,6`. A comma
/// token containing ':' opens a new group (w/window, paa/p, a/alphabet);
/// the values after it belong to that group until the next key. Groups the
/// spec leaves out are filled from `fallback` so e.g. `--grid a:3,4,5`
/// sweeps only the alphabet. Returns false on a malformed spec.
bool ParseGridSpec(const std::string& spec, const SaxOptions& fallback,
                   std::vector<EnsembleConfig>* grid) {
  std::vector<size_t> windows;
  std::vector<size_t> paas;
  std::vector<size_t> alphabets;
  std::vector<size_t>* current = nullptr;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    std::string token = spec.substr(start, comma - start);
    start = comma + 1;
    if (token.empty()) {
      continue;
    }
    if (const size_t colon = token.find(':'); colon != std::string::npos) {
      const std::string key = token.substr(0, colon);
      if (key == "w" || key == "window") {
        current = &windows;
      } else if (key == "paa" || key == "p") {
        current = &paas;
      } else if (key == "a" || key == "alphabet") {
        current = &alphabets;
      } else {
        return false;
      }
      token = token.substr(colon + 1);
      if (token.empty()) {
        continue;
      }
    }
    if (current == nullptr) {
      return false;
    }
    char* end = nullptr;
    const unsigned long value = std::strtoul(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || value == 0) {
      return false;
    }
    current->push_back(static_cast<size_t>(value));
  }
  if (windows.empty()) {
    windows.push_back(fallback.window);
  }
  if (paas.empty()) {
    paas.push_back(fallback.paa_size);
  }
  if (alphabets.empty()) {
    alphabets.push_back(fallback.alphabet_size);
  }
  *grid = MakeEnsembleGrid(windows, paas, alphabets);
  return true;
}

int RunEnsembleCommand(const Args& args, const TimeSeries& series) {
  const bool quiet = args.has_flag("quiet");
  EnsembleOptions options;
  options.anomaly.threshold_fraction = args.get_double("threshold", 0.05);
  options.anomaly.max_anomalies = args.get_size("top", 3);
  options.num_threads = args.get_size("threads", 1);

  const bool single_config_flags = args.has_flag("window") ||
                                   args.has_flag("paa") ||
                                   args.has_flag("alphabet");
  if (args.has_flag("grid")) {
    StatusOr<SaxOptions> fallback = ResolveSax(args, series);
    if (!fallback.ok()) {
      std::fprintf(stderr, "%s\n", fallback.status().ToString().c_str());
      return 1;
    }
    if (!ParseGridSpec(args.options.at("grid"), *fallback,
                       &options.configs)) {
      std::fprintf(stderr,
                   "malformed --grid spec '%s' (expected e.g. "
                   "w:80,160,paa:4,8,a:3,6)\n",
                   args.options.at("grid").c_str());
      return 1;
    }
  } else if (single_config_flags) {
    StatusOr<SaxOptions> sax = ResolveSax(args, series);
    if (!sax.ok()) {
      std::fprintf(stderr, "%s\n", sax.status().ToString().c_str());
      return 1;
    }
    options.configs.push_back(
        EnsembleConfig{sax->window, sax->paa_size, sax->alphabet_size});
  }
  // else: leave configs empty -> AutoEnsembleGrid inside RunEnsemble.

  auto detection = RunEnsemble(series, options);
  if (!detection.ok()) {
    std::fprintf(stderr, "%s\n", detection.status().ToString().c_str());
    return 1;
  }
  if (!quiet) {
    std::vector<Interval> highlights;
    for (const EnsembleAnomaly& a : detection->anomalies) {
      highlights.push_back(a.span);
    }
    std::printf("%s\n", RenderSeries(series, highlights).c_str());
    std::printf("%s\n", EnsembleConfigTable(*detection).c_str());
  }
  std::printf("%s", EnsembleAnomalyTable(*detection).c_str());
  if (args.has_flag("csv-out")) {
    Status written =
        WriteCsvColumns(args.options.at("csv-out"),
                        {"value", "ensemble_score"},
                        {series.values(), detection->score});
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    if (!quiet) {
      std::printf("wrote %s\n", args.options.at("csv-out").c_str());
    }
  }
  return 0;
}

/// Prints one streaming report. Anomaly positions are translated from
/// suffix-relative to absolute stream coordinates.
void PrintStreamReport(const StreamingReport& report, size_t samples_seen,
                       size_t tokens, size_t evicted) {
  std::printf("t=%zu  suffix=[%zu, %zu)  tokens=%zu  evicted=%zu  "
              "anomalies=%zu\n",
              samples_seen, report.suffix_start,
              report.suffix_start + report.suffix_length, tokens, evicted,
              report.detection.anomalies.size());
  for (const DensityAnomaly& a : report.detection.anomalies) {
    std::printf("  #%zu  [%zu, %zu)  min_density=%u  mean_density=%.2f\n",
                a.rank, report.suffix_start + a.span.start,
                report.suffix_start + a.span.end, a.min_density,
                a.mean_density);
  }
}

int RunStream(const Args& args) {
  const bool quiet = args.has_flag("quiet");
  const bool from_stdin = args.csv_path == "-";

  std::optional<TimeSeries> series;
  StreamingOptions options;
  if (from_stdin) {
    // No data to suggest parameters from: flags with library defaults.
    options.sax.window = args.get_size("window", options.sax.window);
    options.sax.paa_size = args.get_size("paa", options.sax.paa_size);
    options.sax.alphabet_size =
        args.get_size("alphabet", options.sax.alphabet_size);
    if (!quiet) {
      std::printf("streaming from stdin: window=%zu paa=%zu alphabet=%zu\n",
                  options.sax.window, options.sax.paa_size,
                  options.sax.alphabet_size);
    }
  } else {
    StatusOr<TimeSeries> loaded = LoadInput(args);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", args.csv_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    series = std::move(*loaded);
    if (!quiet) {
      std::printf("replaying %zu points from %s\n", series->size(),
                  args.csv_path.c_str());
    }
    StatusOr<SaxOptions> sax = ResolveSax(args, *series);
    if (!sax.ok()) {
      std::fprintf(stderr, "%s\n", sax.status().ToString().c_str());
      return 1;
    }
    options.sax = *sax;
  }
  options.density.threshold_fraction = args.get_double("threshold", 0.05);
  options.density.max_anomalies = args.get_size("top", 3);
  options.horizon = args.get_size("horizon", 0);

  auto monitor = StreamingAnomalyMonitor::Create(options);
  if (!monitor.ok()) {
    std::fprintf(stderr, "%s\n", monitor.status().ToString().c_str());
    return 1;
  }

  const size_t report_every = args.get_size("report-every", 0);

  // Report latency is measured out here, not inside the monitor: the
  // streaming core is clock-free by policy (determinism lint), while the
  // CLI is where wall time is an honest health signal. A telemetry scrape
  // mid-run sees the last latency as a gauge and the distribution as a
  // base-2 histogram.
  obs::Gauge& last_report_us = obs::GlobalMetrics().gauge(
      "stream.last_report.us");
  obs::Histogram& report_latency_us = obs::GlobalMetrics().histogram(
      "stream.report.latency.us");
  auto timed_report = [&]() {
    const auto start = std::chrono::steady_clock::now();
    auto report = monitor->Report();
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    last_report_us.Set(static_cast<int64_t>(us));
    report_latency_us.Record(static_cast<double>(us));
    return report;
  };

  bool failed = false;
  auto feed = [&](double value) -> bool {  // false stops the stream
    monitor->Push(value);
    if (report_every == 0 || monitor->samples_seen() % report_every != 0) {
      return true;
    }
    auto report = timed_report();
    if (!report.ok()) {
      // "Not enough data yet" is expected near the stream head; anything
      // else is a real failure.
      if (report.status().code() == StatusCode::kFailedPrecondition) {
        return true;
      }
      std::fprintf(stderr, "report failed: %s\n",
                   report.status().ToString().c_str());
      failed = true;
      return false;
    }
    PrintStreamReport(*report, monitor->samples_seen(),
                      monitor->tokens_emitted(),
                      monitor->generations_evicted());
    return true;
  };

  if (from_stdin) {
    double value = 0.0;
    while (std::scanf("%lf", &value) == 1) {
      if (!feed(value)) {
        break;
      }
    }
  } else {
    for (size_t i = 0; i < series->size(); ++i) {
      if (!feed((*series)[i])) {
        break;
      }
    }
  }
  if (failed) {
    return 1;
  }

  auto final_report = timed_report();
  if (!final_report.ok()) {
    std::fprintf(stderr, "final report failed: %s\n",
                 final_report.status().ToString().c_str());
    return 1;
  }
  if (!quiet) {
    std::printf("--- final report ---\n");
  }
  PrintStreamReport(*final_report, monitor->samples_seen(),
                    monitor->tokens_emitted(),
                    monitor->generations_evicted());
  return 0;
}

int RunProfile(const Args& args, const TimeSeries& series) {
  (void)args;
  auto profiles = SweepParameterGrid(series, {});
  if (!profiles.ok()) {
    std::fprintf(stderr, "%s\n", profiles.status().ToString().c_str());
    return 1;
  }
  std::printf("%-8s %-5s %-9s %9s %8s %8s %13s %8s\n", "window", "paa",
              "alphabet", "tokens", "rules", "grammar", "approx.error",
              "score");
  for (const GrammarProfile& p : *profiles) {
    std::printf("%-8zu %-5zu %-9zu %9zu %8zu %8zu %13.4f %8.4f\n",
                p.sax.window, p.sax.paa_size, p.sax.alphabet_size, p.tokens,
                p.rules, p.grammar_size, p.approximation_error, p.score);
  }
  auto suggested = SuggestParameters(series);
  if (suggested.ok()) {
    std::printf("\nsuggestion: --window %zu --paa %zu --alphabet %zu\n",
                suggested->window, suggested->paa_size,
                suggested->alphabet_size);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }
  const bool quiet = args.has_flag("quiet");

  // Backend selection happens before any oracle is constructed; the flag
  // wins over the GVA_BACKEND environment variable.
  if (args.has_flag("backend")) {
    const Status status = backend::SetActiveBackend(args.options.at("backend"));
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 2;
    }
  }
  if (!quiet) {
    std::printf("backend: %s\n", backend::ActiveBackend().name);
  }

  // Always-on post-mortem: a fatal signal dumps the span flight recorder
  // to ./gva_flight.json before the process dies.
  obs::InstallFlightSignalHandler();

  if (args.has_flag("telemetry-port")) {
    obs::TelemetryServer::Options telemetry;
    telemetry.port =
        static_cast<uint16_t>(args.get_size("telemetry-port", 0));
    const Status status = obs::StartGlobalTelemetry(telemetry);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 2;
    }
    if (!quiet) {
      std::printf("telemetry: http://127.0.0.1:%u/metrics\n",
                  static_cast<unsigned>(obs::GlobalTelemetry()->port()));
    }
  }

  // The capture session spans input loading too, so I/O shows in the trace.
  std::optional<obs::ObsSession> session;
  if (args.has_flag("trace") || args.has_flag("metrics")) {
    obs::ObsSession::Options obs_options;
    if (args.has_flag("trace")) {
      obs_options.trace_path = args.options.at("trace");
    }
    if (args.has_flag("metrics")) {
      obs_options.metrics_path = args.options.at("metrics");
    }
    obs_options.announce = !quiet;
    session.emplace(std::move(obs_options));
    // The session constructor reset every gauge; restore the selection
    // record so the metrics export names the backend that ran.
    backend::AnnounceActiveBackend();
  }

  // Stream handles its own input (it accepts "-" for stdin, which LoadInput
  // cannot), so dispatch before the batch loading path.
  if (args.command == "stream") {
    int exit_code = RunStream(args);
    if (session.has_value() && session->metrics() && !quiet) {
      std::printf("\n--- per-stage metrics ---\n%s",
                  MetricsSummaryTable(obs::GlobalMetrics()).c_str());
    }
    return exit_code;
  }

  StatusOr<TimeSeries> series = LoadInput(args);
  if (!series.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", args.csv_path.c_str(),
                 series.status().ToString().c_str());
    return 1;
  }
  if (!quiet) {
    std::printf("loaded %zu points from %s\n", series->size(),
                args.csv_path.c_str());
  }

  int exit_code = 1;
  if (args.command == "ensemble" ||
      (args.command == "density" && args.has_flag("ensemble"))) {
    exit_code = RunEnsembleCommand(args, *series);
  } else if (args.command == "density") {
    exit_code = RunDensity(args, *series);
  } else if (args.command == "rra") {
    exit_code = RunRra(args, *series);
  } else if (args.command == "profile") {
    exit_code = RunProfile(args, *series);
  } else {
    return Usage();
  }

  if (session.has_value() && session->metrics() && !quiet) {
    std::printf("\n--- per-stage metrics ---\n%s",
                MetricsSummaryTable(obs::GlobalMetrics()).c_str());
  }
  return exit_code;
}
