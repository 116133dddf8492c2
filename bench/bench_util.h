#ifndef GVA_BENCH_BENCH_UTIL_H_
#define GVA_BENCH_BENCH_UTIL_H_

// Shared helpers for the table/figure reproduction binaries. Each binary
// regenerates one table or figure of the paper (EDBT 2015, "Time series
// anomaly discovery with grammar-based compression") on the synthetic
// stand-in datasets and prints the same rows/series the paper reports,
// plus CHECK lines asserting the qualitative shape the paper claims.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "backend/backend.h"
#include "obs/recorder.h"
#include "obs/session.h"
#include "obs/telemetry_server.h"
#include "util/csv.h"
#include "viz/svg.h"

namespace gva::bench {

inline int g_check_failures = 0;

/// Prints "CHECK ok: ..." / "CHECK FAILED: ..." and tracks failures so a
/// binary can exit non-zero when the paper's qualitative shape is violated.
inline void Check(bool condition, const std::string& what) {
  if (condition) {
    std::printf("CHECK ok: %s\n", what.c_str());
  } else {
    std::printf("CHECK FAILED: %s\n", what.c_str());
    ++g_check_failures;
  }
}

inline int CheckExitCode() { return g_check_failures == 0 ? 0 : 1; }

inline void Header(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

/// When the GVA_FIGURES_DIR environment variable is set, writes the figure
/// there as <name>.svg (the graphical counterpart of the text panels the
/// binaries print). Silent no-op otherwise, so plain bench runs stay pure.
inline void MaybeWriteFigure(const SvgFigure& figure,
                             const std::string& name) {
  const char* dir = std::getenv("GVA_FIGURES_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return;
  }
  const std::string path = std::string(dir) + "/" + name + ".svg";
  Status status = figure.WriteFile(path);
  if (status.ok()) {
    std::printf("figure written: %s\n", path.c_str());
  } else {
    std::printf("figure NOT written: %s\n", status.ToString().c_str());
  }
}

/// The flags every bench binary understands:
///   --trace=PATH     write a Chrome trace-event JSON capture
///   --metrics=PATH   write a metrics-registry JSON snapshot
///   --quiet          suppress informational chatter (announcements)
///   --telemetry-port=N  serve /metrics, /metrics.json, /healthz and
///                    /flightz on 127.0.0.1:N for the run's lifetime
///                    (0 = ephemeral port, printed on startup); applied
///                    immediately, exits 2 when N is not a port number or
///                    the port cannot be bound, so a scrape target never
///                    silently goes missing.
///                    Also installs the fatal-signal flight dump.
struct ObsFlags {
  std::string trace_path;
  std::string metrics_path;
  bool quiet = false;
};

/// Consumes one argv entry if it is a shared flag; returns whether it was
/// consumed. Binaries call this first in their argv loop so the shared
/// flags compose with their own options.
inline bool ParseObsFlag(const std::string& arg, ObsFlags* flags) {
  if (arg.rfind("--trace=", 0) == 0) {
    flags->trace_path = arg.substr(8);
    return true;
  }
  if (arg.rfind("--metrics=", 0) == 0) {
    flags->metrics_path = arg.substr(10);
    return true;
  }
  if (arg == "--quiet") {
    flags->quiet = true;
    return true;
  }
  if (arg.rfind("--telemetry-port=", 0) == 0) {
    const StatusOr<uint64_t> port = ParseUnsigned(arg.substr(17), 65535);
    if (!port.ok()) {
      std::fprintf(stderr, "--telemetry-port: %s\n",
                   port.status().ToString().c_str());
      std::exit(2);
    }
    obs::InstallFlightSignalHandler();
    obs::TelemetryServer::Options options;
    options.port = static_cast<uint16_t>(*port);
    const Status status = obs::StartGlobalTelemetry(options);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(2);
    }
    std::printf("telemetry: http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(obs::GlobalTelemetry()->port()));
    return true;
  }
  return false;
}

/// Builds the capture session for the parsed flags — null when neither
/// export was requested, so plain bench runs stay capture-free. Keep the
/// returned session alive across the measured code; the files are written
/// when it is destroyed.
inline std::unique_ptr<obs::ObsSession> MakeObsSession(
    const ObsFlags& flags) {
  if (flags.trace_path.empty() && flags.metrics_path.empty()) {
    return nullptr;
  }
  obs::ObsSession::Options options;
  options.trace_path = flags.trace_path;
  options.metrics_path = flags.metrics_path;
  options.announce = !flags.quiet;
  // Resolve the backend now so `backend.selected` is in the export even if
  // the measured code never reaches a kernel.
  backend::ActiveBackend();
  return std::make_unique<obs::ObsSession>(options);
}

}  // namespace gva::bench

#endif  // GVA_BENCH_BENCH_UTIL_H_
