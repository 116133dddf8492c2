#ifndef GVA_OBS_SESSION_H_
#define GVA_OBS_SESSION_H_

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace gva::obs {

/// RAII capture window for the process-wide observability surfaces: turns
/// on the global tracer and/or stage-time metrics on construction and, on
/// destruction, writes the requested export files. The metrics export is
/// the never-reset GlobalMetrics(), so it is one run's record only because
/// gva_cli and the bench binaries open their single session right after
/// parsing --trace/--metrics, before any measured work.
class ObsSession {
 public:
  struct Options {
    /// Chrome trace-event JSON output path; empty disables tracing.
    std::string trace_path;
    /// Metrics JSON output path; empty disables the metrics export (stage
    /// timing is enabled whenever this is set).
    std::string metrics_path;
    /// Announce written files on stdout.
    bool announce = true;
  };

  explicit ObsSession(Options options);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool tracing() const { return !options_.trace_path.empty(); }
  bool metrics() const { return !options_.metrics_path.empty(); }
  bool active() const { return tracing() || metrics(); }

  /// Writes the export files now (also called by the destructor; calling
  /// twice overwrites with fresher data). Returns the first error.
  Status Flush();

 private:
  Options options_;
  bool flushed_ = false;
};

}  // namespace gva::obs

#endif  // GVA_OBS_SESSION_H_
