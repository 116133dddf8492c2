#ifndef GVA_NET_SERVER_H_
#define GVA_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/job_runner.h"
#include "core/streaming.h"
#include "net/http.h"
#include "net/http_server.h"
#include "util/statusor.h"

namespace gva::net {

struct AnomalyServerOptions {
  /// TCP port; 0 asks the kernel for an ephemeral one (read it back from
  /// port()).
  uint16_t port = 0;
  /// Loopback by default — the API is plaintext and unauthenticated.
  std::string bind_address = "127.0.0.1";
  /// Slot/queue scheduling of detection jobs.
  JobRunnerOptions runner;
  /// Cap on live streaming sessions across all tenants.
  size_t max_streams = 64;
  /// Cap on simultaneously open connections; the listener stops accepting
  /// (clients queue in the kernel backlog) while at the cap.
  size_t max_connections = 64;
  /// Parser limits (header block 16 KiB, body 8 MiB by default — an inline
  /// series of ~400k JSON doubles).
  HttpParser::Limits http_limits;
};

/// The gva_serverd engine: the multi-tenant anomaly-detection API over
/// HTTP/1.1, served from one HttpServer event loop, with detection work
/// delegated to a JobRunner worker pool so a long RRA search never blocks
/// the socket loop (DESIGN.md §13). Embeddable: tests Start() it
/// in-process on an ephemeral port and speak to it over real sockets, or
/// call HandleRequest() directly for route-table unit tests.
///
/// Routes (all request/response bodies JSON unless noted):
///
///   POST   /v1/jobs                 submit a job -> 202 {"id": n, ...};
///                                   429 + Retry-After when the queue is
///                                   full
///   GET    /v1/jobs[?tenant=t]      list jobs (summaries)
///   GET    /v1/jobs/{id}            job state + result when done
///   GET    /v1/jobs/{id}/svg        SVG report of a finished job
///   DELETE /v1/jobs/{id}            cancel (idempotent)
///   POST   /v1/streams/{id}         create a streaming session -> 201
///   POST   /v1/streams/{id}/samples append samples
///   GET    /v1/streams/{id}/report  current streaming detection
///   DELETE /v1/streams/{id}         drop the session
///   POST   /v1/admin/shutdown       request process shutdown -> 202
///   GET    /metrics|/metrics.json|/healthz|/flightz
///                                   the shared telemetry surface
///                                   (obs::HandleTelemetryRoute), with
///                                   server slot/queue state appended to
///                                   /healthz
///
/// Tenancy: the x-gva-tenant header (or the "tenant" job field) labels
/// jobs and namespaces streams; absent means "default". Tenants share the
/// slot pool — isolation is accounting and namespacing, not scheduling.
class AnomalyServer {
 public:
  static StatusOr<std::unique_ptr<AnomalyServer>> Start(
      const AnomalyServerOptions& options);

  ~AnomalyServer();
  AnomalyServer(const AnomalyServer&) = delete;
  AnomalyServer& operator=(const AnomalyServer&) = delete;

  /// Stops the event loop (pending writes are drained briefly, the loop
  /// thread joined) and shuts the job runner down. Idempotent.
  void Stop();

  /// The bound port (the kernel's choice when options.port was 0).
  uint16_t port() const { return http_->port(); }

  /// Read end of the shutdown-event pipe: becomes readable when a
  /// POST /v1/admin/shutdown lands. The daemon's main() polls this next to
  /// its signal pipe and calls Stop() when either fires; the response is
  /// flushed by the still-running loop in the meantime.
  int shutdown_event_fd() const { return shutdown_event_read_fd_; }

  /// Whether an admin shutdown was requested.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  /// The routing core: maps one parsed request to a response. Thread-safe;
  /// exposed so unit tests can exercise the route table without sockets.
  HttpResponse HandleRequest(const HttpRequest& request);

  /// The scheduler, for tests asserting slot/queue/counter state.
  JobRunner& runner() { return *runner_; }

  /// Live streaming sessions across all tenants.
  size_t stream_count() const;

 private:
  struct StreamSession {
    std::string tenant;
    StreamingAnomalyMonitor monitor;
  };

  /// Starts `http`'s loop, answering with HandleRequest.
  AnomalyServer(const AnomalyServerOptions& options, int event_read_fd,
                int event_write_fd, std::unique_ptr<JobRunner> runner,
                std::unique_ptr<HttpServer> http);

  // Route handlers. Each fills `response` (status, body, content type).
  void HandleJobSubmit(const HttpRequest& request, HttpResponse* response);
  void HandleJobList(const HttpRequest& request, HttpResponse* response);
  void HandleJobRoute(const HttpRequest& request, std::string_view rest,
                      HttpResponse* response);
  void HandleStreamRoute(const HttpRequest& request, std::string_view rest,
                         HttpResponse* response);

  std::vector<std::string> HealthzExtra() const;

  const AnomalyServerOptions options_;
  const int shutdown_event_read_fd_;   ///< admin shutdown notification
  const int shutdown_event_write_fd_;
  const std::chrono::steady_clock::time_point started_;

  std::unique_ptr<JobRunner> runner_;

  mutable std::mutex streams_mu_;
  /// Keyed "<tenant>/<id>"; both components are validated to [A-Za-z0-9_-]
  /// so the join is unambiguous. std::map: deterministic listing order.
  std::map<std::string, StreamSession> streams_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  /// Last: its loop thread answers through HandleRequest, which reads
  /// every member above.
  std::unique_ptr<HttpServer> http_;
};

}  // namespace gva::net

#endif  // GVA_NET_SERVER_H_
