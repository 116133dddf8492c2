#ifndef GVA_OBS_TELEMETRY_SERVER_H_
#define GVA_OBS_TELEMETRY_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/http.h"
#include "net/http_server.h"
#include "util/status.h"
#include "util/statusor.h"

namespace gva::obs {

/// The four always-on telemetry routes, shared by every daemon that mounts
/// them (the embedded TelemetryServer and gva_serverd serve the same
/// surface from one implementation):
///
///   /metrics       Prometheus text exposition of GlobalMetrics()
///   /metrics.json  the registry's native JSON export
///   /healthz       liveness + backend/uptime snapshot (JSON)
///   /flightz       the flight recorder's Chrome trace JSON
///
/// Returns true when `path` (already normalized — query string stripped by
/// the net::HttpParser) names one of them, with `response` filled in;
/// non-GET methods on a telemetry route get 405. `healthz_extra` appends
/// caller-supplied `"key": value` JSON fragments to the /healthz body —
/// gva_serverd reports its slot/queue state there. `started` anchors the
/// uptime field.
bool HandleTelemetryRoute(std::string_view method, std::string_view path,
                          std::chrono::steady_clock::time_point started,
                          const std::vector<std::string>& healthz_extra,
                          net::HttpResponse* response);

/// Embedded HTTP/1.1 listener for always-on telemetry: the routes above on
/// a net::HttpServer, the same event loop gva_serverd runs, so a client
/// that stalls mid-request never delays a scrape. Every response closes
/// its connection (scrapers reconnect per poll), request bodies are capped
/// at 4 KiB (scrapes are bodyless GETs), and unknown paths get 404.
///
/// Every request bumps the `telemetry.requests` counter and re-publishes
/// the `telemetry.port` gauge, so the server's own series reappear on the
/// very next scrape after an ObsSession resets the global registry.
class TelemetryServer {
 public:
  struct Options {
    /// TCP port to listen on; 0 asks the kernel for an ephemeral port
    /// (read the outcome from port()).
    uint16_t port = 0;
    /// Bind address. Loopback by default: telemetry is plaintext and
    /// unauthenticated, so exposing it beyond the host is an explicit act.
    std::string bind_address = "127.0.0.1";
  };

  /// Binds, listens, and starts the serving thread. Fails with
  /// kInvalidArgument on an unparsable address and kIoError when the port
  /// is taken.
  static StatusOr<std::unique_ptr<TelemetryServer>> Start(
      const Options& options);

  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Stops the event loop and closes the socket. Idempotent.
  void Stop();

  /// The bound port (the kernel's choice when Options::port was 0).
  uint16_t port() const { return http_->port(); }

  /// Requests served since Start (monotonic, independent of the
  /// resettable `telemetry.requests` metric).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  /// Starts `http`'s loop, answering with Respond.
  explicit TelemetryServer(std::unique_ptr<net::HttpServer> http);

  net::HttpResponse Respond(const net::HttpRequest& request);

  const std::chrono::steady_clock::time_point started_;
  std::atomic<uint64_t> requests_served_{0};
  /// Last: its loop thread answers through Respond, which reads the
  /// members above.
  std::unique_ptr<net::HttpServer> http_;
};

/// Process-wide server for binaries that take --telemetry-port: starts the
/// singleton (FailedPrecondition if already running) and registers an
/// atexit hook that stops it, so the serving thread is joined on normal
/// exit. Port 0 still works; read it back via GlobalTelemetry()->port().
Status StartGlobalTelemetry(const TelemetryServer::Options& options);

/// The running global server, or nullptr.
TelemetryServer* GlobalTelemetry();

/// Stops and destroys the global server. Idempotent, safe without a
/// prior Start.
void StopGlobalTelemetry();

}  // namespace gva::obs

#endif  // GVA_OBS_TELEMETRY_SERVER_H_
