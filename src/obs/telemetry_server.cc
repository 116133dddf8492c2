#include "obs/telemetry_server.h"

#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>

#include "backend/backend.h"
#include "net/http.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/strings.h"

namespace gva::obs {

bool HandleTelemetryRoute(std::string_view method, std::string_view path,
                          std::chrono::steady_clock::time_point started,
                          const std::vector<std::string>& healthz_extra,
                          net::HttpResponse* response) {
  const bool is_route = path == "/metrics" || path == "/metrics.json" ||
                        path == "/healthz" || path == "/flightz";
  if (!is_route) {
    return false;
  }
  if (method != "GET") {
    response->status = 405;
    response->content_type = "text/plain; charset=utf-8";
    response->body = "telemetry endpoints are GET-only\n";
    return true;
  }
  MetricsRegistry& metrics = GlobalMetrics();
  if (path == "/metrics") {
    response->content_type = "text/plain; version=0.0.4; charset=utf-8";
    response->body = RenderPrometheusText(metrics);
    return true;
  }
  if (path == "/metrics.json") {
    response->content_type = "application/json";
    response->body = metrics.ToJson();
    return true;
  }
  if (path == "/healthz") {
    const uint64_t uptime_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    const FlightRecorder& recorder = FlightRecorder::Global();
    std::string body = StrFormat(
        "{\"status\": \"ok\", \"backend\": \"%s\", \"obs_enabled\": %s, "
        "\"uptime_us\": %llu, \"flight_threads\": %zu, "
        "\"flight_events\": %llu",
        backend::ActiveBackend().name, kEnabled ? "true" : "false",
        static_cast<unsigned long long>(uptime_us), recorder.threads_seen(),
        static_cast<unsigned long long>(recorder.events_recorded()));
    for (const std::string& field : healthz_extra) {
      body += ", ";
      body += field;
    }
    body += "}\n";
    response->content_type = "application/json";
    response->body = std::move(body);
    return true;
  }
  // path == "/flightz"
  response->content_type = "application/json";
  response->body = FlightRecorder::Global().ToJson();
  return true;
}

StatusOr<std::unique_ptr<TelemetryServer>> TelemetryServer::Start(
    const Options& options) {
  net::HttpServerOptions http_options;
  http_options.port = options.port;
  http_options.bind_address = options.bind_address;
  // Scrapes are bodyless GETs; cap what a confused client can buffer here.
  http_options.http_limits.max_body_bytes = 4 * 1024;
  StatusOr<std::unique_ptr<net::HttpServer>> http =
      net::HttpServer::Listen(http_options);
  GVA_RETURN_IF_ERROR(http.status());
  return std::unique_ptr<TelemetryServer>(
      new TelemetryServer(std::move(*http)));
}

TelemetryServer::TelemetryServer(std::unique_ptr<net::HttpServer> http)
    : started_(std::chrono::steady_clock::now()), http_(std::move(http)) {
  http_->Start(
      [this](const net::HttpRequest& request) { return Respond(request); });
}

TelemetryServer::~TelemetryServer() { Stop(); }

void TelemetryServer::Stop() { http_->Stop(); }

net::HttpResponse TelemetryServer::Respond(const net::HttpRequest& request) {
  // Self-metrics re-published on every request: an ObsSession reset wipes
  // their values, and this is what restores them on the next scrape.
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry& metrics = GlobalMetrics();
  metrics.counter("telemetry.requests").Add(1);
  metrics.gauge("telemetry.port").Set(static_cast<int64_t>(port()));

  net::HttpResponse response;
  if (!HandleTelemetryRoute(request.method, request.path, started_, {},
                            &response)) {
    response.status = 404;
    response.body =
        "not found; try /metrics /metrics.json /healthz /flightz\n";
  }
  response.keep_alive = false;  // one scrape per connection
  return response;
}

namespace {

std::mutex g_global_mu;
std::unique_ptr<TelemetryServer> g_global_server;

}  // namespace

Status StartGlobalTelemetry(const TelemetryServer::Options& options) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_server != nullptr) {
    return Status::FailedPrecondition("global telemetry already running");
  }
  StatusOr<std::unique_ptr<TelemetryServer>> server =
      TelemetryServer::Start(options);
  if (!server.ok()) {
    return server.status();
  }
  g_global_server = std::move(server).value();
  // Join the serving thread on normal exit so no binary needs an explicit
  // shutdown call (and tsan sees no leaked thread). Registering more than
  // once is harmless — StopGlobalTelemetry is idempotent.
  std::atexit(StopGlobalTelemetry);
  return Status::Ok();
}

TelemetryServer* GlobalTelemetry() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  return g_global_server.get();
}

void StopGlobalTelemetry() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global_server.reset();
}

}  // namespace gva::obs
