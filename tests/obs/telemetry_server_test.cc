#include "obs/telemetry_server.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "discord/brute_force.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "server/server_test_client.h"

namespace gva {
namespace {

using ::gva::testing::ConnectLoopback;

/// Blocking one-shot HTTP GET over a raw socket; returns the full response
/// (headers + body), or empty on any failure.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) {
    return std::string();
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::write(fd, request.data() + off, request.size() - off);
    if (n <= 0) {
      ::close(fd);
      return std::string();
    }
    off += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      break;  // server closes after one response
    }
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class TelemetryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TelemetryServer::Options options;  // port 0: ephemeral
    auto server = obs::TelemetryServer::Start(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
    ASSERT_NE(server_->port(), 0);
  }

  std::unique_ptr<obs::TelemetryServer> server_;
};

TEST_F(TelemetryServerTest, MetricsRouteServesPrometheusText) {
  obs::GlobalMetrics().counter("telemetry_test.hits").Add(3);
  const std::string response = HttpGet(server_->port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  if constexpr (obs::kEnabled) {
    EXPECT_NE(response.find("gva_telemetry_test_hits_total 3"),
              std::string::npos);
  }
}

TEST_F(TelemetryServerTest, MetricsJsonRouteServesRegistryJson) {
  const std::string response = HttpGet(server_->port(), "/metrics.json");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"metrics\""), std::string::npos);
}

TEST_F(TelemetryServerTest, HealthzReportsOkAndBackend) {
  const std::string response = HttpGet(server_->port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(response.find("\"backend\": \""), std::string::npos);
  EXPECT_NE(response.find("\"uptime_us\": "), std::string::npos);
}

TEST_F(TelemetryServerTest, FlightzServesChromeTraceJson) {
  const std::string response = HttpGet(server_->port(), "/flightz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"traceEvents\""), std::string::npos);
}

TEST_F(TelemetryServerTest, UnknownPathIs404) {
  const std::string response = HttpGet(server_->port(), "/nope");
  EXPECT_NE(response.find("HTTP/1.1 404 Not Found"), std::string::npos);
}

TEST_F(TelemetryServerTest, QueryStringIsIgnoredForRouting) {
  const std::string response = HttpGet(server_->port(), "/healthz?probe=1");
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);
}

TEST_F(TelemetryServerTest, RequestCounterAdvancesPerScrape) {
  obs::Counter& requests = obs::GlobalMetrics().counter("telemetry.requests");
  const uint64_t before = requests.value();
  HttpGet(server_->port(), "/metrics");
  HttpGet(server_->port(), "/healthz");
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(requests.value(), before + 2);
    const std::string response = HttpGet(server_->port(), "/metrics");
    EXPECT_NE(response.find("gva_telemetry_requests_total"),
              std::string::npos);
  }
}

/// The cumulative series of a Prometheus scrape — every `_total` counter
/// and histogram `_count` — keyed by series (labels included).
std::map<std::string, double> CumulativeSeries(const std::string& scrape) {
  std::map<std::string, double> series;
  std::istringstream lines(scrape.substr(scrape.find("\r\n\r\n") + 4));
  std::string line;
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) {
      continue;
    }
    const std::string key = line.substr(0, space);
    const std::string name = key.substr(0, key.find('{'));
    if (name.ends_with("_total") || name.ends_with("_count")) {
      series[key] = std::stod(line.substr(space + 1));
    }
  }
  return series;
}

// Golden no-decrease check. The global registry is never reset, so a
// capture window is invisible to a scraper: the counters a search left
// behind, the server's own `telemetry.*` series and the pool's
// `threadpool.*` series all survive an ObsSession, and none goes backwards
// (Prometheus rate() treats any decrease as a counter restart).
TEST_F(TelemetryServerTest, TelemetrySeriesSurviveObsSessionReset) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability disabled in this build";
  }
  std::vector<double> sine(200);
  for (size_t i = 0; i < sine.size(); ++i) {
    sine[i] = std::sin(0.3 * static_cast<double>(i));
  }
  ASSERT_TRUE(FindDiscordsBruteForce(sine, 16, 1).ok());
  const std::string before = HttpGet(server_->port(), "/metrics");
  ASSERT_NE(before.find("gva_telemetry_port"), std::string::npos);

  const std::string metrics_path =
      ::testing::TempDir() + "gva_telemetry_reset_metrics.json";
  {
    obs::ObsSession::Options options;
    options.metrics_path = metrics_path;
    options.announce = false;
    obs::ObsSession session(options);
    const std::string during = HttpGet(server_->port(), "/metrics");
    const std::string expected =
        "gva_telemetry_port " + std::to_string(server_->port());
    EXPECT_NE(during.find(expected), std::string::npos) << during;
  }
  std::remove(metrics_path.c_str());

  const std::map<std::string, double> first = CumulativeSeries(before);
  const std::map<std::string, double> last =
      CumulativeSeries(HttpGet(server_->port(), "/metrics"));
  ASSERT_TRUE(first.contains("gva_search_brute_calls_completed_total"));
  for (const auto& [series, value] : first) {
    const auto it = last.find(series);
    ASSERT_NE(it, last.end()) << series << " vanished";
    EXPECT_GE(it->second, value) << series << " went backwards";
  }
}

// tsan workload: four mutator threads hammer counters/gauges/histograms
// while two scrapers render /metrics — the registry snapshot and the
// exposition renderer must be race-free against live mutation.
TEST_F(TelemetryServerTest, ConcurrentScrapeAndMutationIsRaceFree) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < 4; ++t) {
    mutators.emplace_back([t, &stop] {
      obs::MetricsRegistry& metrics = obs::GlobalMetrics();
      obs::Counter& counter = metrics.counter("telemetry_test.storm.count");
      obs::Gauge& gauge = metrics.gauge("telemetry_test.storm.depth");
      obs::Histogram& histogram =
          metrics.histogram("telemetry_test.storm.us");
      while (!stop.load(std::memory_order_relaxed)) {
        counter.Add(1);
        gauge.Set(t);
        histogram.Record(static_cast<double>(t) * 7.0);
      }
    });
  }
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([this] {
      for (int i = 0; i < 10; ++i) {
        const std::string response = HttpGet(server_->port(), "/metrics");
        EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
      }
    });
  }
  for (std::thread& s : scrapers) {
    s.join();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& m : mutators) {
    m.join();
  }
}

// Clients that connect and stall mid-request must not delay anyone else's
// scrape: every connection is served from one event loop, none of them
// holds the listener while it waits for bytes.
TEST_F(TelemetryServerTest, StalledClientsDoNotDelayScrapes) {
  const std::string partial = "GET /metrics HTTP/1.1\r\n";
  std::vector<int> stalled;
  for (int i = 0; i < 4; ++i) {
    const int fd = ConnectLoopback(server_->port());
    ASSERT_GE(fd, 0);
    stalled.push_back(fd);
    ASSERT_EQ(::write(fd, partial.data(), partial.size()),
              static_cast<ssize_t>(partial.size()));
  }
  const auto start = std::chrono::steady_clock::now();
  const std::string response = HttpGet(server_->port(), "/healthz");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  for (const int fd : stalled) {
    ::close(fd);
  }
}

TEST(TelemetryServerStartTest, RejectsBadBindAddress) {
  obs::TelemetryServer::Options options;
  options.bind_address = "not-an-address";
  auto server = obs::TelemetryServer::Start(options);
  EXPECT_FALSE(server.ok());
}

TEST(TelemetryServerStartTest, PortCollisionFailsCleanly) {
  obs::TelemetryServer::Options options;
  auto first = obs::TelemetryServer::Start(options);
  ASSERT_TRUE(first.ok());
  options.port = first.value()->port();
  auto second = obs::TelemetryServer::Start(options);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kIoError);
}

TEST(GlobalTelemetryTest, StartScrapeStopIsIdempotent) {
  obs::StopGlobalTelemetry();  // clean slate; safe without a prior Start
  EXPECT_EQ(obs::GlobalTelemetry(), nullptr);

  obs::TelemetryServer::Options options;
  ASSERT_TRUE(obs::StartGlobalTelemetry(options).ok());
  ASSERT_NE(obs::GlobalTelemetry(), nullptr);
  const uint16_t port = obs::GlobalTelemetry()->port();
  EXPECT_NE(HttpGet(port, "/healthz").find("\"status\": \"ok\""),
            std::string::npos);

  // Second start while running: refused, first server keeps serving.
  EXPECT_EQ(obs::StartGlobalTelemetry(options).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(obs::GlobalTelemetry()->port(), port);

  obs::StopGlobalTelemetry();
  obs::StopGlobalTelemetry();  // double stop: no-op
  EXPECT_EQ(obs::GlobalTelemetry(), nullptr);
}

}  // namespace
}  // namespace gva
