#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/job_runner.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "server/server_test_client.h"
#include "util/json.h"

namespace gva {
namespace {

using ::gva::testing::ConnectLoopback;
using ::gva::testing::HttpGet;
using ::gva::testing::SendHttpRequest;
using ::gva::testing::TestHttpResponse;

/// A long-running job body: exact RRA over a large structured series. The
/// exact nearest-neighbor verification phase is O(candidates * n) distance
/// work, and RRA polls the cancellation token between candidates — slow to
/// finish, quick to cancel. The composed waveform keeps Sequitur busy with
/// real structure instead of collapsing to one rule.
std::string LongJobBody() {
  const size_t n = 60000;
  std::string body =
      R"({"detector": "rra", "window": 256, "paa": 8, "alphabet": 4,)"
      R"( "series": [)";
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    const double value = std::sin(t * 0.031) + 0.6 * std::sin(t * 0.0077) +
                         0.25 * std::sin(t * 0.173);
    if (i != 0) {
      body += ",";
    }
    body += JsonNumber(value);
  }
  body += "]}";
  return body;
}

/// A cheap job body that finishes in milliseconds once it gets a slot.
std::string QuickJobBody() {
  std::string body =
      R"({"detector": "density", "window": 32, "paa": 4, "alphabet": 4,)"
      R"( "series": [)";
  for (size_t i = 0; i < 400; ++i) {
    if (i != 0) {
      body += ",";
    }
    body += JsonNumber(std::sin(static_cast<double>(i) * 0.2));
  }
  body += "]}";
  return body;
}

uint64_t JobIdOf(const TestHttpResponse& response) {
  auto doc = ParseJson(response.body);
  if (!doc.ok() || doc->Find("id") == nullptr) {
    return 0;
  }
  return static_cast<uint64_t>(doc->Find("id")->as_number());
}

std::string JobState(uint16_t port, uint64_t id) {
  const TestHttpResponse response =
      HttpGet(port, "/v1/jobs/" + std::to_string(id));
  auto doc = ParseJson(response.body);
  if (!doc.ok() || doc->Find("state") == nullptr) {
    return "";
  }
  return doc->Find("state")->as_string();
}

/// ConnectLoopback whose reads give up after 5 s, so a server that
/// neither answers nor closes fails the test instead of hanging it.
int ConnectRaw(uint16_t port) {
  const int fd = ConnectLoopback(port);
  if (fd >= 0) {
    timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  return fd;
}

bool SendRaw(int fd, const std::string& bytes) {
  return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

/// Reads one response off a keep-alive connection and returns its status,
/// or 0 when the connection closed (or stayed silent 5 s) first.
int ReadOneResponse(int fd) {
  std::string raw;
  char buf[4096];
  size_t header_end = std::string::npos;
  size_t length = 0;
  while (header_end == std::string::npos ||
         raw.size() < header_end + 4 + length) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      return 0;
    }
    raw.append(buf, static_cast<size_t>(n));
    header_end = raw.find("\r\n\r\n");
    const size_t field = raw.find("Content-Length: ");
    if (field < header_end) {
      length = std::strtoul(raw.c_str() + field + 16, nullptr, 10);
    }
  }
  return std::atoi(raw.c_str() + 9);  // "HTTP/1.1 NNN ..."
}

/// Whether the server closes `fd` before `deadline`.
bool ClosedBy(int fd, std::chrono::steady_clock::time_point deadline) {
  char buf[256];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      return false;
    }
    pollfd pfd{fd, static_cast<short>(POLLIN), 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) > 0 &&
        ::read(fd, buf, sizeof(buf)) <= 0) {
      return true;  // EOF or reset
    }
  }
}

// One slot, a two-deep queue: fill both, pin the 429 + Retry-After
// overload answer, watch /healthz report the live queue, then cancel the
// running job mid-search and watch the slot free and the queue drain.
TEST(ServerOverloadTest, QueueFillRejectionAndMidSearchCancellation) {
  net::AnomalyServerOptions options;
  options.runner.slots = 1;
  options.runner.queue_capacity = 2;
  auto started = net::AnomalyServer::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<net::AnomalyServer> server = std::move(started).value();
  const uint16_t port = server->port();
  JobRunner& runner = server->runner();
  obs::Counter& cancelled_metric =
      obs::GlobalMetrics().counter("server.jobs.cancelled");
  const uint64_t cancelled_metric_before =
      static_cast<uint64_t>(cancelled_metric.value());

  // Job 1 occupies the only slot. Wait until it is actually running so the
  // queue arithmetic below is exact.
  const std::string long_body = LongJobBody();
  const TestHttpResponse first =
      SendHttpRequest(port, "POST", "/v1/jobs", long_body);
  ASSERT_EQ(first.status, 202) << first.body;
  const uint64_t running_id = JobIdOf(first);
  ASSERT_NE(running_id, 0u);
  while (JobState(port, running_id) == "queued") {
    std::this_thread::yield();
  }
  ASSERT_EQ(JobState(port, running_id), "running");

  // Jobs 2 and 3 fill the queue.
  const TestHttpResponse second =
      SendHttpRequest(port, "POST", "/v1/jobs", QuickJobBody());
  ASSERT_EQ(second.status, 202);
  const TestHttpResponse third =
      SendHttpRequest(port, "POST", "/v1/jobs", QuickJobBody());
  ASSERT_EQ(third.status, 202);
  EXPECT_EQ(runner.queue_depth(), 2u);

  // Job 4 finds the queue full: 429, Retry-After, and the rejection
  // counter ticks. Nothing was enqueued.
  const TestHttpResponse rejected =
      SendHttpRequest(port, "POST", "/v1/jobs", QuickJobBody());
  ASSERT_EQ(rejected.status, 429) << rejected.body;
  const std::string* retry_after = rejected.FindHeader("retry-after");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "1");
  EXPECT_NE(rejected.body.find("queue"), std::string::npos);
  EXPECT_EQ(runner.jobs_rejected(), 1u);
  EXPECT_EQ(runner.queue_depth(), 2u);

  // /healthz reflects the live scheduling state under load.
  const TestHttpResponse health = HttpGet(port, "/healthz");
  ASSERT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"server_slots_busy\": 1"), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"server_queue_depth\": 2"), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"server_jobs_rejected\": 1"),
            std::string::npos);

  // Cancelling a queued job frees its queue seat immediately.
  const uint64_t queued_id = JobIdOf(third);
  TestHttpResponse cancel = SendHttpRequest(
      port, "DELETE", "/v1/jobs/" + std::to_string(queued_id));
  ASSERT_EQ(cancel.status, 200) << cancel.body;
  auto cancel_doc = ParseJson(cancel.body);
  ASSERT_TRUE(cancel_doc.ok());
  EXPECT_EQ(cancel_doc->Find("state")->as_string(), "cancelled");
  EXPECT_EQ(runner.queue_depth(), 1u);

  // Cancelling the running job interrupts the RRA search: the slot frees
  // long before the search could have finished, and the queued quick job
  // then runs to completion.
  cancel = SendHttpRequest(port, "DELETE",
                           "/v1/jobs/" + std::to_string(running_id));
  ASSERT_EQ(cancel.status, 200);
  while (JobState(port, running_id) == "running") {
    std::this_thread::yield();
  }
  EXPECT_EQ(JobState(port, running_id), "cancelled");

  const uint64_t surviving_id = JobIdOf(second);
  std::string state = JobState(port, surviving_id);
  while (state == "queued" || state == "running") {
    std::this_thread::yield();
    state = JobState(port, surviving_id);
  }
  EXPECT_EQ(state, "done");

  EXPECT_EQ(runner.jobs_cancelled(), 2u);
  EXPECT_EQ(runner.jobs_completed(), 1u);
  EXPECT_EQ(runner.slots_busy(), 0u);
  EXPECT_EQ(runner.queue_depth(), 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(static_cast<uint64_t>(cancelled_metric.value()),
              cancelled_metric_before + 2);
  }

  // Idempotent: cancelling a finished job reports its terminal state.
  cancel = SendHttpRequest(port, "DELETE",
                           "/v1/jobs/" + std::to_string(surviving_id));
  EXPECT_EQ(cancel.status, 200);
  cancel_doc = ParseJson(cancel.body);
  ASSERT_TRUE(cancel_doc.ok());
  EXPECT_EQ(cancel_doc->Find("state")->as_string(), "done");
  EXPECT_EQ(runner.jobs_cancelled(), 2u);

  server->Stop();
}

// Shutdown while a job is mid-search: Stop() flags every live job and
// joins the workers — it must come back promptly, not after the search
// would have finished naturally.
TEST(ServerOverloadTest, StopCancelsRunningJobs) {
  net::AnomalyServerOptions options;
  options.runner.slots = 1;
  auto started = net::AnomalyServer::Start(options);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<net::AnomalyServer> server = std::move(started).value();

  const TestHttpResponse submitted =
      SendHttpRequest(server->port(), "POST", "/v1/jobs", LongJobBody());
  ASSERT_EQ(submitted.status, 202);
  const uint64_t id = JobIdOf(submitted);
  while (JobState(server->port(), id) == "queued") {
    std::this_thread::yield();
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  server->Stop();
  EXPECT_LT(std::chrono::steady_clock::now(), deadline)
      << "Stop() waited for the full search instead of cancelling it";
  EXPECT_EQ(server->runner().jobs_cancelled(), 1u);
}

// Stream sessions are capped: the max_streams+1'th create is answered 429
// (resource exhaustion, not a client error), and deleting one readmits.
TEST(ServerOverloadTest, StreamCapIsEnforced) {
  net::AnomalyServerOptions options;
  options.max_streams = 2;
  auto started = net::AnomalyServer::Start(options);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<net::AnomalyServer> server = std::move(started).value();
  const uint16_t port = server->port();
  const std::string config = R"({"window": 64, "paa": 4, "alphabet": 4})";

  EXPECT_EQ(SendHttpRequest(port, "POST", "/v1/streams/a", config).status,
            201);
  EXPECT_EQ(SendHttpRequest(port, "POST", "/v1/streams/b", config).status,
            201);
  const TestHttpResponse over =
      SendHttpRequest(port, "POST", "/v1/streams/c", config);
  EXPECT_EQ(over.status, 429);
  EXPECT_EQ(SendHttpRequest(port, "DELETE", "/v1/streams/a").status, 200);
  EXPECT_EQ(SendHttpRequest(port, "POST", "/v1/streams/c", config).status,
            201);
  server->Stop();
}

// A connection that stops part way through a request, or never sends a
// byte, is closed after net::HttpServer::kRequestTimeout (2 s), so stalled
// clients cannot pin connection slots forever. A keep-alive connection
// idle between complete requests is not a stall: after 3 s it still gets
// its next response.
TEST(ServerOverloadTest, StalledConnectionsCloseIdleKeepAliveSurvives) {
  auto started = net::AnomalyServer::Start(net::AnomalyServerOptions{});
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<net::AnomalyServer> server = std::move(started).value();
  const std::string healthz = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";

  const int idle = ConnectRaw(server->port());
  ASSERT_GE(idle, 0);
  ASSERT_TRUE(SendRaw(idle, healthz));
  ASSERT_EQ(ReadOneResponse(idle), 200);

  const int partial = ConnectRaw(server->port());
  const int silent = ConnectRaw(server->port());
  ASSERT_GE(partial, 0);
  ASSERT_GE(silent, 0);
  ASSERT_TRUE(SendRaw(partial, "GET /healthz HTTP/1.1\r\n"));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  EXPECT_TRUE(ClosedBy(partial, deadline)) << "partial request kept open";
  EXPECT_TRUE(ClosedBy(silent, deadline)) << "silent connection kept open";

  std::this_thread::sleep_until(deadline);
  ASSERT_TRUE(SendRaw(idle, healthz));
  EXPECT_EQ(ReadOneResponse(idle), 200);
  ::close(idle);
  ::close(partial);
  ::close(silent);
  server->Stop();
}

}  // namespace
}  // namespace gva
