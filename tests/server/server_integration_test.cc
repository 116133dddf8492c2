#include "net/server.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/job_runner.h"
#include "core/parameter_profile.h"
#include "datasets/ecg.h"
#include "datasets/power_demand.h"
#include "discord/hotsax.h"
#include "server/server_test_client.h"
#include "util/json.h"

namespace gva {
namespace {

using ::gva::testing::HttpGet;
using ::gva::testing::SendHttpRequest;
using ::gva::testing::TestHttpResponse;

/// A small series with one synthetic dropout anomaly, for the inline-series
/// submission path.
std::vector<double> MakeInlineSeries(size_t n) {
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = std::sin(static_cast<double>(i) * 0.21);
  }
  for (size_t i = n / 2; i < n / 2 + 30 && i < n; ++i) {
    values[i] = 0.05;  // flatline: a discord against the sine background
  }
  return values;
}

std::string SeriesJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += JsonNumber(values[i]);
  }
  out += "]";
  return out;
}

class ServerIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::AnomalyServerOptions options;  // port 0: ephemeral
    options.runner.slots = 3;
    options.runner.queue_capacity = 16;
    auto server = net::AnomalyServer::Start(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override { server_->Stop(); }

  uint16_t port() const { return server_->port(); }

  /// Submits a job body, asserting 202; returns the assigned id.
  uint64_t Submit(const std::string& body, const std::string& tenant = "") {
    std::vector<std::pair<std::string, std::string>> headers;
    if (!tenant.empty()) {
      headers.emplace_back("X-Gva-Tenant", tenant);
    }
    const TestHttpResponse response =
        SendHttpRequest(port(), "POST", "/v1/jobs", body, headers);
    EXPECT_TRUE(response.ok);
    EXPECT_EQ(response.status, 202) << response.body;
    auto doc = ParseJson(response.body);
    EXPECT_TRUE(doc.ok());
    const JsonValue* id = doc->Find("id");
    EXPECT_NE(id, nullptr);
    return static_cast<uint64_t>(id->as_number());
  }

  /// Polls GET /v1/jobs/{id} until the state is terminal; returns the
  /// parsed document.
  JsonValue AwaitJob(uint64_t id) {
    const std::string target = "/v1/jobs/" + std::to_string(id);
    for (;;) {
      const TestHttpResponse response = HttpGet(port(), target);
      EXPECT_TRUE(response.ok);
      EXPECT_EQ(response.status, 200) << response.body;
      auto doc = ParseJson(response.body);
      EXPECT_TRUE(doc.ok()) << response.body;
      const std::string state = doc->Find("state")->as_string();
      if (state != "queued" && state != "running") {
        return *std::move(doc);
      }
      std::this_thread::yield();
    }
  }

  std::unique_ptr<net::AnomalyServer> server_;
};

/// Asserts the job document's result block is bit-identical to a library
/// outcome: the resolved SAX triple, the distance-call count, and every
/// anomaly's rank/start/end/score. Scores compare with == — the JSON wire
/// format uses %.17g so the round trip must be bit-exact, not merely close.
void ExpectResultMatchesOutcome(const JsonValue& doc,
                                const JobOutcome& expected) {
  ASSERT_EQ(doc.Find("state")->as_string(), "done") << doc.Dump();
  const JsonValue* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("detector")->as_string(), expected.detector);
  EXPECT_EQ(result->Find("window")->as_number(),
            static_cast<double>(expected.window));
  EXPECT_EQ(result->Find("paa")->as_number(),
            static_cast<double>(expected.paa));
  EXPECT_EQ(result->Find("alphabet")->as_number(),
            static_cast<double>(expected.alphabet));
  EXPECT_EQ(result->Find("distance_calls")->as_number(),
            static_cast<double>(expected.distance_calls));
  const JsonValue* anomalies = result->Find("anomalies");
  ASSERT_NE(anomalies, nullptr);
  ASSERT_EQ(anomalies->items().size(), expected.anomalies.size());
  for (size_t i = 0; i < expected.anomalies.size(); ++i) {
    const JsonValue& got = anomalies->items()[i];
    const JobAnomaly& want = expected.anomalies[i];
    EXPECT_EQ(got.Find("rank")->as_number(), static_cast<double>(want.rank));
    EXPECT_EQ(got.Find("start")->as_number(),
              static_cast<double>(want.start));
    EXPECT_EQ(got.Find("end")->as_number(), static_cast<double>(want.end));
    EXPECT_EQ(got.Find("score")->as_number(), want.score)
        << "score not bit-identical at rank " << i;
  }
}

// The acceptance gate: concurrent jobs from two tenants, results asserted
// bit-identical to the library entry points gva_cli calls. Two of the
// expectations are computed from the raw detector API (independently
// re-deriving the CLI's parameter resolution); the rest go through
// RunDetectionJob, the documented CLI-equivalent entry point — together
// they pin both the server's option plumbing and its JSON round trip.
TEST_F(ServerIntegrationTest, ConcurrentMultiTenantJobsBitIdenticalToCli) {
  const std::vector<double> ecg = MakeEcg().series.values();
  const std::vector<double> power = MakePowerDemand().series.values();
  const std::vector<double> inline_series = MakeInlineSeries(900);

  struct Case {
    std::string tenant;
    std::string body;
    JobSpec spec;  ///< CLI-equivalent spec for the expected outcome
    const std::vector<double>* series;
  };
  std::vector<Case> cases;
  auto add = [&cases](std::string tenant, std::string body, JobSpec spec,
                      const std::vector<double>* series) {
    cases.push_back(Case{std::move(tenant), std::move(body), std::move(spec),
                         series});
  };

  JobSpec spec;
  spec.detector = JobDetector::kHotSax;
  add("alpha", R"({"input": "demo:ecg", "detector": "hotsax"})", spec, &ecg);

  spec = JobSpec{};
  spec.detector = JobDetector::kHotSax;
  spec.window = 200;
  spec.paa = 5;
  spec.alphabet = 5;
  add("beta",
      R"({"input": "demo:ecg", "detector": "hotsax",
          "window": 200, "paa": 5, "alphabet": 5})",
      spec, &ecg);

  spec = JobSpec{};
  spec.detector = JobDetector::kRra;
  spec.approx = true;
  add("alpha", R"({"input": "demo:ecg", "detector": "rra", "approx": true})",
      spec, &ecg);

  spec = JobSpec{};
  spec.detector = JobDetector::kRra;
  spec.approx = true;
  spec.window = 500;
  spec.paa = 5;
  spec.alphabet = 5;
  spec.top_k = 2;
  add("beta",
      R"({"input": "demo:power", "detector": "rra", "approx": true,
          "window": 500, "paa": 5, "alphabet": 5, "top": 2})",
      spec, &power);

  spec = JobSpec{};
  spec.detector = JobDetector::kDensity;
  spec.window = 300;
  spec.paa = 6;
  spec.alphabet = 4;
  add("alpha",
      R"({"input": "demo:power", "detector": "density",
          "window": 300, "paa": 6, "alphabet": 4})",
      spec, &power);

  spec = JobSpec{};
  spec.detector = JobDetector::kDensity;
  spec.window = 120;
  spec.paa = 4;
  spec.alphabet = 4;
  spec.threshold = 0.1;
  add("beta",
      R"({"input": "demo:ecg", "detector": "density",
          "window": 120, "paa": 4, "alphabet": 4, "threshold": 0.1})",
      spec, &ecg);

  spec = JobSpec{};
  spec.detector = JobDetector::kEnsemble;
  spec.window = 150;
  spec.paa = 4;
  spec.alphabet = 6;
  add("alpha",
      R"({"input": "demo:ecg", "detector": "ensemble",
          "window": 150, "paa": 4, "alphabet": 6})",
      spec, &ecg);

  spec = JobSpec{};
  spec.detector = JobDetector::kBruteForce;
  spec.window = 50;
  spec.paa = 4;
  spec.alphabet = 4;
  add("beta",
      std::string(R"({"detector": "brute", "window": 50, "paa": 4,)") +
          R"( "alphabet": 4, "series": )" + SeriesJson(inline_series) + "}",
      spec, &inline_series);

  ASSERT_GE(cases.size(), 8u);

  // Submit all jobs concurrently: one client thread per job, two tenants
  // interleaved, against 3 server slots.
  std::vector<uint64_t> ids(cases.size(), 0);
  {
    std::vector<std::thread> submitters;
    for (size_t i = 0; i < cases.size(); ++i) {
      submitters.emplace_back([this, &cases, &ids, i] {
        ids[i] = Submit(cases[i].body, cases[i].tenant);
      });
    }
    for (std::thread& t : submitters) {
      t.join();
    }
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_NE(ids[i], 0u) << "submission " << i << " failed";
  }

  // Expected outcomes, computed while the server chews.
  const auto ecg_suggested = SuggestParameters(ecg);
  ASSERT_TRUE(ecg_suggested.ok());

  for (size_t i = 0; i < cases.size(); ++i) {
    const JsonValue doc = AwaitJob(ids[i]);
    EXPECT_EQ(doc.Find("tenant")->as_string(), cases[i].tenant);
    auto expected =
        RunDetectionJob(cases[i].spec, *cases[i].series, nullptr);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ExpectResultMatchesOutcome(doc, *expected);
  }

  // Independent re-derivation for the two hotsax jobs: straight to the
  // detector API, resolving parameters the way gva_cli does.
  {
    HotSaxOptions options;
    options.sax = *ecg_suggested;
    options.top_k = 3;
    options.num_threads = 1;
    auto direct = FindDiscordsHotSax(ecg, options);
    ASSERT_TRUE(direct.ok());
    const JsonValue doc = AwaitJob(ids[0]);
    const JsonValue* anomalies = doc.Find("result")->Find("anomalies");
    ASSERT_EQ(anomalies->items().size(), direct->discords.size());
    for (size_t i = 0; i < direct->discords.size(); ++i) {
      EXPECT_EQ(anomalies->items()[i].Find("start")->as_number(),
                static_cast<double>(direct->discords[i].position));
      EXPECT_EQ(anomalies->items()[i].Find("score")->as_number(),
                direct->discords[i].distance);
    }
  }
  {
    HotSaxOptions options;
    options.sax = *ecg_suggested;  // explicit fields overwrite below
    options.sax.window = 200;
    options.sax.paa_size = 5;
    options.sax.alphabet_size = 5;
    options.top_k = 3;
    options.num_threads = 1;
    auto direct = FindDiscordsHotSax(ecg, options);
    ASSERT_TRUE(direct.ok());
    const JsonValue doc = AwaitJob(ids[1]);
    const JsonValue* result = doc.Find("result");
    EXPECT_EQ(result->Find("window")->as_number(), 200.0);
    EXPECT_EQ(result->Find("distance_calls")->as_number(),
              static_cast<double>(direct->distance_calls));
    const JsonValue* anomalies = result->Find("anomalies");
    ASSERT_EQ(anomalies->items().size(), direct->discords.size());
    for (size_t i = 0; i < direct->discords.size(); ++i) {
      EXPECT_EQ(anomalies->items()[i].Find("score")->as_number(),
                direct->discords[i].distance);
    }
  }

  // Tenant-filtered listing sees exactly that tenant's jobs.
  size_t alpha_jobs = 0;
  for (const Case& c : cases) {
    alpha_jobs += c.tenant == "alpha" ? 1u : 0u;
  }
  const TestHttpResponse listing = HttpGet(port(), "/v1/jobs?tenant=alpha");
  ASSERT_EQ(listing.status, 200);
  auto listing_doc = ParseJson(listing.body);
  ASSERT_TRUE(listing_doc.ok());
  EXPECT_EQ(listing_doc->Find("jobs")->items().size(), alpha_jobs);
  for (const JsonValue& job : listing_doc->Find("jobs")->items()) {
    EXPECT_EQ(job.Find("tenant")->as_string(), "alpha");
  }
}

TEST_F(ServerIntegrationTest, StreamingSessionLifecycle) {
  // Create a session for tenant "acme".
  const std::vector<std::pair<std::string, std::string>> acme = {
      {"X-Gva-Tenant", "acme"}};
  TestHttpResponse response =
      SendHttpRequest(port(), "POST", "/v1/streams/s1",
                      R"({"window": 64, "paa": 4, "alphabet": 4})", acme);
  ASSERT_EQ(response.status, 201) << response.body;
  EXPECT_EQ(server_->stream_count(), 1u);

  // Creating it again collides; the same id under another tenant does not.
  response = SendHttpRequest(port(), "POST", "/v1/streams/s1", "{}", acme);
  EXPECT_EQ(response.status, 409);
  response = SendHttpRequest(port(), "POST", "/v1/streams/s1",
                             R"({"window": 64, "paa": 4, "alphabet": 4})");
  EXPECT_EQ(response.status, 201);
  EXPECT_EQ(server_->stream_count(), 2u);

  // Feed samples in two batches; the monitor accumulates.
  std::vector<double> wave(300);
  for (size_t i = 0; i < wave.size(); ++i) {
    wave[i] = std::sin(static_cast<double>(i) / 7.0);
  }
  const std::vector<double> first(wave.begin(), wave.begin() + 200);
  const std::vector<double> second(wave.begin() + 200, wave.end());
  response = SendHttpRequest(port(), "POST", "/v1/streams/s1/samples",
                             "{\"samples\": " + SeriesJson(first) + "}",
                             acme);
  ASSERT_EQ(response.status, 200) << response.body;
  response = SendHttpRequest(port(), "POST", "/v1/streams/s1/samples",
                             "{\"samples\": " + SeriesJson(second) + "}",
                             acme);
  ASSERT_EQ(response.status, 200);
  auto doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("samples_seen")->as_number(), 300.0);

  // The report reflects only acme's 300 samples, not the other tenant's
  // empty session.
  response = SendHttpRequest(port(), "GET", "/v1/streams/s1/report", "",
                             acme);
  ASSERT_EQ(response.status, 200) << response.body;
  doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("samples_seen")->as_number(), 300.0);
  ASSERT_NE(doc->Find("anomalies"), nullptr);

  // The default tenant's twin session never saw a sample: its report is a
  // precondition failure, proving the sessions are distinct.
  response = SendHttpRequest(port(), "GET", "/v1/streams/s1/report");
  EXPECT_EQ(response.status, 409);

  // Delete is scoped to the tenant too.
  response = SendHttpRequest(port(), "DELETE", "/v1/streams/s1", "", acme);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(server_->stream_count(), 1u);
  response = SendHttpRequest(port(), "DELETE", "/v1/streams/s1", "", acme);
  EXPECT_EQ(response.status, 404);  // already gone
  response = SendHttpRequest(port(), "DELETE", "/v1/streams/s1");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(server_->stream_count(), 0u);
}

TEST_F(ServerIntegrationTest, SvgReportForFinishedJob) {
  const uint64_t id = Submit(
      R"({"detector": "density", "window": 40, "paa": 4, "alphabet": 4,
          "series": )" +
      SeriesJson(MakeInlineSeries(400)) + "}");
  AwaitJob(id);
  const TestHttpResponse svg =
      HttpGet(port(), "/v1/jobs/" + std::to_string(id) + "/svg");
  ASSERT_EQ(svg.status, 200);
  const std::string* type = svg.FindHeader("content-type");
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(*type, "image/svg+xml");
  EXPECT_NE(svg.body.find("<svg"), std::string::npos);
}

TEST_F(ServerIntegrationTest, TelemetrySurfaceSharesTheListener) {
  const TestHttpResponse health = HttpGet(port(), "/healthz");
  ASSERT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"server_slots\": 3"), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"server_queue_capacity\": 16"),
            std::string::npos);

  const TestHttpResponse metrics = HttpGet(port(), "/metrics");
  ASSERT_EQ(metrics.status, 200);

  // The query-string normalization regression: a scraper appending ?x=1
  // must hit the same route (this was broken before the parser-level fix).
  const TestHttpResponse with_query = HttpGet(port(), "/metrics?x=1");
  EXPECT_EQ(with_query.status, 200);
  const TestHttpResponse health_query = HttpGet(port(), "/healthz?probe=1");
  EXPECT_EQ(health_query.status, 200);
  EXPECT_NE(health_query.body.find("\"status\": \"ok\""), std::string::npos);
}

TEST_F(ServerIntegrationTest, MalformedSubmissionsAreRejected) {
  struct BadCase {
    const char* body;
    int status;
  };
  const BadCase bad_cases[] = {
      {"not json", 400},
      {R"({"detector": "hotsax"})", 400},            // no input at all
      {R"({"input": "demo:ecg", "series": [1]})", 400},  // both inputs
      {R"({"input": "demo:nope"})", 404},            // unknown demo
      {R"({"input": "demo:ecg", "detector": "psychic"})", 404},
      {R"({"input": "demo:ecg", "widnow": 100})", 400},  // typoed field
      {R"({"series": []})", 400},                    // empty series
      {R"({"input": "demo:ecg", "window": -5})", 400},
      {R"({"input": "demo:ecg", "window": 1.5})", 400},
      // A threshold outside [0, 1] is refused at submission, whichever
      // detector would read it.
      {R"({"input": "demo:ecg", "detector": "ensemble", "threshold": 7})",
       400},
      {R"({"input": "demo:ecg", "detector": "auto", "threshold": -1})", 400},
      {R"({"input": "demo:ecg", "detector": "density", "threshold": 7})",
       400},
  };
  for (const BadCase& bad : bad_cases) {
    const TestHttpResponse response =
        SendHttpRequest(port(), "POST", "/v1/jobs", bad.body);
    EXPECT_EQ(response.status, bad.status) << bad.body << "\n"
                                           << response.body;
  }
  EXPECT_EQ(server_->runner().jobs_accepted(), 0u);
}

// Route-table unit tests straight through HandleRequest — no sockets, so
// they pin routing decisions independent of transport.
TEST_F(ServerIntegrationTest, RouteTableEdges) {
  auto request = [](std::string method, std::string target,
                    std::string body = "") {
    net::HttpRequest r;
    r.method = std::move(method);
    r.target = target;
    net::NormalizeTarget(r.target, &r.path, &r.query);
    r.body = std::move(body);
    return r;
  };

  EXPECT_EQ(server_->HandleRequest(request("GET", "/nope")).status, 404);
  EXPECT_EQ(server_->HandleRequest(request("PATCH", "/v1/jobs")).status, 405);
  EXPECT_EQ(server_->HandleRequest(request("POST", "/v1/jobs/1")).status,
            405);
  EXPECT_EQ(server_->HandleRequest(request("GET", "/v1/jobs/999")).status,
            404);
  EXPECT_EQ(server_->HandleRequest(request("GET", "/v1/jobs/abc")).status,
            404);
  EXPECT_EQ(server_->HandleRequest(request("GET", "/v1/jobs/1/bogus")).status,
            404);
  EXPECT_EQ(server_->HandleRequest(request("DELETE", "/v1/jobs/7")).status,
            404);
  EXPECT_EQ(
      server_->HandleRequest(request("GET", "/v1/streams/void/report")).status,
      404);
  EXPECT_EQ(
      server_->HandleRequest(request("POST", "/v1/streams/bad name", "{}"))
          .status,
      400);
  EXPECT_EQ(
      server_->HandleRequest(request("PATCH", "/v1/streams/s", "{}")).status,
      405);
  EXPECT_EQ(server_->HandleRequest(request("GET", "/v1/admin/shutdown"))
                .status,
            405);
  // Unfinished job: the SVG route refuses rather than rendering a stub.
  net::HttpRequest submit = request(
      "POST", "/v1/jobs",
      R"({"detector": "rra", "window": 64, "paa": 4, "alphabet": 4,
          "series": )" +
          SeriesJson(MakeInlineSeries(4000)) + "}");
  const net::HttpResponse accepted = server_->HandleRequest(submit);
  ASSERT_EQ(accepted.status, 202);
  auto doc = ParseJson(accepted.body);
  ASSERT_TRUE(doc.ok());
  const uint64_t id = static_cast<uint64_t>(doc->Find("id")->as_number());
  const std::string job_path = "/v1/jobs/" + std::to_string(id);
  const net::HttpResponse svg =
      server_->HandleRequest(request("GET", job_path + "/svg"));
  if (svg.status != 200) {
    EXPECT_EQ(svg.status, 409);  // still queued/running
  }
  AwaitJob(id);
}

// An admin shutdown request must be acknowledged, raise the flag, and make
// the event fd readable — without tearing the listener down itself (the
// daemon's main() owns the Stop() call, so the 202 can flush first).
TEST_F(ServerIntegrationTest, AdminShutdownSignalsTheEventFd) {
  ASSERT_FALSE(server_->shutdown_requested());
  const TestHttpResponse response =
      SendHttpRequest(port(), "POST", "/v1/admin/shutdown");
  ASSERT_EQ(response.status, 202);
  EXPECT_TRUE(server_->shutdown_requested());

  char byte = 0;
  EXPECT_EQ(::read(server_->shutdown_event_fd(), &byte, 1), 1);

  // The loop is still alive until Stop(): the health route keeps serving.
  EXPECT_EQ(HttpGet(port(), "/healthz").status, 200);
}

}  // namespace
}  // namespace gva
