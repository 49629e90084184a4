// Unit coverage for the serve layer: token buckets and admission,
// latency histograms, HTTP request reading under limits, and the
// AssessmentServer's endpoint behavior over real loopback sockets —
// routing, shedding, degraded labeling, updates, and drain.
// The adversarial/soak side lives in tests/serve_soak_test.cc.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/net.h"
#include "scenarios/hospital.h"
#include "serve/admission.h"
#include "serve/http.h"
#include "serve/metrics.h"
#include "storage/kb_store.h"

namespace mdqa::serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ---------------------------------------------------------------- admission

TEST(TokenBucket, BurstThenRefillDeterministic) {
  TokenBucket bucket(/*rate_per_sec=*/10.0, /*burst=*/3.0);
  const auto t0 = steady_clock::now();
  double retry = 0;
  EXPECT_TRUE(bucket.TryAcquire(t0, &retry));
  EXPECT_TRUE(bucket.TryAcquire(t0, &retry));
  EXPECT_TRUE(bucket.TryAcquire(t0, &retry));
  EXPECT_FALSE(bucket.TryAcquire(t0, &retry));
  // Empty bucket at 10 tokens/sec: one token in 0.1s.
  EXPECT_NEAR(retry, 0.1, 1e-9);
  // 100 ms later exactly one token has refilled.
  EXPECT_TRUE(bucket.TryAcquire(t0 + milliseconds(100), &retry));
  EXPECT_FALSE(bucket.TryAcquire(t0 + milliseconds(100), &retry));
  // Refill never exceeds the burst capacity.
  EXPECT_TRUE(bucket.TryAcquire(t0 + milliseconds(100000), &retry));
  EXPECT_TRUE(bucket.TryAcquire(t0 + milliseconds(100000), &retry));
  EXPECT_TRUE(bucket.TryAcquire(t0 + milliseconds(100000), &retry));
  EXPECT_FALSE(bucket.TryAcquire(t0 + milliseconds(100000), &retry));
}

TEST(AdmissionController, PerTenantIsolationAndOverrides) {
  TenantQuota defaults;
  defaults.requests_per_sec = 1.0;
  defaults.burst = 2.0;
  AdmissionController admission(defaults);

  TenantQuota premium;
  premium.requests_per_sec = 100.0;
  premium.burst = 100.0;
  premium.max_steps_per_request = 12345;
  admission.SetQuota("premium", premium);

  const auto t0 = steady_clock::now();
  // Default tenant exhausts its burst of 2...
  EXPECT_TRUE(admission.AdmitAt("anon", t0).admitted);
  EXPECT_TRUE(admission.AdmitAt("anon", t0).admitted);
  auto refused = admission.AdmitAt("anon", t0);
  EXPECT_FALSE(refused.admitted);
  EXPECT_GT(refused.retry_after_sec, 0.0);
  // ...without touching the premium tenant or another default tenant.
  for (int i = 0; i < 50; ++i) {
    auto d = admission.AdmitAt("premium", t0);
    EXPECT_TRUE(d.admitted);
    EXPECT_EQ(d.quota.max_steps_per_request, 12345u);
  }
  EXPECT_TRUE(admission.AdmitAt("other", t0).admitted);
  EXPECT_EQ(admission.NumTenantsSeen(), 3u);
}

// ----------------------------------------------------------------- metrics

TEST(LatencyHistogram, PercentilesBracketRecordedValues) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.Record(100);    // ~craft a bimodal shape
  for (int i = 0; i < 10; ++i) h.Record(10000);
  EXPECT_EQ(h.Count(), 100u);
  // Power-of-two buckets report upper bounds: p50 must bracket 100µs,
  // p99 must bracket 10000µs.
  EXPECT_GE(h.PercentileMicros(0.50), 100u);
  EXPECT_LT(h.PercentileMicros(0.50), 10000u);
  EXPECT_GE(h.PercentileMicros(0.99), 10000u);
  EXPECT_EQ(h.PercentileMicros(0.0), h.PercentileMicros(0.01));
}

TEST(ServerMetrics, ToJsonCarriesCounters) {
  ServerMetrics m;
  m.completed_ok.fetch_add(7);
  m.shed_queue_full.fetch_add(2);
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"completed_ok\":7"), std::string::npos);
  EXPECT_NE(json.find("\"shed_queue_full\":2"), std::string::npos);
  EXPECT_NE(json.find("latency_p99_us"), std::string::npos);
}

// -------------------------------------------------------------------- http

/// Sends `raw` through a real loopback socket and parses it server-side.
Result<HttpRequest> ParseRaw(const std::string& raw,
                             const HttpLimits& limits) {
  MDQA_ASSIGN_OR_RETURN(net::Listener listener, net::Listener::Bind(0));
  MDQA_ASSIGN_OR_RETURN(
      net::Socket client,
      net::ConnectLoopback(listener.port(), milliseconds(2000)));
  MDQA_ASSIGN_OR_RETURN(net::Socket server,
                        listener.Accept(milliseconds(2000)));
  MDQA_RETURN_IF_ERROR(client.SendAll(raw));
  client.Close();  // EOF so body-to-EOF reads terminate
  return ReadHttpRequest(server, limits);
}

TEST(Http, ParsesRequestLineHeadersAndBody) {
  auto req = ParseRaw(
      "POST /query?x=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Mdqa-Tenant: t1\r\n"
      "Content-Length: 4\r\n"
      "\r\n"
      "body",
      HttpLimits{});
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->target, "/query");  // query string stripped
  EXPECT_EQ(req->body, "body");
  ASSERT_NE(req->FindHeader("x-mdqa-tenant"), nullptr);  // case-insensitive
  EXPECT_EQ(*req->FindHeader("x-mdqa-tenant"), "t1");
  EXPECT_EQ(req->FindHeader("absent"), nullptr);
}

TEST(Http, MalformedRequestLineIsInvalidArgument) {
  auto req = ParseRaw("NOT-HTTP\r\n\r\n", HttpLimits{});
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument);
}

TEST(Http, OversizedHeadersTripTheCap) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  auto req = ParseRaw("GET / HTTP/1.1\r\nPadding: " +
                          std::string(200, 'x') + "\r\n\r\n",
                      limits);
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(req.status().message().find("header"), std::string::npos);
}

TEST(Http, OversizedBodyTripsTheCap) {
  HttpLimits limits;
  limits.max_body_bytes = 8;
  auto req = ParseRaw(
      "POST /q HTTP/1.1\r\nContent-Length: 100\r\n\r\n" +
          std::string(100, 'x'),
      limits);
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(req.status().message().find("body"), std::string::npos);
}

TEST(Http, ChunkedEncodingIsUnimplemented) {
  auto req = ParseRaw(
      "POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
      HttpLimits{});
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kUnimplemented);
}

TEST(Http, SerializeAddsFramingHeaders) {
  const std::string out =
      SerializeHttpResponse(429, "{}", {{"Retry-After", "2"}});
  EXPECT_NE(out.find("HTTP/1.1 429"), std::string::npos);
  EXPECT_NE(out.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(out.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(out.find("Retry-After: 2\r\n"), std::string::npos);
}

// ------------------------------------------------------------------ server

/// One request against `port` over a fresh connection.
Result<HttpResponse> Call(
    uint16_t port, const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers = {}) {
  MDQA_ASSIGN_OR_RETURN(net::Socket sock,
                        net::ConnectLoopback(port, milliseconds(2000)));
  return HttpRoundTrip(sock, method, target, body, headers, HttpLimits{});
}

std::unique_ptr<AssessmentServer> StartHospital(ServerOptions options) {
  auto context =
      scenarios::BuildHospitalContext(scenarios::HospitalOptions{});
  EXPECT_TRUE(context.ok()) << context.status();
  auto server = AssessmentServer::Start(std::move(*context), options);
  EXPECT_TRUE(server.ok()) << server.status();
  return std::move(*server);
}

TEST(AssessmentServer, HealthReportAndRouting) {
  auto server = StartHospital(ServerOptions{});
  const uint16_t port = server->port();

  auto health = Call(port, "GET", "/healthz", "");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"generation\":1"), std::string::npos);

  auto report = Call(port, "GET", "/report", "");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->status, 200);
  // The hospital scenario assesses completely: no degraded label.
  EXPECT_NE(report->body.find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(report->body.find("\"generation_check\":1"), std::string::npos);

  EXPECT_EQ(Call(port, "GET", "/nope", "")->status, 404);
  EXPECT_EQ(Call(port, "DELETE", "/report", "")->status, 405);
  EXPECT_EQ(Call(port, "POST", "/query", "not json")->status, 400);
  EXPECT_EQ(Call(port, "POST", "/query", "{\"no\": \"query\"}")->status,
            400);

  server->Shutdown();
  EXPECT_TRUE(server->DrainStatus().ok()) << server->DrainStatus();
}

TEST(AssessmentServer, FreshStartPublishesTheStandaloneReport) {
  // Start chases once and publishes the session its own Assess
  // materialized; the report must be the one a standalone run renders.
  auto context =
      scenarios::BuildHospitalContext(scenarios::HospitalOptions{});
  ASSERT_TRUE(context.ok()) << context.status();
  quality::Assessor assessor(&*context);
  std::optional<quality::PreparedContext> session;
  auto standalone = assessor.Assess(quality::AssessOptions{}, &session);
  ASSERT_TRUE(standalone.ok()) << standalone.status();
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(session->chase_stats().completeness, Completeness::kComplete);

  auto server = StartHospital(ServerOptions{});
  EXPECT_EQ(server->CurrentReportJson(), standalone->ToJson());
  auto report = Call(server->port(), "GET", "/report", "");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_NE(report->body.find(standalone->ToJson()), std::string::npos);
  server->Shutdown();
  EXPECT_TRUE(server->DrainStatus().ok()) << server->DrainStatus();
}

TEST(AssessmentServer, CleanQueryMatchesPreparedContext) {
  auto server = StartHospital(ServerOptions{});
  auto resp = Call(server->port(), "POST", "/query",
                   R"({"query": "Q(P, V) :- Measurements(T, P, V).",)"
                   R"( "clean": true})");
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->status, 200) << resp->body;
  EXPECT_NE(resp->body.find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(resp->body.find("\"completeness\":\"complete\""),
            std::string::npos);
  // Table II ground truth: the quality version keeps Tom Waits's
  // certified-nurse, B1-thermometer measurements; clean answers must
  // include him and exclude nothing that belongs.
  EXPECT_NE(resp->body.find("Tom Waits"), std::string::npos);

  // The raw (dirty) answer set is a superset: Lou Reed's rows are taken
  // with a non-B1 thermometer, so they appear raw but not clean.
  auto raw = Call(server->port(), "POST", "/query",
                  R"({"query": "Q(P, V) :- Measurements(T, P, V).",)"
                  R"( "clean": false})");
  ASSERT_TRUE(raw.ok()) << raw.status();
  ASSERT_EQ(raw->status, 200) << raw->body;
  EXPECT_NE(raw->body.find("Lou Reed"), std::string::npos);
  EXPECT_EQ(resp->body.find("Lou Reed"), std::string::npos);
}

TEST(AssessmentServer, TenantRateLimitShedsWith429AndRetryAfter) {
  ServerOptions options;
  options.default_quota.requests_per_sec = 1.0;
  options.default_quota.burst = 2.0;
  auto server = StartHospital(options);
  const uint16_t port = server->port();

  int shed = 0;
  for (int i = 0; i < 6; ++i) {
    auto resp = Call(port, "POST", "/query",
                     R"({"query": "Q(P) :- Measurements(T, P, V)."})",
                     {{"X-Mdqa-Tenant", "limited"}});
    ASSERT_TRUE(resp.ok()) << resp.status();
    if (resp->status == 429) {
      ++shed;
      ASSERT_NE(resp->FindHeader("Retry-After"), nullptr);
      EXPECT_NE(resp->body.find("retry_after_sec"), std::string::npos);
    } else {
      EXPECT_EQ(resp->status, 200);
    }
  }
  EXPECT_GE(shed, 3);  // burst 2 + ~nothing refilled in microseconds
  EXPECT_GE(server->metrics().shed_tenant_rate.load(), 3u);

  // A different tenant is unaffected.
  auto other = Call(port, "GET", "/healthz", "",
                    {{"X-Mdqa-Tenant", "fresh"}});
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->status, 200);
}

TEST(AssessmentServer, InjectedExhaustionIsAlwaysLabeledDegraded) {
  FaultInjector faults;
  faults.Arm("cq:row", 1, Status::ResourceExhausted("injected"),
             FaultInjector::kAlways);
  ServerOptions options;
  options.fault_injector = &faults;
  options.max_retries = 1;
  auto server = StartHospital(options);

  auto resp = Call(server->port(), "POST", "/query",
                   R"({"query": "Q(P, V) :- Measurements(T, P, V)."})");
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->status, 200) << resp->body;
  EXPECT_NE(resp->body.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(resp->body.find("\"completeness\":\"truncated\""),
            std::string::npos);
  EXPECT_NE(resp->body.find("\"attempts\":2"), std::string::npos);
  EXPECT_GE(server->metrics().retries.load(), 1u);
  EXPECT_GE(server->metrics().degraded_responses.load(), 1u);
}

TEST(AssessmentServer, InjectedInternalErrorIsA500NotASilentPartial) {
  FaultInjector faults;
  faults.Arm("cq:row", 1, Status::Internal("simulated allocation failure"),
             FaultInjector::kAlways);
  ServerOptions options;
  options.fault_injector = &faults;
  auto server = StartHospital(options);

  auto resp = Call(server->port(), "POST", "/query",
                   R"({"query": "Q(P, V) :- Measurements(T, P, V)."})");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 500);
  EXPECT_NE(resp->body.find("Internal"), std::string::npos);
  EXPECT_GE(server->metrics().internal_errors.load(), 1u);
}

TEST(AssessmentServer, UpdateBumpsGenerationAndChangesAnswers) {
  ServerOptions options;
  // Generous deadlines so a sanitizer-slowed re-chase still returns 200
  // applied rather than a (correct but unassertable) 202 pending.
  options.default_deadline = milliseconds(30000);
  options.default_quota.max_deadline = milliseconds(30000);
  auto server = StartHospital(options);
  const uint16_t port = server->port();

  auto resp = Call(port, "POST", "/update",
                   R"({"relation": "Measurements",)"
                   R"( "insert": [["Sep/9-23:50", "Nick Cave", "36.9"]]})");
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->status, 200) << resp->body;
  EXPECT_NE(resp->body.find("\"applied\":true"), std::string::npos);
  EXPECT_NE(resp->body.find("\"generation\":2"), std::string::npos);
  EXPECT_EQ(server->generation(), 2u);

  // Raw answers over the new snapshot see the inserted row.
  auto raw = Call(port, "POST", "/query",
                  R"({"query": "Q(P, V) :- Measurements(T, P, V).",)"
                  R"( "clean": false})");
  ASSERT_TRUE(raw.ok());
  EXPECT_NE(raw->body.find("Nick Cave"), std::string::npos);
  EXPECT_NE(raw->body.find("\"generation\":2"), std::string::npos);

  // Deleting it again goes through the deletion (full re-chase) path.
  auto del = Call(port, "POST", "/update",
                  R"({"relation": "Measurements",)"
                  R"( "delete": [["Sep/9-23:50", "Nick Cave", "36.9"]]})");
  ASSERT_TRUE(del.ok());
  ASSERT_EQ(del->status, 200) << del->body;
  EXPECT_EQ(server->generation(), 3u);
  EXPECT_GE(server->metrics().update_fallbacks.load(), 1u);

  // Bad updates are rejected with precise statuses.
  EXPECT_EQ(Call(port, "POST", "/update",
                 R"({"relation": "NoSuch", "insert": [["a"]]})")
                ->status,
            404);
  EXPECT_EQ(Call(port, "POST", "/update",
                 R"({"relation": "Measurements", "insert": [["one"]]})")
                ->status,
            400);  // arity mismatch
  EXPECT_EQ(Call(port, "POST", "/update",
                 R"({"relation": "Measurements",)"
                 R"( "delete": [["no", "such", "row"]]})")
                ->status,
            404);
  EXPECT_EQ(server->generation(), 3u);  // rejected updates publish nothing

  server->Shutdown();
  Status drained = server->DrainStatus();
  EXPECT_TRUE(drained.ok()) << drained;
}

/// An in-memory store whose AppendBatch parks until the test opens the
/// latch — it holds the writer inside its commit point for as long as
/// the test needs.
class LatchedStore : public storage::KbStore {
 public:
  Result<storage::RecoveredState> Recover() override {
    return inner_->Recover();
  }
  Status WriteCheckpoint(const storage::KbImage& image) override {
    return inner_->WriteCheckpoint(image);
  }
  Status AppendBatch(const quality::DeltaBatch& batch,
                     uint64_t target_generation) override {
    std::unique_lock<std::mutex> lock(mu_);
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
    return inner_->AppendBatch(batch, target_generation);
  }

  /// Waits (up to `timeout`) until the writer is parked in AppendBatch.
  bool WaitParked(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return parked_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::unique_ptr<storage::KbStore> inner_ = storage::NewInMemoryKbStore();
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool open_ = false;
};

TEST(AssessmentServer, QueriesAreAnsweredWhileTheWriterMakesABatchDurable) {
  LatchedStore store;
  ServerOptions options;
  options.store = &store;
  options.default_deadline = milliseconds(30000);
  options.default_quota.max_deadline = milliseconds(30000);
  auto server = StartHospital(options);
  const uint16_t port = server->port();

  Result<HttpResponse> update = Status::Internal("not sent");
  std::thread writer_client([&] {
    update = Call(port, "POST", "/update",
                  R"({"relation": "Measurements",)"
                  R"( "insert": [["Sep/9-23:50", "Nick Cave", "36.9"]]})");
  });
  const bool parked = store.WaitParked(milliseconds(20000));
  EXPECT_TRUE(parked) << "the writer never reached the WAL append";

  // The writer sits in its commit point holding no vocabulary lock: a
  // query is parsed, answered and rendered from the old generation.
  Result<HttpResponse> during = Status::Internal("not sent");
  if (parked) {
    during = Call(port, "POST", "/query",
                  R"({"query": "Q(P, V) :- Measurements(T, P, V).",)"
                  R"( "clean": false})");
  }
  store.Open();
  writer_client.join();

  ASSERT_TRUE(during.ok()) << during.status();
  ASSERT_EQ(during->status, 200) << during->body;
  EXPECT_NE(during->body.find("\"generation\":1"), std::string::npos);
  EXPECT_EQ(during->body.find("Nick Cave"), std::string::npos);

  ASSERT_TRUE(update.ok()) << update.status();
  ASSERT_EQ(update->status, 200) << update->body;
  EXPECT_NE(update->body.find("\"generation\":2"), std::string::npos);
  auto after = Call(port, "POST", "/query",
                    R"({"query": "Q(P, V) :- Measurements(T, P, V).",)"
                    R"( "clean": false})");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(after->body.find("Nick Cave"), std::string::npos);

  server->Shutdown();
  EXPECT_TRUE(server->DrainStatus().ok()) << server->DrainStatus();
}

TEST(AssessmentServer, DrainRefusesNewUpdatesButHealthzReportsIt) {
  auto server = StartHospital(ServerOptions{});
  server->RequestDrain();
  // The accept thread needs a poll cycle to close the listener; until
  // then new connections may still be served — /update must refuse even
  // on an already-accepted connection.
  auto resp = Call(server->port(), "POST", "/update",
                   R"({"relation": "Measurements",)"
                   R"( "insert": [["Sep/9-23:55", "PJ Harvey", "37.0"]]})");
  if (resp.ok()) {
    EXPECT_EQ(resp->status, 503);
  }  // else: listener already closed — equally correct
  server->Shutdown();
  EXPECT_TRUE(server->DrainStatus().ok());
}

}  // namespace
}  // namespace mdqa::serve
