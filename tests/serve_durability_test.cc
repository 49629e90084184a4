// Integration coverage for the serve-layer durability and operability
// features: restart-resume through a KbStore (checkpoint + WAL
// roll-forward, no re-chase), scenario-stamp mismatch refusal, hot
// tenant-quota reload (POST /admin/quotas with all-or-nothing
// validation), and structured JSON access logging. The filesystem-level
// crash matrix lives in tests/durability_crash_test.cc.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/net.h"
#include "scenarios/hospital.h"
#include "serve/access_log.h"
#include "serve/http.h"
#include "storage/fault_env.h"
#include "storage/kb_store.h"

namespace mdqa::serve {
namespace {

using std::chrono::milliseconds;

Result<HttpResponse> Call(
    uint16_t port, const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers = {}) {
  MDQA_ASSIGN_OR_RETURN(net::Socket sock,
                        net::ConnectLoopback(port, milliseconds(2000)));
  return HttpRoundTrip(sock, method, target, body, headers, HttpLimits{});
}

Result<std::unique_ptr<AssessmentServer>> StartHospital(
    ServerOptions options) {
  auto context =
      scenarios::BuildHospitalContext(scenarios::HospitalOptions{});
  EXPECT_TRUE(context.ok()) << context.status();
  if (!context.ok()) return context.status();
  return AssessmentServer::Start(std::move(*context), options);
}

/// Sanitizer-friendly deadlines: update application re-chases, which is
/// slow under ASan; the assertions want 200 applied, not 202 pending.
ServerOptions DurableOptions(storage::KbStore* store) {
  ServerOptions options;
  options.default_deadline = milliseconds(30000);
  options.default_quota.max_deadline = milliseconds(30000);
  options.store = store;
  options.scenario = "hospital";
  return options;
}

TEST(ServeDurability, RestartResumesAtCommittedGenerationWithoutRechase) {
  auto store = storage::NewInMemoryKbStore();

  std::string report_before;
  std::string clean_before;
  {
    auto server = StartHospital(DurableOptions(store.get()));
    ASSERT_TRUE(server.ok()) << server.status();
    EXPECT_EQ((*server)->base_generation(), 1u);
    EXPECT_TRUE((*server)->recovery_degradations().empty());
    const uint16_t port = (*server)->port();

    auto insert = Call(port, "POST", "/update",
                       R"({"relation": "Measurements",)"
                       R"( "insert": [["Sep/9-23:50", "Nick Cave", "36.9"]]})");
    ASSERT_TRUE(insert.ok()) << insert.status();
    ASSERT_EQ(insert->status, 200) << insert->body;
    auto del = Call(port, "POST", "/update",
                    R"({"relation": "Measurements",)"
                    R"( "delete": [["Sep/9-23:50", "Nick Cave", "36.9"]]})");
    ASSERT_TRUE(del.ok()) << del.status();
    ASSERT_EQ(del->status, 200) << del->body;
    EXPECT_EQ((*server)->generation(), 3u);
    // Both commits went through the WAL before publishing.
    EXPECT_EQ((*server)->metrics().wal_appends.load(), 2u);

    report_before = (*server)->CurrentReportJson();
    auto clean = Call(port, "POST", "/query",
                      R"({"query": "Q(P, V) :- Measurements(T, P, V).",)"
                      R"( "clean": true})");
    ASSERT_TRUE(clean.ok()) << clean.status();
    ASSERT_EQ(clean->status, 200) << clean->body;
    clean_before = clean->body;

    (*server)->Shutdown();
    EXPECT_TRUE((*server)->DrainStatus().ok()) << (*server)->DrainStatus();
    EXPECT_TRUE((*server)->final_persist_status().ok())
        << (*server)->final_persist_status();
  }

  // Same store, fresh process: the server must come back AT generation 3
  // (checkpoint restore + WAL roll-forward), not at 1, and serve the same
  // report and clean answers.
  auto server = StartHospital(DurableOptions(store.get()));
  ASSERT_TRUE(server.ok()) << server.status();
  EXPECT_EQ((*server)->base_generation(), 3u);
  EXPECT_EQ((*server)->generation(), 3u);
  EXPECT_EQ((*server)->CurrentReportJson(), report_before);

  auto clean = Call((*server)->port(), "POST", "/query",
                    R"({"query": "Q(P, V) :- Measurements(T, P, V).",)"
                    R"( "clean": true})");
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_EQ(clean->status, 200) << clean->body;
  // The bodies embed the generation, which matches (3 == 3), so a full
  // string compare is legitimate.
  EXPECT_EQ(clean->body, clean_before);

  (*server)->Shutdown();
  EXPECT_TRUE((*server)->DrainStatus().ok()) << (*server)->DrainStatus();
}

/// Every file under `dir` of `env`, by name, with its persisted bytes.
std::map<std::string, std::string> DirContents(storage::FaultyEnv* env,
                                               const std::string& dir) {
  std::map<std::string, std::string> out;
  auto names = env->ListDir(dir);
  EXPECT_TRUE(names.ok()) << names.status();
  if (!names.ok()) return out;
  for (const std::string& name : *names) {
    auto data = env->ReadFile(dir + "/" + name, 1u << 30);
    EXPECT_TRUE(data.ok()) << data.status();
    if (data.ok()) out[name] = std::move(*data);
  }
  return out;
}

TEST(ServeDurability, DrainedRestartsWriteNoStartupCheckpoint) {
  FaultInjector faults;
  storage::FaultyEnv env(/*seed=*/3, &faults);
  const std::string insert =
      R"({"relation": "Measurements",)"
      R"( "insert": [["Sep/9-23:50", "Nick Cave", "36.9"]]})";
  {
    auto store = storage::OpenDiskKbStore(&env, "db");
    ASSERT_TRUE(store.ok()) << store.status();
    auto server = StartHospital(DurableOptions(store->get()));
    ASSERT_TRUE(server.ok()) << server.status();
    auto resp = Call((*server)->port(), "POST", "/update", insert);
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_EQ(resp->status, 200) << resp->body;
    (*server)->Shutdown();
    ASSERT_TRUE((*server)->DrainStatus().ok()) << (*server)->DrainStatus();
  }
  const std::map<std::string, std::string> drained = DirContents(&env, "db");
  ASSERT_FALSE(drained.empty());

  // A drained restart recovers the drain checkpoint and replays nothing:
  // it has nothing to fold, so it must not write a checkpoint. Every
  // rename (the checkpoint commit step) fails while the server starts.
  for (int restart = 0; restart < 2; ++restart) {
    auto store = storage::OpenDiskKbStore(&env, "db");
    ASSERT_TRUE(store.ok()) << store.status();
    faults.Arm("fs.rename", 1, Status::Internal("unexpected checkpoint"),
               FaultInjector::kAlways);
    auto server = StartHospital(DurableOptions(store->get()));
    faults.Reset();
    ASSERT_TRUE(server.ok()) << server.status();
    EXPECT_EQ((*server)->base_generation(), 2u);
    EXPECT_TRUE((*server)->recovery_degradations().empty());
    (*server)->Shutdown();
    EXPECT_TRUE((*server)->DrainStatus().ok()) << (*server)->DrainStatus();
    EXPECT_EQ(DirContents(&env, "db"), drained) << "restart " << restart;
  }

  // The resumed server still commits: its WAL is the recovered one.
  {
    auto store = storage::OpenDiskKbStore(&env, "db");
    ASSERT_TRUE(store.ok()) << store.status();
    auto server = StartHospital(DurableOptions(store->get()));
    ASSERT_TRUE(server.ok()) << server.status();
    auto resp = Call((*server)->port(), "POST", "/update",
                     R"({"relation": "Measurements",)"
                     R"( "delete": [["Sep/9-23:50", "Nick Cave", "36.9"]]})");
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_EQ(resp->status, 200) << resp->body;
    EXPECT_EQ((*server)->generation(), 3u);
    EXPECT_EQ((*server)->metrics().wal_appends.load(), 1u);
  }
  // Crash-style restart (no drain): the committed batch is replayed from
  // the recovered WAL.
  auto store = storage::OpenDiskKbStore(&env, "db");
  ASSERT_TRUE(store.ok()) << store.status();
  auto server = StartHospital(DurableOptions(store->get()));
  ASSERT_TRUE(server.ok()) << server.status();
  EXPECT_EQ((*server)->generation(), 3u);
  (*server)->Shutdown();
  EXPECT_TRUE((*server)->DrainStatus().ok()) << (*server)->DrainStatus();
}

TEST(ServeDurability, ScenarioMismatchRefusesToResume) {
  auto store = storage::NewInMemoryKbStore();
  {
    auto server = StartHospital(DurableOptions(store.get()));
    ASSERT_TRUE(server.ok()) << server.status();
    (*server)->Shutdown();
    ASSERT_TRUE((*server)->final_persist_status().ok());
  }
  // The checkpoint is stamped "hospital"; a server claiming to run a
  // different program must refuse it rather than marry foreign rows to
  // the wrong rules.
  ServerOptions options = DurableOptions(store.get());
  options.scenario = "synthetic";
  auto server = StartHospital(options);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kFailedPrecondition)
      << server.status();
}

TEST(ServeDurability, QuotaHotReloadIsAllOrNothing) {
  ServerOptions options;
  auto server_or = StartHospital(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status();
  auto& server = *server_or;
  const uint16_t port = server->port();

  // A valid config applies and takes effect immediately: the "throttled"
  // tenant gets a burst of 1 and no refill to speak of.
  auto apply = Call(port, "POST", "/admin/quotas",
                    R"({"throttled": {"requests_per_sec": 0.001,)"
                    R"( "burst": 1}})");
  ASSERT_TRUE(apply.ok()) << apply.status();
  EXPECT_EQ(apply->status, 200) << apply->body;
  EXPECT_EQ(server->metrics().quota_reloads.load(), 1u);

  // Admission guards the evaluating endpoints (query/assess/update).
  const std::string query =
      R"({"query": "Q(P) :- Measurements(T, P, V)."})";
  auto first = Call(port, "POST", "/query", query,
                    {{"X-Mdqa-Tenant", "throttled"}});
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->status, 200) << first->body;
  auto second = Call(port, "POST", "/query", query,
                     {{"X-Mdqa-Tenant", "throttled"}});
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->status, 429) << second->body;

  // Malformed configs are rejected wholesale — even when the FIRST entry
  // is valid, the bad second entry must keep the first from applying.
  const std::string bad_configs[] = {
      "not json at all",
      R"(["arrays", "are", "not", "quota", "maps"])",
      R"({"t": {"requests_per_sec": -5}})",
      R"({"ok_tenant": {"burst": 3}, "bad": {"no_such_knob": 1}})",
      R"({"t": {"requests_per_sec": "fast"}})",
  };
  for (const std::string& config : bad_configs) {
    auto rejected = Call(port, "POST", "/admin/quotas", config);
    ASSERT_TRUE(rejected.ok()) << rejected.status();
    EXPECT_EQ(rejected->status, 400) << config << " -> " << rejected->body;
  }
  EXPECT_EQ(server->metrics().quota_reloads.load(), 1u);
  // "ok_tenant" from the half-valid config must NOT have been applied:
  // with the default quota (burst 50) it can fire many more requests
  // than the rejected config's burst of 3.
  for (int i = 0; i < 6; ++i) {
    auto resp = Call(port, "POST", "/query", query,
                     {{"X-Mdqa-Tenant", "ok_tenant"}});
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_EQ(resp->status, 200) << "half-valid config partially applied";
  }

  server->Shutdown();
  EXPECT_TRUE(server->DrainStatus().ok());
}

TEST(ServeDurability, AccessLogRecordsOneLinePerRequestWithOutcomes) {
  storage::FaultyEnv env(/*seed=*/3);
  auto log = AccessLog::Open(&env, "access.log", /*max_bytes=*/1 << 20);
  ASSERT_TRUE(log.ok()) << log.status();

  ServerOptions options;
  options.default_quota.requests_per_sec = 1.0;
  options.default_quota.burst = 2.0;
  options.access_log = log->get();
  auto server_or = StartHospital(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status();
  auto& server = *server_or;
  const uint16_t port = server->port();

  ASSERT_EQ(Call(port, "GET", "/report", "", {{"X-Mdqa-Tenant", "icu"}})
                ->status,
            200);
  ASSERT_EQ(Call(port, "POST", "/query", "not json",
                 {{"X-Mdqa-Tenant", "icu"}})
                ->status,
            400);
  // Exhaust the burst of 2 → the third query from this tenant sheds
  // (admission guards the evaluating endpoints).
  int shed = 0;
  for (int i = 0; i < 3; ++i) {
    auto resp = Call(port, "POST", "/query",
                     R"({"query": "Q(P) :- Measurements(T, P, V)."})",
                     {{"X-Mdqa-Tenant", "bursty"}});
    ASSERT_TRUE(resp.ok()) << resp.status();
    if (resp->status == 429) ++shed;
  }
  EXPECT_GE(shed, 1);

  server->Shutdown();
  EXPECT_EQ((*log)->lines_written(), 5u);
  EXPECT_EQ((*log)->lines_dropped(), 0u);

  auto content = env.ReadFile("access.log", 1 << 20);
  ASSERT_TRUE(content.ok()) << content.status();
  // One JSON object per line, carrying tenant, generation, status, and a
  // classified outcome for every request — including the shed and the
  // parse rejection.
  EXPECT_NE(content->find("\"tenant\":\"icu\""), std::string::npos);
  EXPECT_NE(content->find("\"target\":\"/report\""), std::string::npos);
  EXPECT_NE(content->find("\"generation\":1"), std::string::npos);
  EXPECT_NE(content->find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(content->find("\"outcome\":\"rejected\""), std::string::npos);
  EXPECT_NE(content->find("\"outcome\":\"shed\""), std::string::npos);
  EXPECT_NE(content->find("\"status\":429"), std::string::npos);
  EXPECT_EQ(std::count(content->begin(), content->end(), '\n'), 5);
}

}  // namespace
}  // namespace mdqa::serve
