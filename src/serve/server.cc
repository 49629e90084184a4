#include "serve/server.h"

#include <algorithm>
#include <cctype>
#include <optional>

#include "datalog/rule.h"
#include "storage/session_image.h"

namespace mdqa::serve {

namespace {

using quality::DeltaBatch;
using quality::PreparedContext;
using quality::RelationDelta;

int64_t NowNs() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

std::string ErrorBody(const Status& s) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error").String(StatusCodeToString(s.code()));
  w.Key("message").String(s.message());
  w.EndObject();
  return w.TakeString();
}

std::string ErrorResponse(int http_status, const Status& s) {
  return SerializeHttpResponse(http_status, ErrorBody(s));
}

std::string ShedResponse(double retry_after_sec, const char* what) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error").String("ResourceExhausted");
  w.Key("message").String(what);
  w.Key("retry_after_sec").Number(retry_after_sec);
  w.EndObject();
  int whole = static_cast<int>(retry_after_sec) + 1;
  return SerializeHttpResponse(
      429, w.TakeString(),
      {{"Retry-After", std::to_string(whole)}});
}

/// Maps a request-reading failure to the response (nullptr = just close:
/// the peer went away before sending anything useful).
std::unique_ptr<std::string> ResponseForReadError(const Status& s) {
  switch (s.code()) {
    case StatusCode::kNotFound:
      return nullptr;
    case StatusCode::kInvalidArgument:
      return std::make_unique<std::string>(ErrorResponse(400, s));
    case StatusCode::kUnimplemented:
      return std::make_unique<std::string>(ErrorResponse(501, s));
    case StatusCode::kResourceExhausted: {
      int code = 408;  // timeout by default
      if (s.message().find("headers") != std::string::npos) code = 431;
      if (s.message().find("body") != std::string::npos) code = 413;
      return std::make_unique<std::string>(ErrorResponse(code, s));
    }
    default:
      return std::make_unique<std::string>(ErrorResponse(400, s));
  }
}

/// Tenant ids come off the wire: bound the length and the alphabet so a
/// hostile client cannot grow the admission registry with garbage keys.
Result<std::string> SanitizeTenant(const HttpRequest& req) {
  const std::string* hdr = req.FindHeader("X-Mdqa-Tenant");
  std::string tenant = hdr != nullptr ? *hdr : "anonymous";
  if (tenant.empty() || tenant.size() > 64) {
    return Status::InvalidArgument("serve: tenant id must be 1..64 chars");
  }
  for (char c : tenant) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
        c != '_' && c != '.') {
      return Status::InvalidArgument("serve: tenant id has invalid chars");
    }
  }
  return tenant;
}

Result<Tuple> RowFromJson(const JsonValue& row, size_t arity) {
  if (!row.is_array()) {
    return Status::InvalidArgument("serve: row must be a JSON array");
  }
  if (row.Items().size() != arity) {
    return Status::InvalidArgument(
        "serve: row arity " + std::to_string(row.Items().size()) +
        " does not match relation arity " + std::to_string(arity));
  }
  Tuple t;
  t.reserve(arity);
  for (const JsonValue& cell : row.Items()) {
    if (cell.is_string()) {
      // Same conversion as CSV/InsertText ingestion: numeric-looking
      // strings become numbers, everything else stays a string.
      t.push_back(Value::FromText(cell.AsString()));
    } else if (cell.is_number()) {
      t.push_back(Value::Real(cell.AsNumber()));
    } else {
      return Status::InvalidArgument(
          "serve: row cells must be strings or numbers");
    }
  }
  return t;
}

/// RAII arm/disarm of a watchdog slot around one budgeted request.
class SlotGuard {
 public:
  SlotGuard(std::atomic<bool>* active, std::atomic<int64_t>* deadline_ns,
            CancellationToken* token, int64_t hard_deadline_ns)
      : active_(active) {
    token->Reset();
    deadline_ns->store(hard_deadline_ns, std::memory_order_relaxed);
    active_->store(true, std::memory_order_release);
  }
  ~SlotGuard() { active_->store(false, std::memory_order_release); }

 private:
  std::atomic<bool>* active_;
};

}  // namespace

Result<std::unique_ptr<AssessmentServer>> AssessmentServer::Start(
    quality::QualityContext context, const ServerOptions& options) {
  std::unique_ptr<AssessmentServer> server(
      new AssessmentServer(std::move(context), options));

  // Initial snapshot. With a store: recover the newest durable state and
  // resume at its committed generation without re-chasing. Without one
  // (or with an empty store): materialize once, assess fully. Constraint
  // violations (kInconsistent) and lint errors refuse startup either way
  // — a daemon must not come up serving a world it knows to be broken.
  std::shared_ptr<const storage::KbImage> image;
  std::vector<storage::WalRecord> wal_records;
  if (options.store != nullptr) {
    MDQA_ASSIGN_OR_RETURN(storage::RecoveredState rec,
                          options.store->Recover());
    server->recovery_degradations_ = std::move(rec.degradations);
    if (rec.has_checkpoint) {
      if (rec.image.meta.scenario != options.scenario) {
        return Status::FailedPrecondition(
            "serve: checkpoint was written by scenario '" +
            rec.image.meta.scenario + "', not '" + options.scenario +
            "'; refusing to resume from a foreign knowledge base");
      }
      image = std::make_shared<const storage::KbImage>(std::move(rec.image));
      wal_records = std::move(rec.wal_records);
    }
  }

  quality::Assessor assessor(&server->context_);
  std::optional<PreparedContext> prepared;
  std::optional<quality::AssessmentReport> report;
  uint64_t generation = 1;
  uint64_t replayed = 0;  // WAL records rolled forward
  if (image != nullptr) {
    // Restore: swap in the persisted database, rebuild the materialized
    // instance from the image (no chase), and recompute the report off
    // the materialization (Reassess against an empty previous recomputes
    // every relation).
    MDQA_ASSIGN_OR_RETURN(Database db, storage::DatabaseFromImage(*image));
    MDQA_RETURN_IF_ERROR(server->context_.ReplaceDatabase(std::move(db)));
    MDQA_ASSIGN_OR_RETURN(
        PreparedContext restored,
        server->context_.PrepareRestored(datalog::ChaseOptions{},
                                         storage::ImageRebuilder(image)));
    quality::AssessmentReport none;
    MDQA_ASSIGN_OR_RETURN(quality::AssessmentReport rep,
                          assessor.Reassess(restored, none));
    prepared = std::move(restored);
    report = std::move(rep);
    generation = image->meta.generation;

    // Roll the WAL forward: each committed-but-not-checkpointed batch is
    // re-applied exactly as the writer thread originally did.
    for (const storage::WalRecord& wr : wal_records) {
      if (wr.target_generation <= generation) continue;
      ++replayed;
      MDQA_ASSIGN_OR_RETURN(PreparedContext next,
                            prepared->ApplyUpdate(wr.batch));
      MDQA_ASSIGN_OR_RETURN(quality::AssessmentReport rep2,
                            assessor.Reassess(next, *report));
      prepared = std::move(next);
      report = std::move(rep2);
      generation = wr.target_generation;
    }
  } else {
    // One chase serves both: the assessment hands back the session it
    // materialized. It does not when the data violates a constraint (the
    // report records the violation); preparing again then surfaces it
    // as the refusal.
    MDQA_ASSIGN_OR_RETURN(
        quality::AssessmentReport rep,
        assessor.Assess(quality::AssessOptions{}, &prepared));
    if (!prepared.has_value()) {
      MDQA_ASSIGN_OR_RETURN(PreparedContext fresh,
                            server->context_.Prepare());
      prepared = std::move(fresh);
    }
    report = std::move(rep);
  }

  // A clean resume — a checkpoint recovered without damage and nothing
  // replayed on top — has nothing to fold: the recovered checkpoint is
  // already the durable base, and Recover reopened its WAL.
  server->clean_resume_ = image != nullptr && replayed == 0 &&
                          server->recovery_degradations_.empty();
  if (options.store != nullptr && !server->clean_resume_) {
    // Collapse recovery into a fresh checkpoint: replayed WAL records are
    // folded in and the log rotates, so the next restart replays nothing;
    // a fresh store gets its durable base (AppendBatch needs an open WAL).
    MDQA_ASSIGN_OR_RETURN(
        storage::KbImage captured,
        storage::CaptureSessionImage(*prepared, generation, generation - 1,
                                     options.scenario));
    MDQA_RETURN_IF_ERROR(options.store->WriteCheckpoint(captured));
  }

  server->base_generation_ = generation;
  auto snap = std::make_shared<Snapshot>();
  snap->generation = generation;
  snap->session =
      std::make_shared<const PreparedContext>(std::move(*prepared));
  snap->report_json = report->ToJson();
  snap->report = std::make_shared<const quality::AssessmentReport>(
      std::move(*report));
  server->snapshot_ = std::move(snap);

  MDQA_ASSIGN_OR_RETURN(server->listener_,
                        net::Listener::Bind(options.port));

  const int workers = std::max(1, options.worker_threads);
  server->slots_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    server->slots_.push_back(std::make_unique<RequestSlot>());
  }
  AssessmentServer* raw = server.get();
  server->accept_thread_ = std::thread([raw] { raw->AcceptLoop(); });
  for (int i = 0; i < workers; ++i) {
    server->workers_.emplace_back(
        [raw, i] { raw->WorkerLoop(static_cast<size_t>(i)); });
  }
  server->writer_thread_ = std::thread([raw] { raw->WriterLoop(); });
  server->watchdog_thread_ = std::thread([raw] { raw->WatchdogLoop(); });
  return server;
}

AssessmentServer::~AssessmentServer() { Shutdown(); }

void AssessmentServer::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  draining_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  accept_done_.store(true, std::memory_order_release);
  conn_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_done_.store(true, std::memory_order_release);
  update_cv_.notify_all();
  if (writer_thread_.joinable()) writer_thread_.join();
  stop_watchdog_.store(true, std::memory_order_release);
  if (watchdog_thread_.joinable()) watchdog_thread_.join();

  if (options_.store != nullptr) {
    // Drain-time checkpoint: the final generation becomes the restart
    // base, so the next process resumes here without replaying the WAL.
    // Failure is recorded, never swallowed — DrainStatus reports it.
    // A null snapshot means Start failed before the first publish (this
    // runs from the destructor of the half-built server): nothing was
    // served, so there is nothing to persist.
    auto snap = Pin();
    if (snap == nullptr) return;
    // Nothing committed since a clean resume: the recovered checkpoint
    // already is the final generation's durable base.
    if (clean_resume_ && snap->generation == base_generation_) return;
    auto image = storage::CaptureSessionImage(
        *snap->session, snap->generation, snap->generation - 1,
        options_.scenario);
    final_persist_status_ = image.ok()
                                ? options_.store->WriteCheckpoint(*image)
                                : image.status();
  }
}

Status AssessmentServer::DrainStatus() const {
  {
    MutexLock lock(&conn_mu_);
    if (!conn_queue_.empty()) {
      return Status::Internal("drain: connection queue not empty");
    }
  }
  {
    MutexLock lock(&update_mu_);
    if (!update_queue_.empty()) {
      return Status::Internal("drain: update queue not empty");
    }
  }
  if (in_flight_.load(std::memory_order_acquire) != 0) {
    return Status::Internal("drain: requests still in flight");
  }
  auto snap = Pin();
  const uint64_t applied =
      metrics_.updates_applied.load(std::memory_order_relaxed);
  if (snap->generation != base_generation_ + applied) {
    return Status::Internal(
        "drain: generation " + std::to_string(snap->generation) + " != " +
        std::to_string(base_generation_) + " (base) + " +
        std::to_string(applied) + " applied updates");
  }
  if (snap->report == nullptr || snap->report_json.empty()) {
    return Status::Internal("drain: no published report");
  }
  if (!final_persist_status_.ok()) {
    return Status::Internal("drain: final checkpoint failed: " +
                            final_persist_status_.ToString());
  }
  return Status::Ok();
}

Status AssessmentServer::ApplyQuotaConfig(const std::string& json_text) {
  auto cfg = JsonValue::Parse(json_text, options_.json_limits);
  if (!cfg.ok()) return cfg.status();
  if (!cfg->is_object()) {
    return Status::InvalidArgument(
        "serve: quota config must be a JSON object of tenant -> quota");
  }
  // Validate everything before applying anything: a config with one bad
  // entry must not half-apply.
  std::vector<std::pair<std::string, TenantQuota>> parsed;
  for (const auto& [tenant, spec] : cfg->Members()) {
    if (tenant.empty() || tenant.size() > 64) {
      return Status::InvalidArgument(
          "serve: quota config: tenant id must be 1..64 chars");
    }
    if (!spec.is_object()) {
      return Status::InvalidArgument("serve: quota config: entry for '" +
                                     tenant + "' must be an object");
    }
    TenantQuota quota = options_.default_quota;
    for (const auto& [key, value] : spec.Members()) {
      if (!value.is_number() || value.AsNumber() < 0) {
        return Status::InvalidArgument(
            "serve: quota config: '" + tenant + "." + key +
            "' must be a non-negative number");
      }
      const double n = value.AsNumber();
      if (key == "requests_per_sec") {
        if (n <= 0) {
          return Status::InvalidArgument(
              "serve: quota config: '" + tenant +
              ".requests_per_sec' must be positive");
        }
        quota.requests_per_sec = n;
      } else if (key == "burst") {
        if (n <= 0) {
          return Status::InvalidArgument("serve: quota config: '" + tenant +
                                         ".burst' must be positive");
        }
        quota.burst = n;
      } else if (key == "max_deadline_ms") {
        if (n < 1 || n > 3600 * 1000) {
          return Status::InvalidArgument(
              "serve: quota config: '" + tenant +
              ".max_deadline_ms' out of range [1, 3600000]");
        }
        quota.max_deadline = std::chrono::milliseconds(
            static_cast<int64_t>(n));
      } else if (key == "max_steps") {
        quota.max_steps_per_request = static_cast<uint64_t>(n);
      } else if (key == "max_facts") {
        quota.max_facts_per_request = static_cast<uint64_t>(n);
      } else {
        return Status::InvalidArgument("serve: quota config: unknown key '" +
                                       tenant + "." + key + "'");
      }
    }
    parsed.emplace_back(tenant, quota);
  }
  for (auto& [tenant, quota] : parsed) {
    admission_.SetQuota(tenant, quota);
  }
  metrics_.quota_reloads.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

std::shared_ptr<const AssessmentServer::Snapshot> AssessmentServer::Pin()
    const {
  MutexLock lock(&snapshot_mu_);
  return snapshot_;
}

void AssessmentServer::Publish(std::shared_ptr<const Snapshot> snap) {
  MutexLock lock(&snapshot_mu_);
  snapshot_ = std::move(snap);
}

uint64_t AssessmentServer::generation() const { return Pin()->generation; }

std::string AssessmentServer::CurrentReportJson() const {
  return Pin()->report_json;
}

std::shared_ptr<const quality::PreparedContext>
AssessmentServer::CurrentSession() const {
  return Pin()->session;
}

void AssessmentServer::AcceptLoop() {
  // Mutex-free fast check on conn_mu_ would be racy; size reads take the
  // lock — accepts are not the hot path, handling is.
  while (!draining()) {
    auto accepted = listener_.Accept(std::chrono::milliseconds(50));
    if (!accepted.ok()) continue;  // timeout or transient error: poll again
    metrics_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    net::Socket sock = std::move(*accepted);
    bool shed = false;
    {
      MutexLock lock(&conn_mu_);
      if (conn_queue_.size() >= options_.queue_capacity) {
        shed = true;
      } else {
        conn_queue_.push_back(std::move(sock));
      }
    }
    if (shed) {
      metrics_.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
      sock.SetSendTimeout(std::chrono::milliseconds(1000));
      sock.SendAll(ShedResponse(options_.shed_retry_after_sec,
                                "serve: request queue full"));
      // close on scope exit
    } else {
      conn_cv_.notify_one();
    }
  }
  listener_.Close();
}

void AssessmentServer::WorkerLoop(size_t worker_index) {
  RequestSlot* slot = slots_[worker_index].get();
  while (true) {
    net::Socket sock;
    {
      MutexLock lock(&conn_mu_);
      while (conn_queue_.empty() &&
             !accept_done_.load(std::memory_order_acquire)) {
        conn_cv_.wait(conn_mu_);
      }
      if (conn_queue_.empty()) {
        if (accept_done_.load(std::memory_order_acquire)) return;
        continue;
      }
      sock = std::move(conn_queue_.front());
      conn_queue_.pop_front();
    }
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    HandleConnection(std::move(sock), slot);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

namespace {

/// Status code off a serialized response ("HTTP/1.1 NNN ..."); 0 when
/// the prefix is malformed (never the case for our own serializer).
int StatusOfResponse(const std::string& response) {
  if (response.size() < 12 || response.compare(0, 9, "HTTP/1.1 ") != 0) {
    return 0;
  }
  int code = 0;
  for (size_t i = 9; i < 12; ++i) {
    char c = response[i];
    if (c < '0' || c > '9') return 0;
    code = code * 10 + (c - '0');
  }
  return code;
}

/// Wire-status → outcome label. A 200 whose body is labeled degraded
/// (partial answers under a tripped budget) logs as "degraded" — the
/// body is our own serializer's output, so the marker probe is exact.
const char* OutcomeOf(int status, const std::string& response) {
  if (status == 429) return "shed";
  if (status == 408) return "timeout";
  if (status >= 500) return "error";
  if (status >= 400) return "rejected";
  if (response.find("\"degraded\":true") != std::string::npos) {
    return "degraded";
  }
  return "ok";
}

}  // namespace

void AssessmentServer::HandleConnection(net::Socket sock, RequestSlot* slot) {
  const auto start = std::chrono::steady_clock::now();
  auto req = ReadHttpRequest(sock, options_.http_limits);
  sock.SetSendTimeout(options_.http_limits.read_timeout);
  AccessLog::Entry log_entry;
  if (options_.access_log != nullptr) {
    auto snap = Pin();
    log_entry.generation = snap->generation;
    log_entry.engine = qa::EngineToString(snap->report->engine_used);
  }
  auto finish = [&](const std::string& response, bool record_latency) {
    const auto end = std::chrono::steady_clock::now();
    const auto us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(end - start)
            .count());
    if (record_latency) metrics_.latency.Record(us);
    if (options_.access_log == nullptr) return;
    log_entry.latency_us = us;
    log_entry.http_status = StatusOfResponse(response);
    log_entry.outcome = OutcomeOf(log_entry.http_status, response);
    options_.access_log->Record(log_entry);
  };
  if (!req.ok()) {
    log_entry.tenant = "-";
    log_entry.method = "-";
    log_entry.target = "-";
    auto resp = ResponseForReadError(req.status());
    if (resp != nullptr) {
      metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
      sock.SendAll(*resp);
      finish(*resp, /*record_latency=*/false);
    }
    return;
  }
  log_entry.method = req->method;
  log_entry.target = req->target;
  if (const std::string* t = req->FindHeader("X-Mdqa-Tenant")) {
    log_entry.tenant = t->substr(0, 64);
  } else {
    log_entry.tenant = "anonymous";
  }
  metrics_.requests_parsed.fetch_add(1, std::memory_order_relaxed);
  std::string response = Dispatch(*req, slot);
  sock.SendAll(response);
  finish(response, /*record_latency=*/true);
}

std::string AssessmentServer::Dispatch(const HttpRequest& req,
                                       RequestSlot* slot) {
  if (req.method == "GET") {
    if (req.target == "/healthz") return HandleHealth();
    if (req.target == "/stats") return HandleStats();
    if (req.target == "/report") return HandleReport();
  } else if (req.method == "POST") {
    if (req.target == "/query") return HandleQuery(req, slot);
    if (req.target == "/assess") return HandleAssess(req);
    if (req.target == "/update") return HandleUpdate(req, slot);
    if (req.target == "/admin/quotas") return HandleAdminQuotas(req);
  } else {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(405,
                         Status::InvalidArgument("serve: unsupported method"));
  }
  metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
  return ErrorResponse(
      404, Status::NotFound("serve: no route " + req.method + " " +
                            req.target));
}

std::string AssessmentServer::HandleHealth() {
  auto snap = Pin();
  JsonWriter w;
  w.BeginObject();
  w.Key("status").String(draining() ? "draining" : "ok");
  w.Key("generation").Number(static_cast<int64_t>(snap->generation));
  w.EndObject();
  metrics_.completed_ok.fetch_add(1, std::memory_order_relaxed);
  return SerializeHttpResponse(200, w.TakeString());
}

std::string AssessmentServer::HandleStats() {
  auto snap = Pin();
  std::string body = "{\"generation\":" + std::to_string(snap->generation) +
                     ",\"tenants_seen\":" +
                     std::to_string(admission_.NumTenantsSeen()) +
                     ",\"metrics\":" + metrics_.ToJson() + "}";
  metrics_.completed_ok.fetch_add(1, std::memory_order_relaxed);
  return SerializeHttpResponse(200, body);
}

std::string AssessmentServer::HandleReport() {
  auto snap = Pin();
  const bool degraded =
      snap->report->completeness != Completeness::kComplete ||
      !snap->report->degraded.empty();
  std::string body = "{\"generation\":" + std::to_string(snap->generation) +
                     ",\"degraded\":" + (degraded ? "true" : "false") +
                     ",\"report\":" + snap->report_json +
                     ",\"generation_check\":" +
                     std::to_string(snap->generation) + "}";
  metrics_.completed_ok.fetch_add(1, std::memory_order_relaxed);
  if (degraded) {
    metrics_.degraded_responses.fetch_add(1, std::memory_order_relaxed);
  }
  return SerializeHttpResponse(200, body);
}

std::string AssessmentServer::HandleQuery(const HttpRequest& req,
                                          RequestSlot* slot) {
  auto tenant = SanitizeTenant(req);
  if (!tenant.ok()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(400, tenant.status());
  }
  AdmissionController::Decision decision = admission_.Admit(*tenant);
  if (!decision.admitted) {
    metrics_.shed_tenant_rate.fetch_add(1, std::memory_order_relaxed);
    return ShedResponse(decision.retry_after_sec,
                        "serve: tenant rate limit exceeded");
  }

  auto body = JsonValue::Parse(req.body, options_.json_limits);
  if (!body.ok()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(
        body.status().code() == StatusCode::kResourceExhausted ? 413 : 400,
        body.status());
  }
  const JsonValue* qtext = body->Find("query");
  if (qtext == nullptr || !qtext->is_string()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(
        400, Status::InvalidArgument("serve: missing string field 'query'"));
  }
  const JsonValue* clean_field = body->Find("clean");
  const bool clean = clean_field == nullptr || clean_field->AsBool();

  // Deadline: client ask, clamped to the tenant's ceiling.
  std::chrono::milliseconds deadline = options_.default_deadline;
  if (const std::string* hdr = req.FindHeader("X-Mdqa-Deadline-Ms")) {
    int64_t ms = 0;
    for (char c : *hdr) {
      if (c < '0' || c > '9') { ms = -1; break; }
      ms = ms * 10 + (c - '0');
      if (ms > 3600 * 1000) break;
    }
    if (ms > 0) deadline = std::chrono::milliseconds(ms);
  }
  deadline = std::min(deadline, decision.quota.max_deadline);
  const auto overall_deadline = std::chrono::steady_clock::now() + deadline;

  auto snap = Pin();
  const PreparedContext& session = *snap->session;

  datalog::ConjunctiveQuery query;
  {
    WriterMutexLock lock(&vocab_mu_);
    session.program().vocab()->BindToCurrentThread();
    auto parsed = clean ? session.PrepareCleanQuery(qtext->AsString())
                        : session.PrepareRawQuery(qtext->AsString());
    if (!parsed.ok()) {
      metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponse(400, parsed.status());
    }
    query = std::move(*parsed);
  }

  SlotGuard guard(&slot->active, &slot->hard_deadline_ns, &slot->token,
                  (overall_deadline + options_.watchdog_grace)
                      .time_since_epoch()
                      .count());

  qa::AnswerSet answers;
  int attempts = 0;
  bool degraded = false;
  for (int attempt = 0;; ++attempt) {
    ExecutionBudget budget;
    budget.SetDeadline(overall_deadline);
    budget.set_cancellation(&slot->token);
    if (options_.fault_injector != nullptr) {
      budget.set_fault_injector(options_.fault_injector);
    }
    uint64_t escalation = 1;
    for (int i = 0; i < attempt; ++i) {
      escalation *= static_cast<uint64_t>(options_.escalation_factor);
    }
    if (decision.quota.max_steps_per_request > 0) {
      budget.set_max_steps(decision.quota.max_steps_per_request * escalation);
    }
    if (decision.quota.max_facts_per_request > 0) {
      budget.set_max_facts(decision.quota.max_facts_per_request * escalation);
    }

    Result<qa::AnswerSet> r = Status::Internal("unreached");
    {
      ReaderMutexLock lock(&vocab_mu_);
      r = session.Answer(query, &budget);
    }
    ++attempts;
    if (!r.ok()) {
      // A non-truncation status (e.g. an injected kInternal simulating an
      // allocation failure) is a hard error: 500, never a silent partial.
      metrics_.internal_errors.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponse(500, r.status());
    }
    answers = std::move(*r);
    if (answers.completeness == Completeness::kComplete) break;

    // Truncated: retry only when it plausibly helps — counters (or an
    // injected exhaustion) tripped while deadline remains and nobody
    // cancelled us. Deadline and cancellation trips re-fire immediately,
    // so retrying them would only burn queue time.
    const bool cancelled =
        answers.interruption.code() == StatusCode::kCancelled;
    const auto now = std::chrono::steady_clock::now();
    const bool deadline_left =
        now + options_.retry_backoff_base < overall_deadline;
    if (!cancelled && deadline_left && attempt < options_.max_retries) {
      metrics_.retries.fetch_add(1, std::memory_order_relaxed);
      auto backoff = options_.retry_backoff_base * (1 << attempt);
      auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          overall_deadline - now);
      std::this_thread::sleep_for(std::min(backoff, remaining));
      continue;
    }
    degraded = true;
    break;
  }

  std::string response_body;
  {
    // Rendering reads the vocabulary (TermToDisplayString).
    ReaderMutexLock lock(&vocab_mu_);
    const datalog::Vocabulary& vocab = *session.program().vocab();
    JsonWriter w;
    w.BeginObject();
    w.Key("generation").Number(static_cast<int64_t>(snap->generation));
    w.Key("tenant").String(*tenant);
    w.Key("clean").Bool(clean);
    w.Key("degraded").Bool(degraded);
    w.Key("completeness")
        .String(CompletenessToString(answers.completeness));
    w.Key("interruption").String(answers.interruption.ToString());
    w.Key("attempts").Number(static_cast<int64_t>(attempts));
    w.Key("answers").BeginArray();
    for (const auto& tuple : answers.tuples) {
      w.BeginArray();
      for (const datalog::Term& t : tuple) {
        w.String(vocab.TermToDisplayString(t));
      }
      w.EndArray();
    }
    w.EndArray();
    // Re-read from the pinned snapshot after all rendering: the wire-level
    // witness that this response observed exactly one generation.
    w.Key("generation_check")
        .Number(static_cast<int64_t>(snap->generation));
    w.EndObject();
    response_body = w.TakeString();
  }
  metrics_.completed_ok.fetch_add(1, std::memory_order_relaxed);
  if (degraded) {
    metrics_.degraded_responses.fetch_add(1, std::memory_order_relaxed);
  }
  return SerializeHttpResponse(200, response_body);
}

std::string AssessmentServer::HandleAssess(const HttpRequest& req) {
  auto tenant = SanitizeTenant(req);
  if (!tenant.ok()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(400, tenant.status());
  }
  AdmissionController::Decision decision = admission_.Admit(*tenant);
  if (!decision.admitted) {
    metrics_.shed_tenant_rate.fetch_add(1, std::memory_order_relaxed);
    return ShedResponse(decision.retry_after_sec,
                        "serve: tenant rate limit exceeded");
  }
  auto body = JsonValue::Parse(req.body.empty() ? "{}" : req.body,
                               options_.json_limits);
  if (!body.ok()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(
        body.status().code() == StatusCode::kResourceExhausted ? 413 : 400,
        body.status());
  }

  auto snap = Pin();
  const JsonValue* relation = body->Find("relation");
  if (relation == nullptr) return HandleReport();

  const std::string& name = relation->AsString();
  const quality::AssessmentReport& report = *snap->report;
  for (const quality::QualityMeasures& m : report.per_relation) {
    if (m.relation != name) continue;
    std::string out =
        "{\"generation\":" + std::to_string(snap->generation) +
        ",\"degraded\":false,\"measures\":" + m.ToJson() +
        ",\"generation_check\":" + std::to_string(snap->generation) + "}";
    metrics_.completed_ok.fetch_add(1, std::memory_order_relaxed);
    return SerializeHttpResponse(200, out);
  }
  for (const quality::RelationFailure& f : report.degraded) {
    if (f.relation != name) continue;
    JsonWriter w;
    w.BeginObject();
    w.Key("generation").Number(static_cast<int64_t>(snap->generation));
    w.Key("degraded").Bool(true);
    w.Key("status").String(f.status.ToString());
    w.Key("attempts").Number(static_cast<int64_t>(f.attempts));
    w.Key("generation_check")
        .Number(static_cast<int64_t>(snap->generation));
    w.EndObject();
    metrics_.completed_ok.fetch_add(1, std::memory_order_relaxed);
    metrics_.degraded_responses.fetch_add(1, std::memory_order_relaxed);
    return SerializeHttpResponse(200, w.TakeString());
  }
  metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
  return ErrorResponse(
      404, Status::NotFound("serve: no assessed relation '" + name + "'"));
}

std::string AssessmentServer::HandleUpdate(const HttpRequest& req,
                                           RequestSlot* slot) {
  (void)slot;  // updates are bounded by the writer queue + wait deadline
  auto tenant = SanitizeTenant(req);
  if (!tenant.ok()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(400, tenant.status());
  }
  AdmissionController::Decision decision = admission_.Admit(*tenant);
  if (!decision.admitted) {
    metrics_.shed_tenant_rate.fetch_add(1, std::memory_order_relaxed);
    return ShedResponse(decision.retry_after_sec,
                        "serve: tenant rate limit exceeded");
  }

  auto body = JsonValue::Parse(req.body, options_.json_limits);
  if (!body.ok()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(
        body.status().code() == StatusCode::kResourceExhausted ? 413 : 400,
        body.status());
  }
  const JsonValue* relation = body->Find("relation");
  if (relation == nullptr || !relation->is_string()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(400, Status::InvalidArgument(
                                  "serve: missing string field 'relation'"));
  }

  auto snap = Pin();
  auto rel = snap->session->database().GetRelation(relation->AsString());
  if (!rel.ok()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(404, rel.status());
  }
  const size_t arity = (*rel)->arity();

  RelationDelta delta;
  delta.relation = relation->AsString();
  for (const char* field : {"insert", "delete"}) {
    const JsonValue* rows = body->Find(field);
    if (rows == nullptr) continue;
    if (!rows->is_array()) {
      metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponse(400, Status::InvalidArgument(
                                    std::string("serve: '") + field +
                                    "' must be an array of rows"));
    }
    for (const JsonValue& row : rows->Items()) {
      auto tuple = RowFromJson(row, arity);
      if (!tuple.ok()) {
        metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
        return ErrorResponse(400, tuple.status());
      }
      if (field[0] == 'i') {
        delta.insert_rows.push_back(std::move(*tuple));
      } else {
        delta.delete_rows.push_back(std::move(*tuple));
      }
    }
  }
  if (delta.insert_rows.empty() && delta.delete_rows.empty()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(
        400, Status::InvalidArgument("serve: empty update batch"));
  }

  const auto overall_deadline =
      std::chrono::steady_clock::now() +
      std::min(options_.default_deadline, decision.quota.max_deadline);

  std::future<Result<uint64_t>> done;
  {
    MutexLock lock(&update_mu_);
    if (draining()) {
      return ErrorResponse(
          503, Status::FailedPrecondition("serve: draining, not accepting "
                                          "updates"));
    }
    if (update_queue_.size() >= options_.update_queue_capacity) {
      metrics_.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
      return ShedResponse(options_.shed_retry_after_sec,
                          "serve: update queue full");
    }
    UpdateJob job;
    job.batch.deltas.push_back(std::move(delta));
    done = job.done.get_future();
    update_queue_.push_back(std::move(job));
  }
  update_cv_.notify_one();

  if (done.wait_until(overall_deadline) != std::future_status::ready) {
    // The batch stays queued and WILL apply (FIFO); the client just
    // stopped waiting. Labeled as pending, never silently dropped.
    JsonWriter w;
    w.BeginObject();
    w.Key("applied").String("pending");
    w.Key("generation_min")
        .Number(static_cast<int64_t>(snap->generation));
    w.EndObject();
    metrics_.completed_ok.fetch_add(1, std::memory_order_relaxed);
    return SerializeHttpResponse(202, w.TakeString());
  }
  Result<uint64_t> applied = done.get();
  if (!applied.ok()) {
    const Status& s = applied.status();
    int code = 500;
    if (s.code() == StatusCode::kNotFound) code = 404;
    if (s.code() == StatusCode::kInvalidArgument) code = 400;
    if (s.code() == StatusCode::kInconsistent) code = 409;
    if (code == 500) {
      metrics_.internal_errors.fetch_add(1, std::memory_order_relaxed);
    } else {
      metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    }
    return ErrorResponse(code, s);
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("applied").Bool(true);
  w.Key("generation").Number(static_cast<int64_t>(*applied));
  w.EndObject();
  metrics_.completed_ok.fetch_add(1, std::memory_order_relaxed);
  return SerializeHttpResponse(200, w.TakeString());
}

std::string AssessmentServer::HandleAdminQuotas(const HttpRequest& req) {
  Status applied = ApplyQuotaConfig(req.body);
  if (!applied.ok()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(400, applied);
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("applied").Bool(true);
  w.EndObject();
  metrics_.completed_ok.fetch_add(1, std::memory_order_relaxed);
  return SerializeHttpResponse(200, w.TakeString());
}

void AssessmentServer::WriterLoop() {
  while (true) {
    UpdateJob job;
    {
      MutexLock lock(&update_mu_);
      while (update_queue_.empty() &&
             !workers_done_.load(std::memory_order_acquire)) {
        update_cv_.wait(update_mu_);
      }
      if (update_queue_.empty()) {
        if (workers_done_.load(std::memory_order_acquire)) return;
        continue;
      }
      job = std::move(update_queue_.front());
      update_queue_.pop_front();
    }

    auto snap = Pin();
    job.done.set_value(Commit(*snap, job.batch));
  }
}

Result<uint64_t> AssessmentServer::Commit(const Snapshot& snap,
                                          const DeltaBatch& batch) {
  std::optional<PreparedContext> next;
  {
    // Update application is the one step that mutates the shared
    // vocabulary (new constants, fresh nulls): exclusive access,
    // deliberately handed to this thread. Readers keep serving the old
    // snapshot meanwhile — only query parsing waits.
    WriterMutexLock lock(&vocab_mu_);
    snap.session->program().vocab()->BindToCurrentThread();
    MDQA_ASSIGN_OR_RETURN(PreparedContext applied,
                          snap.session->ApplyUpdate(batch));
    next.emplace(std::move(applied));
  }
  Result<quality::AssessmentReport> report = Status::Internal("unreached");
  {
    // Reassess only reads the vocabulary (predicate lookups, and names
    // when the gate is re-linted): the shared side, alongside readers.
    ReaderMutexLock lock(&vocab_mu_);
    quality::Assessor assessor(&context_);
    report = assessor.Reassess(*next, *snap.report);
  }
  MDQA_RETURN_IF_ERROR(report.status());
  // The WAL append (fsync) is the commit point: a batch that cannot be
  // made durable fails the request and never publishes — a client ack
  // must survive a crash. Neither it nor the render below touches the
  // vocabulary, so both run without the lock.
  if (options_.store != nullptr) {
    MDQA_RETURN_IF_ERROR(
        options_.store->AppendBatch(batch, snap.generation + 1));
    metrics_.wal_appends.fetch_add(1, std::memory_order_relaxed);
  }
  const bool fallback = next->chase_stats().extend_fallback;
  auto ns = std::make_shared<Snapshot>();
  ns->generation = snap.generation + 1;
  ns->session = std::make_shared<const PreparedContext>(std::move(*next));
  ns->report_json = report->ToJson();
  ns->report =
      std::make_shared<const quality::AssessmentReport>(std::move(*report));
  const uint64_t gen = ns->generation;
  Publish(std::move(ns));
  metrics_.updates_applied.fetch_add(1, std::memory_order_relaxed);
  if (fallback) {
    metrics_.update_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  return gen;
}

void AssessmentServer::WatchdogLoop() {
  while (!stop_watchdog_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(options_.watchdog_period);
    const int64_t now_ns = NowNs();
    for (const auto& slot : slots_) {
      if (!slot->active.load(std::memory_order_acquire)) continue;
      const int64_t deadline_ns =
          slot->hard_deadline_ns.load(std::memory_order_relaxed);
      if (deadline_ns != 0 && now_ns > deadline_ns) {
        slot->token.Cancel();
        metrics_.watchdog_cancels.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace mdqa::serve
