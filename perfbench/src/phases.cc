#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "calibrate.h"
#include "http_client.h"
#include "json.h"
#include "quality/assessor.h"
#include "stats.h"
#include "storage/env.h"

namespace perfbench {

namespace fs = std::filesystem;
using mdqa::quality::QualityContext;
using mdqa::testgen::GeneratedScenario;

Tally& RunTally() {
  static Tally tally;
  return tally;
}

void Mismatch(const std::string& what) {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::cout.flush();
  std::cerr << "perfbench: MISMATCH: " << what << std::endl;
  std::cout << "{\"correct\": false, \"attempted\": "
            << std::max<uint64_t>(1, RunTally().attempted.load())
            << ", \"failed\": " << RunTally().failed.load()
            << ", \"metrics\": {}}" << std::endl;
  std::_Exit(1);
}

void MetricSheet::Set(const std::string& name, double value,
                      const std::string& unit, const std::string& note) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      e.note = note;
      return;
    }
  }
  entries_.push_back({name, unit, note, value});
}

void MetricSheet::Print() const {
  for (const Entry& e : entries_) {
    std::printf("  %-40s %14.4f %-6s %s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.note.c_str());
  }
}

std::string MetricSheet::Json() const {
  std::ostringstream out;
  out.precision(10);
  out << "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << entries_[i].name << "\": {\"value\": " << entries_[i].value
        << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

// --- served scenario ----------------------------------------------------

void Served::Drain() {
  server->Shutdown();
  const mdqa::Status drained = server->DrainStatus();
  if (!drained.ok()) Mismatch("drain: " + drained.ToString());
  if (!server->final_persist_status().ok()) {
    Mismatch("drain checkpoint: " + server->final_persist_status().ToString());
  }
}

QualityContext ServeContext(uint32_t seed) {
  auto scenario = mdqa::testgen::ScenarioGenerator::Generate(ServeSpec(seed));
  if (!scenario.ok()) Mismatch("generate: " + scenario.status().ToString());
  return std::move(scenario->context);
}

namespace {

/// Checks one /query reply; false when the operation failed (refused,
/// errored, or degraded), Mismatch when an answer is wrong.
bool CheckQueryReply(const QueryOp& q, const HttpReply& reply,
                     const ServeTruth& truth, StreamOrigin origin) {
  if (reply.status != 200) return false;
  Json j;
  std::string error;
  if (!ParseJson(reply.body, &j, &error)) {
    Mismatch("unparseable /query reply (" + error + "): " + reply.body);
  }
  const Json* degraded = j.Find("degraded");
  const Json* completeness = j.Find("completeness");
  const Json* gen = j.Find("generation");
  const Json* gen_check = j.Find("generation_check");
  const Json* answers = j.Find("answers");
  if (degraded == nullptr || completeness == nullptr || gen == nullptr ||
      gen_check == nullptr || answers == nullptr ||
      answers->kind != Json::Kind::kArray) {
    Mismatch("/query reply lacks a field: " + reply.body.substr(0, 300));
  }
  if (degraded->boolean || completeness->text != "complete") return false;
  const uint64_t g = static_cast<uint64_t>(gen->number);
  if (gen->number != gen_check->number) {
    Mismatch("torn /query reply: generation " + std::to_string(g) +
             " vs check " + std::to_string(gen_check->number));
  }
  if (g < origin.g_base) {
    Mismatch("/query reply from generation " + std::to_string(g) +
             " before the phase's base " + std::to_string(origin.g_base));
  }
  const uint64_t n = origin.n_base + (g - origin.g_base);
  std::vector<std::string> got;
  for (const Json& tuple : answers->items) {
    std::string joined;
    for (size_t i = 0; i < tuple.items.size(); ++i) {
      if (i > 0) joined.push_back('\x1f');
      joined += tuple.items[i].text;
    }
    got.push_back(std::move(joined));
  }
  std::sort(got.begin(), got.end());
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
    Mismatch("duplicate answer tuple for " + q.text);
  }
  if (q.cls == QueryClass::kPointClean) {
    QueryOp raw = q;
    raw.cls = QueryClass::kPointRaw;
    const std::vector<std::string> all = truth.Expected(raw, n);
    if (!std::includes(all.begin(), all.end(), got.begin(), got.end())) {
      Mismatch("clean answers of " + q.text +
               " are not a subset of its raw answers at generation " +
               std::to_string(g));
    }
  }
  const std::vector<std::string> want = truth.Expected(q, n);
  if (got != want) {
    Mismatch(std::string(q.clean ? "clean" : "raw") + " query " + q.text +
             " at generation " + std::to_string(g) + " (stream position " +
             std::to_string(n) + "): " + std::to_string(got.size()) +
             " answers, expected " + std::to_string(want.size()));
  }
  return true;
}

}  // namespace

double StartServed(QualityContext context, uint32_t seed,
                   const std::string& dir, const ServeTruth& truth,
                   uint64_t n, uint64_t want_generation, Served* out) {
  const Clock::time_point t0 = Clock::now();
  out->dir = dir;
  auto store = mdqa::storage::OpenDiskKbStore(mdqa::storage::Env::Posix(), dir);
  if (!store.ok()) Mismatch("open store: " + store.status().ToString());
  out->store = std::move(*store);

  mdqa::serve::ServerOptions options;
  // Two workers and at most two clients fit the four cores with the
  // writer; quotas and deadlines sit far above the offered load, so a
  // refusal or a degraded answer is a fault, not back-pressure.
  options.worker_threads = 2;
  options.default_quota.requests_per_sec = 1e9;
  options.default_quota.burst = 1e9;
  options.default_quota.max_deadline = std::chrono::milliseconds(120000);
  options.default_deadline = std::chrono::milliseconds(120000);
  options.store = out->store.get();
  options.scenario = ServeScenarioName(seed);
  auto server =
      mdqa::serve::AssessmentServer::Start(std::move(context), options);
  if (!server.ok()) Mismatch("server start: " + server.status().ToString());
  out->server = std::move(*server);

  const uint64_t g = out->server->generation();
  if (want_generation != 0 && (g != want_generation ||
                               out->server->base_generation() != g)) {
    Mismatch("restart resumed at generation " + std::to_string(g) +
             ", not the last acknowledged " + std::to_string(want_generation));
  }
  QueryOp probe;
  probe.cls = QueryClass::kPointClean;
  probe.entity = truth.probe_entity();
  probe.text = std::string("Q(T, V) :- ") + kRelation + "(T, \"" +
               probe.entity + "\", V).";
  probe.body = "{\"query\":\"" + JsonEscape(probe.text) + "\",\"clean\":true}";
  HttpReply reply;
  std::string error;
  RunTally().attempted.fetch_add(1);
  if (!HttpCall(out->port(), "POST", "/query", probe.body, &reply, &error)) {
    Mismatch("first query after start: " + error);
  }
  if (!CheckQueryReply(probe, reply, truth, StreamOrigin{g, n})) {
    Mismatch("first query after start failed: HTTP " +
             std::to_string(reply.status) + " " + reply.body);
  }
  return MsSince(t0);
}

std::vector<QueryStream> MakeStreams(uint32_t seed, int first_client,
                                     int clients, const ServeTruth& truth) {
  std::vector<QueryStream> streams;
  for (int c = 0; c < clients; ++c) {
    streams.emplace_back(seed, first_client + c, &truth);
  }
  return streams;
}

QuerySamples RunReaders(uint16_t port, const ServeTruth& truth,
                        std::vector<QueryStream>* streams, uint64_t max_ops,
                        Clock::time_point until, const std::atomic<bool>* stop,
                        StreamOrigin origin) {
  struct ClientOut {
    std::vector<double> us;
    std::vector<int> cls;
    uint64_t ok = 0;
    double cpu_ms = 0;
  };
  std::vector<ClientOut> outs(streams->size());
  const double process_cpu = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams->size(); ++c) {
    threads.emplace_back([&, c] {
      ClientOut& out = outs[c];
      QueryStream& stream = (*streams)[c];
      const double cpu = ThreadCpuMs();
      HttpReply reply;
      std::string error;
      for (uint64_t i = 0; i < max_ops; ++i) {
        if (Clock::now() >= until) break;
        if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
        const QueryOp q = stream.Next();
        RunTally().attempted.fetch_add(1, std::memory_order_relaxed);
        const Clock::time_point t0 = Clock::now();
        const bool sent = HttpCall(port, "POST", "/query", q.body, &reply,
                                   &error);
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        if (!sent || !CheckQueryReply(q, reply, truth, origin)) {
          RunTally().failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ++out.ok;
        out.us.push_back(us);
        out.cls.push_back(static_cast<int>(q.cls));
      }
      out.cpu_ms = ThreadCpuMs() - cpu;
    });
  }
  for (std::thread& t : threads) t.join();
  QuerySamples samples;
  samples.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  samples.server_cpu_ms = ProcessCpuMs() - process_cpu;
  for (const ClientOut& out : outs) {
    samples.ok += out.ok;
    samples.server_cpu_ms -= out.cpu_ms;
    for (size_t i = 0; i < out.us.size(); ++i) {
      samples.all_us.push_back(out.us[i]);
      samples.by_class_us[out.cls[i]].push_back(out.us[i]);
    }
  }
  return samples;
}

void PostBatches(uint16_t port, const ServeTruth& truth, StreamOrigin origin,
                 uint64_t n_from, uint64_t count, bool calibrate,
                 UpdateSamples* samples) {
  HttpReply reply;
  std::string error;
  double before = calibrate ? CalibrationMs() : 0;
  for (uint64_t n = n_from; n < n_from + count; ++n) {
    const UpdateBatch& batch = truth.BatchAt(n);
    RunTally().attempted.fetch_add(1, std::memory_order_relaxed);
    const double process_cpu = ProcessCpuMs();
    const double own_cpu = ThreadCpuMs();
    const Clock::time_point t0 = Clock::now();
    const bool sent = HttpCall(port, "POST", "/update", batch.body, &reply,
                               &error);
    const double ms = MsSince(t0);
    double cpu_ms =
        (ProcessCpuMs() - process_cpu) - (ThreadCpuMs() - own_cpu);
    if (calibrate) {
      const double after = CalibrationMs();
      cpu_ms *= HostFactor(before, after);
      before = after;
    }
    // A batch the server did not apply leaves the stream and the truth
    // model apart, so it ends the run.
    if (!sent || reply.status != 200) {
      RunTally().failed.fetch_add(1);
      Mismatch("update at stream position " + std::to_string(n) +
               " failed: " + (sent ? "HTTP " + std::to_string(reply.status) +
                                         " " + reply.body
                                   : error));
    }
    Json j;
    if (!ParseJson(reply.body, &j, &error)) {
      Mismatch("unparseable /update reply (" + error + "): " + reply.body);
    }
    const Json* applied = j.Find("applied");
    const Json* gen = j.Find("generation");
    const uint64_t want = origin.g_base + (n + 1 - origin.n_base);
    if (applied == nullptr || applied->kind != Json::Kind::kBool ||
        !applied->boolean || gen == nullptr ||
        static_cast<uint64_t>(gen->number) != want) {
      Mismatch("update at stream position " + std::to_string(n) +
               " acknowledged as " + reply.body + ", expected generation " +
               std::to_string(want));
    }
    samples->ms.push_back(ms);
    (batch.deletion ? samples->delete_cpu_ms : samples->insert_cpu_ms)
        .push_back(cpu_ms);
    ++samples->batches;
  }
}

UpdateSamples RunUpdater(uint16_t port, const ServeTruth& truth,
                         uint64_t min_rounds, Clock::time_point until,
                         StreamOrigin origin, bool calibrate) {
  UpdateSamples samples;
  uint64_t n = origin.n_base;
  for (uint64_t round = 0; round < min_rounds || Clock::now() < until;
       ++round) {
    PostBatches(port, truth, origin, n, kRoundBatches, calibrate, &samples);
    n += kRoundBatches;
  }
  return samples;
}

RestartSamples RunRestarts(Served* live, uint32_t seed, const ServeTruth& truth,
                           uint64_t n_now, const std::string& work_dir,
                           int reps) {
  RestartSamples out;
  const uint64_t g = live->server->generation();
  const std::string report_before = live->server->CurrentReportJson();
  live->Drain();
  const std::string dir = live->dir;
  live->server.reset();
  live->store.reset();

  Served last;
  for (int i = 0; i < reps; ++i) {
    QualityContext context = ServeContext(seed);
    Served s;
    const double before = CalibrationMs();
    const double cpu = ProcessCpuMs();
    out.resume_ms.push_back(
        StartServed(std::move(context), seed, dir, truth, n_now, g, &s));
    out.resume_cpu_ms.push_back((ProcessCpuMs() - cpu) *
                                HostFactor(before, CalibrationMs()));
    if (s.server->CurrentReportJson() != report_before) {
      Mismatch("report after a drained restart differs from the report "
               "before shutdown");
    }
    if (i + 1 < reps) {
      s.Drain();
    } else {
      last = std::move(s);
    }
  }

  // Crash image: a short tail of the stream, acknowledged, then the
  // directory copied as it is on disk while the server still runs.
  out.tail_batches = kRoundBatches / 2;
  UpdateSamples tail;
  PostBatches(last.port(), truth, StreamOrigin{g, n_now}, n_now,
              out.tail_batches, /*calibrate=*/false, &tail);
  const std::string image = work_dir + "/crash-image";
  fs::copy(dir, image, fs::copy_options::recursive);
  last.Drain();
  last = Served();
  fs::remove_all(dir);

  const uint64_t n_crash = n_now + out.tail_batches;
  for (int i = 0; i < reps; ++i) {
    const std::string copy = work_dir + "/crash-" + std::to_string(i);
    fs::copy(image, copy, fs::copy_options::recursive);
    QualityContext context = ServeContext(seed);
    Served s;
    const double before = CalibrationMs();
    const double cpu = ProcessCpuMs();
    out.crash_resume_ms.push_back(StartServed(std::move(context), seed, copy,
                                              truth, n_crash,
                                              g + out.tail_batches, &s));
    out.crash_resume_cpu_ms.push_back((ProcessCpuMs() - cpu) *
                                      HostFactor(before, CalibrationMs()));
    s.Drain();
    s = Served();
    fs::remove_all(copy);
  }
  fs::remove_all(image);
  return out;
}

// --- assess ---------------------------------------------------------------

std::vector<GeneratedScenario> AssessScenarios(uint32_t seed) {
  std::vector<GeneratedScenario> out;
  for (mdqa::testgen::ScenarioFamily family :
       mdqa::testgen::kAllScenarioFamilies) {
    auto s = mdqa::testgen::ScenarioGenerator::Generate(
        AssessSpec(family, seed));
    if (!s.ok()) Mismatch("generate: " + s.status().ToString());
    out.push_back(std::move(*s));
  }
  return out;
}

void CheckReport(const GeneratedScenario& scenario,
                 const mdqa::quality::AssessmentReport& report,
                 const std::string& json) {
  const char* family = mdqa::testgen::ScenarioFamilyToString(scenario.spec.family);
  if (report.completeness != mdqa::Completeness::kComplete ||
      !report.degraded.empty()) {
    Mismatch(std::string(family) + ": assessment degraded or truncated");
  }
  auto score = mdqa::testgen::ScoreVerdicts(report, scenario.relation,
                                            scenario.truth);
  if (!score.ok()) Mismatch(std::string(family) + ": " + score.status().ToString());
  if (score->precision != 1.0 || score->recall != 1.0 ||
      !score->mismatches.empty()) {
    Mismatch(std::string(family) + ": precision " +
             std::to_string(score->precision) + ", recall " +
             std::to_string(score->recall) + " against ground truth");
  }
  const mdqa::Relation* clean = report.QualityVersionOf(scenario.relation);
  const size_t want_clean = static_cast<size_t>(std::count_if(
      scenario.truth.begin(), scenario.truth.end(),
      [](const mdqa::testgen::TupleVerdict& v) { return v.clean; }));
  if (clean == nullptr || clean->size() != want_clean) {
    Mismatch(std::string(family) + ": quality version has " +
             std::to_string(clean == nullptr ? 0 : clean->size()) +
             " rows, ground truth " + std::to_string(want_clean));
  }
  Json parsed;
  std::string error;
  if (!ParseJson(json, &parsed, &error) ||
      parsed.kind != Json::Kind::kObject) {
    Mismatch(std::string(family) + ": report JSON does not parse: " + error);
  }
}

// --- process ----------------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t NewestFileBytes(const std::string& dir, const std::string& prefix) {
  std::string newest;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name.find(".tmp") == std::string::npos &&
        name > newest) {
      newest = name;
    }
  }
  return newest.empty() ? 0 : fs::file_size(fs::path(dir) / newest);
}

}  // namespace perfbench
