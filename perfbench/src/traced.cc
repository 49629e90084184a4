// The traced run: the same public calls the untraced run makes through
// Assessor::Assess, the server's writer and AssessmentServer::Start, made
// one by one from here with a span around each, so every layer's share
// shows. It reports per-layer metrics only; end-to-end figures come from
// untraced runs.
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cost_model.h"
#include "analysis/diagnostic.h"
#include "analysis/lint.h"
#include "bench.h"
#include "datalog/analysis.h"
#include "datalog/chase.h"
#include "qa/engines.h"
#include "quality/assessor.h"
#include "quality/measures.h"
#include "stats.h"
#include "storage/env.h"
#include "storage/session_image.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mdqa::quality::AssessmentReport;
using mdqa::quality::Assessor;
using mdqa::quality::PreparedContext;
using mdqa::quality::QualityContext;
using mdqa::testgen::GeneratedScenario;

constexpr int kTracedPasses = 3;
constexpr int kTracedSetups = 3;
constexpr uint64_t kTracedQueriesPerClient = 1500;
constexpr int kTracedUpdateRounds = 3;
constexpr int kTracedRestarts = 3;

/// Aborts with the status of a failed call the run cannot go on without.
template <typename T>
T Must(mdqa::Result<T> r, const std::string& what) {
  if (!r.ok()) Mismatch(what + ": " + r.status().ToString());
  return std::move(r).value();
}
void Must(const mdqa::Status& s, const std::string& what) {
  if (!s.ok()) Mismatch(what + ": " + s.ToString());
}

/// Named samples collected over a traced run.
class Samples {
 public:
  void Add(const std::string& name, double v) { v_[name].push_back(v); }
  double MedianOf(const std::string& name) const {
    auto it = v_.find(name);
    return it == v_.end() ? 0 : Median(it->second);
  }
  size_t Count(const std::string& name) const {
    auto it = v_.find(name);
    return it == v_.end() ? 0 : it->second.size();
  }

 private:
  std::map<std::string, std::vector<double>> v_;
};

class TracedRun {
 public:
  TracedRun(const RunOptions& o, MetricSheet* sheet) : o_(o), sheet_(sheet) {}

  void Run();

 private:
  /// Times `fn` as span `name` of the current operation; returns ms.
  template <typename F>
  double Call(const std::string& name, F&& fn) {
    Span span(&tracer_, name, op_);
    fn();
    return span.Stop();
  }

  void Setup();
  void AssessPasses();
  /// One family's Assess + ToJson, its decomposition, and the chase
  /// alone; adds the family's figures to `*pass`.
  void TraceFamily(const GeneratedScenario& s, bool decomposed_first,
                   std::map<std::string, double>* pass,
                   mdqa::datalog::ChaseStats* chase);
  /// Assess + ToJson as one call each; returns the Assess ms.
  double WholeAssess(const GeneratedScenario& s,
                     std::map<std::string, double>* pass);
  /// The same work call by call, in Assessor::Assess's order; returns
  /// the benchmark's own root span, in ms.
  double DecomposedAssess(const GeneratedScenario& s,
                          std::map<std::string, double>* pass,
                          bool* separable);
  void Queries();
  /// Two update rounds on the served server with one reader alongside.
  void UnderWrites();
  void WritePath();
  void Restarts();
  /// Start's restore path from a drained `dir`, call by call; the report
  /// must render as `expected_report`.
  void RestartReplay(const std::string& dir,
                     const std::string& expected_report);
  void Report(uint64_t v_added);

  void Set(const std::string& name, const std::string& unit,
           const std::string& note = "") {
    sheet_->Set(name, samples_.MedianOf(name), unit,
                note.empty() ? "median of " +
                                   std::to_string(samples_.Count(name))
                             : note);
  }

  const RunOptions& o_;
  MetricSheet* sheet_;
  Tracer tracer_;
  Samples samples_;
  uint64_t op_ = 0;
  uint64_t n_now_ = 0;  ///< stream position of the served server
  ServeTruth truth_;
  Served served_;
  std::vector<GeneratedScenario> families_;
  uint64_t symbols_added_ = 0;
  uint64_t fallbacks_ = 0, batches_ = 0;
  double resume_ms_ = 0;
};

void TracedRun::Setup() {
  for (int i = 0; i < kTracedSetups; ++i) {
    ++op_;
    Span root(&tracer_, "bench.setup", op_);
    mdqa::Result<GeneratedScenario> scenario = mdqa::Status::Internal("unset");
    samples_.Add("testgen.generate.ms", Call("testgen.generate", [&] {
      scenario = mdqa::testgen::ScenarioGenerator::Generate(ServeSpec(o_.seed));
    }));
    GeneratedScenario s = Must(std::move(scenario), "generate");
    if (i == 0) {
      std::string error;
      if (!ServeTruth::Build(s, &truth_, &error)) Mismatch(error);
    }
    const std::string dir = o_.work_dir + "/setup-" + std::to_string(i);
    Served served;
    samples_.Add("serve.start.ms", Call("serve.start", [&] {
      StartServed(std::move(s.context), o_.seed, dir, truth_, 0, 0, &served);
    }));
    root.Stop();
    if (i + 1 < kTracedSetups) {
      served.Drain();
      served = Served();
      fs::remove_all(dir);
    } else {
      served_ = std::move(served);
    }
  }
}

double TracedRun::WholeAssess(const GeneratedScenario& s,
                              std::map<std::string, double>* pass) {
  const std::string family =
      mdqa::testgen::ScenarioFamilyToString(s.spec.family);
  Assessor assessor(&s.context);
  mdqa::Result<AssessmentReport> report = mdqa::Status::Internal("unset");
  std::string json;
  const double assess_ms =
      Call("quality.assess", [&] { report = assessor.Assess(); });
  Must(report.status(), family + " assess");
  const double json_ms =
      Call("quality.report_json", [&] { json = report->ToJson(); });
  CheckReport(s, *report, json);
  (*pass)["assess." + family + ".ms"] += assess_ms + json_ms;
  (*pass)["assess.wall"] += assess_ms;
  (*pass)["quality.report_json.ms"] += json_ms;
  return assess_ms;
}

double TracedRun::DecomposedAssess(const GeneratedScenario& s,
                                   std::map<std::string, double>* pass,
                                   bool* separable) {
  const QualityContext& ctx = s.context;
  const std::string family =
      mdqa::testgen::ScenarioFamilyToString(s.spec.family);
  double spans = 0;
  auto timed = [&](const std::string& name, auto&& fn) {
    const double ms = Call(name, fn);
    (*pass)[name + ".ms"] += ms;
    spans += ms;
  };
  Span root(&tracer_, "bench.decomposed_assess", op_);
  mdqa::datalog::Program program;
  timed("quality.build_program",
        [&] { program = Must(ctx.BuildProgram(), family + " build program"); });
  std::shared_ptr<const mdqa::datalog::ProgramAnalysis> analysis;
  timed("datalog.analysis", [&] {
    analysis = std::make_shared<const mdqa::datalog::ProgramAnalysis>(program);
  });
  std::vector<std::string> goals;
  for (const std::string& rel : ctx.AssessedRelations()) {
    goals.push_back(Must(ctx.QualityPredicateOf(rel), "quality predicate"));
  }
  timed("qa.select_engine", [&] {
    *separable = Must(ctx.ontology().Analyze(), "analyze").separable_egds;
    mdqa::qa::EngineSelectOptions select;
    select.egds_separable = *separable;
    const mdqa::analysis::CostModel cost_model(
        program, *analysis,
        mdqa::analysis::CostModel::CollectEdbStats(program));
    select.cost_model = &cost_model;
    mdqa::qa::SelectEngine(program, *analysis, select);
  });
  timed("analysis.lint", [&] {
    mdqa::analysis::DiagnosticBag bag;
    mdqa::analysis::LintOptions lint;
    lint.min_severity = mdqa::analysis::Severity::kWarning;
    lint.form_notes = false;
    lint.file = "<context>";
    lint.analysis = analysis.get();
    lint.goal_predicates = goals;
    mdqa::analysis::LintProgram(program, lint, &bag);
    mdqa::analysis::LintOntology(ctx.ontology(), lint, &bag);
    bag.Sort();
    bag.ToText();
  });
  timed("core.validate_referential",
        [&] { ctx.ontology().ValidateReferential(); });
  mdqa::Result<PreparedContext> prepared = mdqa::Status::Internal("unset");
  timed("quality.prepare", [&] {
    prepared = ctx.Prepare(mdqa::datalog::ChaseOptions{}, std::move(program),
                           analysis);
  });
  Must(prepared.status(), family + " prepare");
  for (const std::string& name : ctx.AssessedRelations()) {
    mdqa::Result<mdqa::Relation> quality = mdqa::Status::Internal("unset");
    timed("quality.quality_version", [&] {
      mdqa::ExecutionBudget budget;
      mdqa::Status interruption = budget.CheckNow("assessor:relation");
      quality = prepared->QualityVersion(name, &budget, &interruption);
    });
    Must(quality.status(), family + " quality version");
    timed("quality.measure", [&] {
      const mdqa::Relation* original =
          Must(ctx.database().GetRelation(name), "relation");
      Must(mdqa::quality::Measure(*original, *quality).status(), "measure");
      Must(original->Minus(*quality).status(), "minus");
    });
  }
  // Assess drops its session before it returns; freeing the materialized
  // instance is part of its wall time.
  timed("quality.session_release",
        [&] { prepared = mdqa::Status::Internal("released"); });
  const double root_ms = root.Stop();
  (*pass)["bench.decomposed"] += root_ms;
  (*pass)["trace.spans"] += spans;
  return root_ms;
}


void TracedRun::TraceFamily(const GeneratedScenario& s, bool decomposed_first,
                            std::map<std::string, double>* pass,
                            mdqa::datalog::ChaseStats* chase) {
  const QualityContext& ctx = s.context;
  const std::string family =
      mdqa::testgen::ScenarioFamilyToString(s.spec.family);
  ++op_;
  RunTally().attempted.fetch_add(1);
  // The whole call and its decomposition run back to back; which goes
  // first alternates by pass, so warm caches favour neither.
  bool separable = false;
  if (decomposed_first) {
    DecomposedAssess(s, pass, &separable);
    WholeAssess(s, pass);
  } else {
    WholeAssess(s, pass);
    DecomposedAssess(s, pass, &separable);
  }

  // Prepare split: the chase alone, on the same program, built again.
  Span split(&tracer_, "bench.split_prepare", op_);
  const mdqa::datalog::Program again =
      Must(ctx.BuildProgram(), family + " build program");
  const mdqa::datalog::ProgramAnalysis again_analysis(again);
  mdqa::datalog::ChaseOptions options;
  options.egds_separable = separable;
  options.analysis = &again_analysis;
  (*pass)["datalog.chase.ms"] += Call("datalog.chase", [&] {
    mdqa::datalog::Instance instance =
        mdqa::datalog::Instance::FromProgram(again, options.storage);
    Must(mdqa::datalog::Chase::Run(again, &instance, options, chase),
         family + " chase");
  });
}

void TracedRun::AssessPasses() {
  families_ = AssessScenarios(o_.seed);
  for (int p = 0; p < kTracedPasses; ++p) {
    std::map<std::string, double> pass;
    mdqa::datalog::ChaseStats total;
    for (const GeneratedScenario& s : families_) {
      mdqa::datalog::ChaseStats stats;
      TraceFamily(s, p % 2 == 1, &pass, &stats);
      total.rounds += stats.rounds;
      total.tgd_firings += stats.tgd_firings;
      total.facts_added += stats.facts_added;
    }
    for (const auto& [name, ms] : pass) samples_.Add(name, ms);
    samples_.Add("trace.coverage.assess", pass["trace.spans"] / pass["assess.wall"]);
    samples_.Add("trace.overhead.assess_ms",
                 pass["bench.decomposed"] - pass["assess.wall"]);
    samples_.Add("datalog.chase.rounds", static_cast<double>(total.rounds));
    samples_.Add("datalog.chase.tgd_firings",
                 static_cast<double>(total.tgd_firings));
    samples_.Add("datalog.chase.facts_added",
                 static_cast<double>(total.facts_added));
  }
}

uint64_t VocabularySymbols(const Served& served) {
  const auto session = served.server->CurrentSession();
  const mdqa::datalog::Vocabulary& v = *session->program().vocab();
  return v.NumConstants() + v.NumVariables() + v.NumPredicates();
}

void TracedRun::Queries() {
  // Client-observed latency per class, over HTTP, then the same streams
  // replayed in-process on the same (now idle) session.
  const StreamOrigin origin{served_.server->generation(), 0};
  const uint64_t before = VocabularySymbols(served_);
  std::vector<QueryStream> streams = MakeStreams(o_.seed, 0, 2, truth_);
  const QuerySamples http =
      RunReaders(served_.port(), truth_, &streams, kTracedQueriesPerClient,
                 Clock::now() + std::chrono::hours(1), nullptr, origin);
  symbols_added_ = VocabularySymbols(served_) - before;

  const auto session = served_.server->CurrentSession();
  session->program().vocab()->BindToCurrentThread();
  std::vector<double> prepare_us[kNumQueryClasses], answer_us[kNumQueryClasses];
  for (int c = 0; c < 2; ++c) {
    QueryStream stream(o_.seed, c, &truth_);
    for (uint64_t i = 0; i < kTracedQueriesPerClient; ++i) {
      const QueryOp q = stream.Next();
      ++op_;
      RunTally().attempted.fetch_add(1);
      Span root(&tracer_, "bench.query", op_);
      mdqa::Result<mdqa::datalog::ConjunctiveQuery> parsed =
          mdqa::Status::Internal("unset");
      const double prep = Call("quality.prepare_query", [&] {
        parsed = q.clean ? session->PrepareCleanQuery(q.text)
                         : session->PrepareRawQuery(q.text);
      });
      Must(parsed.status(), "prepare " + q.text);
      mdqa::Result<mdqa::qa::AnswerSet> answers = mdqa::Status::Internal("unset");
      const double answer = Call("quality.answer", [&] {
        mdqa::ExecutionBudget budget;
        budget.SetDeadlineAfter(std::chrono::milliseconds(120000));
        answers = session->Answer(*parsed, &budget);
      });
      Must(answers.status(), "answer " + q.text);
      if (answers->completeness != mdqa::Completeness::kComplete ||
          answers->tuples.size() != truth_.Expected(q, 0).size()) {
        Mismatch("in-process answer of " + q.text + " differs from truth");
      }
      const int cls = static_cast<int>(q.cls);
      prepare_us[cls].push_back(prep * 1000);
      answer_us[cls].push_back(answer * 1000);
      samples_.Add("quality.prepare_query.us", prep * 1000);
      samples_.Add("quality.answer.us", answer * 1000);
    }
  }
  sheet_->Set("query.all.p50_us", Median(http.all_us), "us",
              "client-observed, n=" + std::to_string(http.all_us.size()));
  samples_.Add("serve.overhead.us", Median(http.all_us) -
                                        samples_.MedianOf("quality.prepare_query.us") -
                                        samples_.MedianOf("quality.answer.us"));
  for (int c = 0; c < kNumQueryClasses; ++c) {
    const std::string cls = QueryClassName(static_cast<QueryClass>(c));
    const double p50 = Median(http.by_class_us[c]);
    samples_.Add("query." + cls + ".p50_us", p50);
    samples_.Add("serve.overhead." + cls + ".us",
                 p50 - Median(prepare_us[c]) - Median(answer_us[c]));
    samples_.Add("query." + cls + ".n",
                 static_cast<double>(http.by_class_us[c].size()));
  }
}

void TracedRun::UnderWrites() {
  const StreamOrigin origin{served_.server->generation(), n_now_};
  std::atomic<bool> stop{false};
  QuerySamples reads;
  std::vector<QueryStream> streams = MakeStreams(o_.seed, 2, 1, truth_);
  std::thread reader([&] {
    reads = RunReaders(served_.port(), truth_, &streams, UINT64_MAX,
                       Clock::now() + std::chrono::hours(1), &stop, origin);
  });
  const UpdateSamples updates =
      RunUpdater(served_.port(), truth_, kTracedUpdateRounds, Clock::now(),
                 origin, /*calibrate=*/false);
  stop.store(true, std::memory_order_release);
  reader.join();
  n_now_ += updates.batches;
  const std::string n = "n=" + std::to_string(reads.all_us.size());
  sheet_->Set("query.under_writes.p50_us", Median(reads.all_us), "us", n);
  sheet_->Set("query.under_writes.p90_us", Percentile(reads.all_us, 0.9), "us",
              n);
  sheet_->Set("update.client.p50_ms", Median(updates.ms), "ms",
              "n=" + std::to_string(updates.ms.size()));
}

void TracedRun::WritePath() {
  // The writer's calls, in its order, on a session of our own backed by a
  // store of our own: a fresh start (Prepare, then Assess), whole update
  // rounds, then a drain checkpoint.
  QualityContext ctx = ServeContext(o_.seed);
  const std::string dir = o_.work_dir + "/trace-store";
  auto store = Must(mdqa::storage::OpenDiskKbStore(
                        mdqa::storage::Env::Posix(), dir),
                    "open store");
  Must(store->Recover().status(), "recover empty store");
  Assessor assessor(&ctx);
  ++op_;
  mdqa::Result<PreparedContext> prepared = mdqa::Status::Internal("unset");
  samples_.Add("start.quality.prepare.ms",
               Call("quality.prepare", [&] { prepared = ctx.Prepare(); }));
  Must(prepared.status(), "prepare");
  mdqa::Result<AssessmentReport> report = mdqa::Status::Internal("unset");
  samples_.Add("start.quality.assess.ms",
               Call("quality.assess", [&] { report = assessor.Assess(); }));
  Must(report.status(), "assess");
  uint64_t generation = 1;
  auto checkpoint = [&](const PreparedContext& session, const char* key) {
    mdqa::Result<mdqa::storage::KbImage> image = mdqa::Status::Internal("unset");
    samples_.Add(std::string(key) + "storage.capture_image.ms",
                 Call("storage.capture_image", [&] {
                   image = mdqa::storage::CaptureSessionImage(
                       session, generation, generation - 1,
                       ServeScenarioName(o_.seed));
                 }));
    Must(image.status(), "capture image");
    samples_.Add(std::string(key) + "storage.write_checkpoint.ms",
                 Call("storage.write_checkpoint", [&] {
                   Must(store->WriteCheckpoint(*image), "write checkpoint");
                 }));
  };
  checkpoint(*prepared, "start.");

  PreparedContext session = std::move(*prepared);
  AssessmentReport current = std::move(*report);
  for (uint64_t n = 0; n < kTracedUpdateRounds * kRoundBatches; ++n) {
    const UpdateBatch& batch = truth_.BatchAt(n);
    const std::string kind = batch.deletion ? "delete" : "insert";
    ++op_;
    RunTally().attempted.fetch_add(1);
    Span root(&tracer_, "bench.update", op_);
    mdqa::Result<PreparedContext> next = mdqa::Status::Internal("unset");
    samples_.Add("quality.apply_update." + kind + ".ms",
                 Call("quality.apply_update",
                      [&] { next = session.ApplyUpdate(batch.delta); }));
    Must(next.status(), "apply update");
    ++batches_;
    if (next->chase_stats().extend_fallback) ++fallbacks_;
    mdqa::Result<AssessmentReport> rep = mdqa::Status::Internal("unset");
    samples_.Add(batch.deletion ? "quality.reassess.delete.ms"
                                : "quality.reassess.ms",
                 Call("quality.reassess",
                      [&] { rep = assessor.Reassess(*next, current); }));
    Must(rep.status(), "reassess");
    const uint64_t wal_before = NewestFileBytes(dir, "wal-");
    samples_.Add("storage.append_batch.us",
                 1000 * Call("storage.append_batch", [&] {
                   Must(store->AppendBatch(batch.delta, generation + 1),
                        "append batch");
                 }));
    samples_.Add("storage.wal.bytes_per_batch",
                 static_cast<double>(NewestFileBytes(dir, "wal-") - wal_before));
    samples_.Add("quality.report_json.update.ms",
                 Call("quality.report_json", [&] { rep->ToJson(); }));
    QueryOp scan;
    scan.cls = QueryClass::kScan;
    const mdqa::Relation* clean = rep->QualityVersionOf(kRelation);
    if (clean == nullptr ||
        clean->size() != truth_.Expected(scan, n + 1).size()) {
      Mismatch("reassessed quality version disagrees with the truth at "
               "stream position " + std::to_string(n + 1));
    }
    session = std::move(*next);
    current = std::move(*rep);
    ++generation;
  }
  ++op_;
  checkpoint(session, "drain.");
  samples_.Add("storage.checkpoint.bytes",
               static_cast<double>(NewestFileBytes(dir, "ckpt-")));
  store.reset();
}

void TracedRun::RestartReplay(const std::string& dir,
                              const std::string& expected_report) {
  QualityContext fresh = ServeContext(o_.seed);
  ++op_;
  RunTally().attempted.fetch_add(1);
  Span root(&tracer_, "bench.restart", op_);
  double spans = 0;
  auto timed = [&](const std::string& name, auto&& fn) {
    const double ms = Call(name, fn);
    samples_.Add(name + ".ms", ms);
    spans += ms;
  };
  std::unique_ptr<mdqa::storage::KbStore> reopened;
  timed("storage.open", [&] {
    reopened = Must(mdqa::storage::OpenDiskKbStore(
                        mdqa::storage::Env::Posix(), dir),
                    "reopen store");
  });
  mdqa::storage::RecoveredState recovered;
  timed("storage.recover",
        [&] { recovered = Must(reopened->Recover(), "recover"); });
  if (!recovered.has_checkpoint || !recovered.wal_records.empty()) {
    Mismatch("drained store should hold a checkpoint and no WAL records");
  }
  auto image = std::make_shared<const mdqa::storage::KbImage>(
      std::move(recovered.image));
  mdqa::Database db;
  timed("storage.database_from_image", [&] {
    db = Must(mdqa::storage::DatabaseFromImage(*image), "database");
  });
  timed("quality.replace_database",
        [&] { Must(fresh.ReplaceDatabase(std::move(db)), "replace"); });
  mdqa::Result<PreparedContext> restored = mdqa::Status::Internal("unset");
  timed("quality.prepare_restored", [&] {
    restored = fresh.PrepareRestored(mdqa::datalog::ChaseOptions{},
                                     mdqa::storage::ImageRebuilder(image));
  });
  Must(restored.status(), "prepare restored");
  Assessor restored_assessor(&fresh);
  mdqa::Result<AssessmentReport> rep = mdqa::Status::Internal("unset");
  timed("quality.reassess_all", [&] {
    rep = restored_assessor.Reassess(*restored, AssessmentReport());
  });
  Must(rep.status(), "reassess all");
  std::string json;
  timed("quality.report_json.restart", [&] { json = rep->ToJson(); });
  mdqa::Result<mdqa::storage::KbImage> captured =
      mdqa::Status::Internal("unset");
  timed("storage.capture_image.restart", [&] {
    captured = mdqa::storage::CaptureSessionImage(
        *restored, image->meta.generation, image->meta.generation - 1,
        ServeScenarioName(o_.seed));
  });
  Must(captured.status(), "capture");
  timed("storage.write_checkpoint.restart", [&] {
    Must(reopened->WriteCheckpoint(*captured), "checkpoint");
  });
  samples_.Add("restart.wall_ms", root.Stop());
  samples_.Add("trace.coverage.resume.spans_ms", spans);
  if (json != expected_report) {
    Mismatch("restored report differs from the report before shutdown");
  }
}

void TracedRun::Restarts() {
  // A whole restart of the server, client-observed, alternated with the
  // same restart made call by call on the same directory, so the two are
  // measured side by side.
  const uint64_t g = served_.server->generation();
  const std::string before = served_.server->CurrentReportJson();
  served_.Drain();
  const std::string dir = served_.dir;
  served_ = Served();
  std::vector<double> resume;
  for (int i = 0; i < kTracedRestarts; ++i) {
    Served s;
    resume.push_back(StartServed(ServeContext(o_.seed), o_.seed, dir, truth_,
                                 n_now_, g, &s));
    if (s.server->CurrentReportJson() != before) {
      Mismatch("report after a drained restart differs from the report "
               "before shutdown");
    }
    s.Drain();
    s = Served();
    RestartReplay(dir, before);
  }
  resume_ms_ = Median(resume);
  fs::remove_all(dir);
}

void TracedRun::Report(uint64_t symbols_added) {
  Set("testgen.generate.ms", "ms");
  Set("serve.start.ms", "ms");
  const char* per_pass = "per pass over five families";
  for (const char* name :
       {"quality.build_program.ms", "datalog.analysis.ms", "qa.select_engine.ms",
        "analysis.lint.ms", "core.validate_referential.ms", "quality.prepare.ms",
        "datalog.chase.ms", "quality.quality_version.ms", "quality.measure.ms",
        "quality.session_release.ms", "quality.report_json.ms"}) {
    Set(name, "ms", per_pass);
  }
  Set("datalog.chase.rounds", "count", per_pass);
  Set("datalog.chase.tgd_firings", "count", per_pass);
  Set("datalog.chase.facts_added", "count", per_pass);
  for (mdqa::testgen::ScenarioFamily f : mdqa::testgen::kAllScenarioFamilies) {
    Set(std::string("assess.") + mdqa::testgen::ScenarioFamilyToString(f) +
            ".ms",
        "ms");
  }
  Set("trace.coverage.assess", "ratio",
      "spans " + std::to_string(samples_.MedianOf("trace.spans")) +
          " ms / Assess " + std::to_string(samples_.MedianOf("assess.wall")) +
          " ms");
  sheet_->Set("trace.coverage.assess.spans_ms", samples_.MedianOf("trace.spans"),
              "ms", per_pass);
  sheet_->Set("trace.coverage.assess.wall_ms", samples_.MedianOf("assess.wall"),
              "ms", per_pass);
  Set("trace.overhead.assess_ms", "ms",
      "decomposed pass minus Assess, per pass");

  Set("quality.prepare_query.us", "us");
  Set("quality.answer.us", "us");
  Set("serve.overhead.us", "us", "client p50 minus prepare and answer p50");
  for (int c = 0; c < kNumQueryClasses; ++c) {
    const std::string cls = QueryClassName(static_cast<QueryClass>(c));
    const std::string n = "n=" + std::to_string(static_cast<uint64_t>(
                                     samples_.MedianOf("query." + cls + ".n")));
    Set("query." + cls + ".p50_us", "us", n);
    Set("serve.overhead." + cls + ".us", "us", n);
  }
  sheet_->Set("datalog.vocab.symbols_added", static_cast<double>(symbols_added),
              "count",
              "over " + std::to_string(2 * kTracedQueriesPerClient) + " queries");

  Set("start.quality.prepare.ms", "ms");
  Set("start.quality.assess.ms", "ms");
  Set("quality.apply_update.insert.ms", "ms");
  Set("quality.apply_update.delete.ms", "ms");
  sheet_->Set("datalog.chase.extend_fallbacks",
              batches_ == 0 ? 0 : static_cast<double>(fallbacks_) /
                                      static_cast<double>(batches_),
              "ratio",
              std::to_string(fallbacks_) + " fallbacks / " +
                  std::to_string(batches_) + " batches");
  Set("quality.reassess.ms", "ms");
  Set("quality.reassess.delete.ms", "ms");
  Set("storage.append_batch.us", "us");
  Set("storage.wal.bytes_per_batch", "bytes");
  Set("quality.report_json.update.ms", "ms");
  Set("storage.checkpoint.bytes", "bytes");
  Set("drain.storage.capture_image.ms", "ms");
  Set("drain.storage.write_checkpoint.ms", "ms");

  for (const char* name :
       {"storage.open.ms", "storage.recover.ms", "storage.database_from_image.ms",
        "quality.replace_database.ms", "quality.prepare_restored.ms",
        "quality.reassess_all.ms", "quality.report_json.restart.ms",
        "storage.capture_image.restart.ms",
        "storage.write_checkpoint.restart.ms"}) {
    Set(name, "ms");
  }
  const double spans = samples_.MedianOf("trace.coverage.resume.spans_ms");
  sheet_->Set("trace.coverage.resume", spans / resume_ms_, "ratio",
              "restart spans " + std::to_string(spans) +
                  " ms / client-observed resume " + std::to_string(resume_ms_) +
                  " ms");
  Set("trace.coverage.resume.spans_ms", "ms");
  sheet_->Set("trace.coverage.resume.wall_ms", resume_ms_, "ms",
              "client-observed resume, same run");
  Set("restart.wall_ms", "ms", "in-process restart, spans plus glue");

  for (const auto& [layer, ms] : tracer_.SelfMsByLayer("bench.split_prepare")) {
    sheet_->Set("layer." + layer + ".self_ms", ms, "ms",
                "whole traced run");
  }
}

void TracedRun::Run() {
  Setup();
  AssessPasses();
  Queries();
  UnderWrites();
  Restarts();
  WritePath();
  Report(symbols_added_);
  std::string error;
  if (!o_.trace_out.empty() && !tracer_.WriteJsonLines(o_.trace_out, &error)) {
    Mismatch(error);
  }
  std::printf("trace: %zu spans written to %s\n", tracer_.spans().size(),
              o_.trace_out.empty() ? "(nowhere)" : o_.trace_out.c_str());
}

}  // namespace

void RunTraced(const RunOptions& options, MetricSheet* sheet) {
  TracedRun(options, sheet).Run();
}

}  // namespace perfbench
