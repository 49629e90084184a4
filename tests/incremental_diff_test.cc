// Differential incremental-vs-from-scratch harness: over hundreds of
// seeded update sequences, resuming the chase from a captured frontier
// (`Chase::Extend` / `ChaseQa::Extend` / `PreparedContext::ApplyUpdate` +
// `Assessor::Reassess`) must produce results *byte-identical* to tearing
// everything down and re-chasing the extended extensional set from
// scratch — same instance render, same certain answers, same assessment
// reports (ToString AND ToJson), serially and on a thread pool at 1 and
// 4 workers. Null-creating programs compare via the canonical null
// renaming (`Instance::ToCanonicalString`), since the incremental and
// the from-scratch runs mint their nulls in different orders.
//
// Generators are shared with the other property harnesses via
// src/testgen/generators.h — everything is a pure function of the seed, so
// failures reproduce from the test parameter alone. See
// docs/incremental.md for the design and the fallback matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "base/thread_pool.h"
#include "datalog/chase.h"
#include "datalog/instance.h"
#include "datalog/parser.h"
#include "testgen/generators.h"
#include "qa/chase_qa.h"
#include "quality/assessor.h"
#include "scenarios/hospital.h"
#include "scenarios/synthetic.h"
#include "storage/session_image.h"
#include "testgen/scenario.h"

namespace mdqa {
namespace {

using datalog::Atom;
using datalog::Chase;
using datalog::ChaseOptions;
using datalog::ChaseStats;
using datalog::Instance;
using datalog::Parser;
using datalog::Program;
using qa::ChaseQa;
using testgen::UpdateSequence;

// Certain answers rendered as sorted display strings, so engines over
// *different* vocabularies (the incremental one interned delta constants
// late; the from-scratch one interned them in program order) compare
// byte for byte.
std::vector<std::string> RenderAnswers(const ChaseQa& engine,
                                       Program* program,
                                       const std::string& query_text) {
  auto query = Parser::ParseQuery(query_text, program->mutable_vocab());
  EXPECT_TRUE(query.ok()) << query.status() << " on " << query_text;
  if (!query.ok()) return {};
  auto answers = engine.Answers(*query);
  EXPECT_TRUE(answers.ok()) << answers.status();
  if (!answers.ok()) return {};
  std::vector<std::string> out;
  for (const auto& tuple : *answers) {
    std::string line;
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) line += ", ";
      line += program->vocab()->TermToString(tuple[i]);
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// One engine extended batch by batch against a from-scratch rebuild per
// batch. `pool_threads == 0` runs serially; otherwise the incremental
// side chases on a pool with the sharded-matching threshold forced down,
// while the from-scratch side stays serial — so the comparison also
// covers parallel-vs-serial.
void ExpectExtendMatchesRebuild(uint32_t seed, size_t pool_threads) {
  const UpdateSequence s = testgen::GenerateUpdateSequence(seed);
  ThreadPool pool(pool_threads == 0 ? 1 : pool_threads);
  ChaseOptions options;
  if (pool_threads > 0) {
    options.pool = &pool;
    options.min_parallel_seeds = 1;
  }
  auto program = Parser::ParseProgram(s.base.program_text);
  ASSERT_TRUE(program.ok()) << program.status() << "\n" << s.base.program_text;
  auto inc = ChaseQa::Create(*program, options);
  ASSERT_TRUE(inc.ok()) << inc.status();

  std::string accumulated = s.base.program_text;
  for (size_t b = 0; b < s.batches.size(); ++b) {
    std::vector<Atom> atoms;
    for (const std::string& stmt : s.batches[b]) {
      accumulated += stmt + ".\n";
      auto atom = Parser::ParseGroundAtom(stmt, program->mutable_vocab());
      ASSERT_TRUE(atom.ok()) << atom.status() << " on " << stmt;
      atoms.push_back(*atom);
    }
    auto stats = inc->Extend(atoms);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_TRUE(stats->incremental);
    // The generated families (plain/recursive Datalog, single-head
    // existentials) are all within the incremental path's coverage.
    EXPECT_FALSE(stats->extend_fallback) << stats->fallback_reason;

    auto rebuilt_program = Parser::ParseProgram(accumulated);
    ASSERT_TRUE(rebuilt_program.ok()) << rebuilt_program.status();
    auto full = ChaseQa::Create(*rebuilt_program, ChaseOptions{});
    ASSERT_TRUE(full.ok()) << full.status();

    if (s.base.downward) {
      EXPECT_EQ(inc->instance().ToCanonicalString(),
                full->instance().ToCanonicalString())
          << "instance diverged at seed=" << seed << " batch=" << b
          << " threads=" << pool_threads << "\nprogram:\n"
          << accumulated;
    } else {
      EXPECT_EQ(inc->instance().ToString(), full->instance().ToString())
          << "instance diverged at seed=" << seed << " batch=" << b
          << " threads=" << pool_threads << "\nprogram:\n"
          << accumulated;
    }
    for (const std::string& text : s.base.queries) {
      EXPECT_EQ(RenderAnswers(*inc, &*program, text),
                RenderAnswers(*full, &*rebuilt_program, text))
          << "answers diverged at seed=" << seed << " batch=" << b
          << " on " << text;
    }
  }
}

class IncrementalChaseDiff : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IncrementalChaseDiff, SerialExtendMatchesRebuild) {
  ExpectExtendMatchesRebuild(GetParam(), 0);
}

TEST_P(IncrementalChaseDiff, PooledExtendMatchesRebuildOneThread) {
  ExpectExtendMatchesRebuild(GetParam(), 1);
}

TEST_P(IncrementalChaseDiff, PooledExtendMatchesRebuildFourThreads) {
  ExpectExtendMatchesRebuild(GetParam(), 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalChaseDiff,
                         ::testing::Range(0u, 210u));

// --- Extend contract: precondition + fallback coverage ------------------

TEST(ExtendContract, InvalidFrontierRejected) {
  auto program = Parser::ParseProgram("P(\"a\").\nQ(X) :- P(X).\n");
  ASSERT_TRUE(program.ok());
  Instance instance = Instance::FromProgram(*program);
  datalog::ChaseFrontier frontier;  // never captured
  ChaseStats stats;
  Status status = Chase::Extend(*program, &instance, frontier, {},
                                ChaseOptions{}, &stats);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
}

TEST(ExtendContract, StaleFrontierRejected) {
  auto program = Parser::ParseProgram("P(\"a\").\nQ(X) :- P(X).\n");
  ASSERT_TRUE(program.ok());
  Instance instance = Instance::FromProgram(*program);
  ChaseStats stats;
  ASSERT_TRUE(Chase::Run(*program, &instance, ChaseOptions{}, &stats).ok());
  ASSERT_TRUE(stats.frontier.valid);
  // Any out-of-band mutation invalidates the captured frontier.
  auto atom = Parser::ParseGroundAtom("P(\"b\")", program->mutable_vocab());
  ASSERT_TRUE(atom.ok());
  instance.AddFact(*atom, 0);
  ChaseStats stats2;
  Status status = Chase::Extend(*program, &instance, stats.frontier, {*atom},
                                ChaseOptions{}, &stats2);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  EXPECT_NE(status.message().find("stale"), std::string::npos) << status;
}

// Each fallback is exact (matches the from-scratch rebuild) and recorded.
void ExpectFallbackMatchesRebuild(const std::string& base_text,
                                  const std::string& delta_stmt,
                                  const ChaseOptions& options,
                                  const std::string& reason_substr) {
  auto program = Parser::ParseProgram(base_text);
  ASSERT_TRUE(program.ok()) << program.status();
  auto inc = ChaseQa::Create(*program, options);
  ASSERT_TRUE(inc.ok()) << inc.status();
  auto atom = Parser::ParseGroundAtom(delta_stmt, program->mutable_vocab());
  ASSERT_TRUE(atom.ok()) << atom.status();
  auto stats = inc->Extend({*atom});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->extend_fallback);
  EXPECT_NE(stats->fallback_reason.find(reason_substr), std::string::npos)
      << stats->fallback_reason;

  auto rebuilt = Parser::ParseProgram(base_text + delta_stmt + ".\n");
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  auto full = ChaseQa::Create(*rebuilt, options);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(inc->instance().ToCanonicalString(),
            full->instance().ToCanonicalString());
}

TEST(ExtendContract, NegationFallsBackExactly) {
  ExpectFallbackMatchesRebuild(
      "P(\"a\").\nP(\"b\").\nR(\"a\").\nQ(X) :- P(X), not R(X).\n",
      "R(\"b\")", ChaseOptions{}, "negation");
}

TEST(ExtendContract, SemiObliviousFallsBackExactly) {
  ChaseOptions options;
  options.restricted = false;
  ExpectFallbackMatchesRebuild(
      "PW(\"w0\", \"p0\").\nUW(\"u0\", \"w0\").\n"
      "PU(U, P) :- PW(W, P), UW(U, W).\n",
      "PW(\"w0\", \"p1\")", options, "semi-oblivious");
}

// The narrowed no-fallback cases: exact (matches the from-scratch
// rebuild) *without* leaving the delta path.
void ExpectNoFallbackMatchesRebuild(const std::string& base_text,
                                    const std::string& delta_stmt,
                                    const ChaseOptions& options) {
  auto program = Parser::ParseProgram(base_text);
  ASSERT_TRUE(program.ok()) << program.status();
  auto inc = ChaseQa::Create(*program, options);
  ASSERT_TRUE(inc.ok()) << inc.status();
  auto atom = Parser::ParseGroundAtom(delta_stmt, program->mutable_vocab());
  ASSERT_TRUE(atom.ok()) << atom.status();
  auto stats = inc->Extend({*atom});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_FALSE(stats->extend_fallback) << stats->fallback_reason;

  auto rebuilt = Parser::ParseProgram(base_text + delta_stmt + ".\n");
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  auto full = ChaseQa::Create(*rebuilt, options);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(inc->instance().ToCanonicalString(),
            full->instance().ToCanonicalString());
}

TEST(ExtendContract, NonSeparableEgdFallsBackExactly) {
  // egds_separable defaults to false, the EGD can merge labeled nulls
  // (Z sits at an affected position), and the delta reaches it through
  // U: the extension must not assume the TGD/EGD alternation converges.
  ExpectFallbackMatchesRebuild(
      "T(\"a\").\nV(\"a\", \"b\").\nU(X, Z) :- T(X).\n"
      "Z = W :- U(X, Z), V(X, W).\n",
      "T(\"b\")", ChaseOptions{}, "separable");
}

TEST(ExtendContract, NullFreeEgdStaysIncremental) {
  // The null-flow analysis proves this EGD null-free (the program has no
  // existentials, so no position ever carries a labeled null): it can
  // only no-op or report a constant clash, both of which the delta path
  // handles — no declared separability needed. This family fell back
  // before the position-granular analysis.
  ExpectNoFallbackMatchesRebuild(
      "T(\"w1\", \"a\").\nT(\"w2\", \"b\").\nS(X) :- T(W, X).\n"
      "X = Y :- T(W, X), T(W, Y).\n",
      "T(\"w3\", \"c\")", ChaseOptions{});
}

TEST(ExtendContract, UnreachableEgdStaysIncremental) {
  // The EGD *can* merge nulls (Z is existential), but the delta's
  // predicate-dependency closure ({P, S}) never reaches its body (U):
  // the alternation is provably a no-op for this update.
  ExpectNoFallbackMatchesRebuild(
      "P(\"a\").\nN(\"n1\").\nU(X, Z) :- N(X).\n"
      "Z = W :- U(X, Z), U(X, W).\nS(X) :- P(X).\n",
      "P(\"b\")", ChaseOptions{});
}

TEST(ExtendContract, ReachableForm10FallsBackExactly) {
  // A form-(10)-shaped rule (multi-atom head with existentials) fed by
  // the delta still forces the re-chase.
  ExpectFallbackMatchesRebuild(
      "P(\"a\").\nR(X, Y), Q(Y) :- P(X).\n",
      "P(\"b\")", ChaseOptions{}, "form-(10)");
}

TEST(ExtendContract, UnfedForm10StaysIncremental) {
  // The same rule shape fed only by M, which the delta (over P) cannot
  // feed: it never fires during the extension, so the delta path runs.
  // This family fell back before the null-flow analysis.
  ExpectNoFallbackMatchesRebuild(
      "P(\"a\").\nM(\"m\").\nR(X, Y), Q(Y) :- M(X).\nS(X) :- P(X).\n",
      "P(\"b\")", ChaseOptions{});
}

// --- Quality layer: ApplyUpdate + Reassess vs a fresh full assessment ---

Relation CopyRelation(const Database& db, const std::string& name) {
  auto rel = db.GetRelation(name);
  EXPECT_TRUE(rel.ok()) << rel.status();
  return **rel;
}

class QualityUpdateDiff : public ::testing::TestWithParam<uint32_t> {};

TEST_P(QualityUpdateDiff, ReassessMatchesFullAssess) {
  const uint32_t seed = GetParam();
  scenarios::SyntheticSpec spec;
  spec.institutions = 1 + static_cast<int>(seed % 2);
  spec.units_per_institution = 1 + static_cast<int>(seed % 3);
  spec.wards_per_unit = 1 + static_cast<int>((seed / 2) % 2);
  spec.patients = 4 + static_cast<int>(seed % 4);
  spec.days = 2 + static_cast<int>(seed % 2);
  spec.include_downward_rules = (seed % 2) == 0;
  spec.seed = seed * 131 + 5;

  auto context = scenarios::BuildSyntheticContext(spec);
  ASSERT_TRUE(context.ok()) << context.status();
  auto prepared = context->Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  quality::Assessor assessor(&*context);
  auto previous = assessor.Assess();
  ASSERT_TRUE(previous.ok()) << previous.status();

  // Seeded batch: a few inserted measurements (existing times, mix of
  // known and brand-new patients); every third seed also deletes an
  // existing row, exercising the recorded full-re-chase fallback.
  std::mt19937 rng(seed * 977 + 3);
  quality::RelationDelta delta;
  delta.relation = "SMeasurements";
  const int n_inserts = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < n_inserts; ++i) {
    const int day = static_cast<int>(rng() % static_cast<uint32_t>(spec.days));
    const int patient =
        static_cast<int>(rng() % static_cast<uint32_t>(spec.patients + 3));
    const double value = 36.0 + static_cast<double>(rng() % 40) / 10.0;
    delta.insert_rows.push_back({Value::Str("st" + std::to_string(day)),
                                 Value::Str("sp" + std::to_string(patient)),
                                 Value::Real(value)});
  }
  const bool with_delete = (seed % 3) == 0;
  if (with_delete) {
    const Relation victim = CopyRelation(prepared->database(),
                                         "SMeasurements");
    ASSERT_GT(victim.size(), 0u);
    delta.delete_rows.push_back(
        victim.row(rng() % static_cast<uint32_t>(victim.size())));
  }
  quality::DeltaBatch batch;
  batch.deltas.push_back(std::move(delta));

  auto next = prepared->ApplyUpdate(batch);
  ASSERT_TRUE(next.ok()) << next.status();
  if (with_delete) {
    EXPECT_TRUE(next->chase_stats().extend_fallback)
        << "deletions must take the recorded full-re-chase path";
  }
  auto incremental = assessor.Reassess(*next, *previous);
  ASSERT_TRUE(incremental.ok()) << incremental.status();

  // From-scratch baseline: a fresh context whose database already
  // contains the update, fully assessed.
  auto baseline_context = scenarios::BuildSyntheticContext(spec);
  ASSERT_TRUE(baseline_context.ok()) << baseline_context.status();
  Database patch;
  patch.PutRelation(CopyRelation(next->database(), "SMeasurements"));
  ASSERT_TRUE(baseline_context->SetDatabase(std::move(patch)).ok());
  quality::Assessor baseline_assessor(&*baseline_context);
  auto full = baseline_assessor.Assess();
  ASSERT_TRUE(full.ok()) << full.status();

  EXPECT_EQ(incremental->ToString(), full->ToString())
      << "report text diverged at seed=" << seed;
  EXPECT_EQ(incremental->ToJson(), full->ToJson())
      << "report json diverged at seed=" << seed;

  // Pooled re-assessment (4 workers) must render identically too.
  ThreadPool pool(4);
  quality::AssessOptions pooled_options;
  pooled_options.pool = &pool;
  auto pooled = assessor.Reassess(*next, *previous, pooled_options);
  ASSERT_TRUE(pooled.ok()) << pooled.status();
  EXPECT_EQ(pooled->ToString(), full->ToString());
  EXPECT_EQ(pooled->ToJson(), full->ToJson());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QualityUpdateDiff, ::testing::Range(0u, 24u));

// Adds an assessed relation that is independent of Measurements, so the
// dependency analysis can actually *skip* it (the hospital ontology
// without constraints has no EGDs, which would otherwise force a full
// recompute), and checks the skipping is invisible in the rendered
// report.
void AddAuditRelation(quality::QualityContext* context) {
  Database extra;
  auto schema =
      RelationSchema::Create("Audit", std::vector<std::string>{"Id"});
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(extra.AddRelation(std::move(*schema)).ok());
  for (const char* id : {"a1", "a2", "a3"}) {
    ASSERT_TRUE(extra.InsertText("Audit", {id}).ok());
  }
  ASSERT_TRUE(context->SetDatabase(std::move(extra)).ok());
  ASSERT_TRUE(context->MapRelationToContext("Audit", "Auditc").ok());
  ASSERT_TRUE(context
                  ->DefineQualityVersion("Audit", "Auditq",
                                         "Auditq(X) :- Auditc(X).\n")
                  .ok());
}

TEST(QualityUpdateDiffSkip, IndependentRelationCopiedVerbatim) {
  scenarios::HospitalOptions options;
  options.include_downward_rules = false;  // upward-only: no form (10)
  options.include_constraints = false;     // no EGDs: skipping is legal
  auto context = scenarios::BuildHospitalContext(options);
  ASSERT_TRUE(context.ok()) << context.status();
  AddAuditRelation(&*context);

  auto prepared = context->Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  quality::Assessor assessor(&*context);
  auto previous = assessor.Assess();
  ASSERT_TRUE(previous.ok()) << previous.status();
  ASSERT_EQ(previous->per_relation.size(), 2u);

  quality::RelationDelta delta;
  delta.relation = "Measurements";
  delta.insert_rows.push_back({Value::Str("Sep/5-12:10"),
                               Value::Str("Lou Reed"), Value::Real(37.9)});
  quality::DeltaBatch batch;
  batch.deltas.push_back(std::move(delta));
  auto next = prepared->ApplyUpdate(batch);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_FALSE(next->chase_stats().extend_fallback)
      << next->chase_stats().fallback_reason;
  EXPECT_EQ(next->updated_relations(),
            std::vector<std::string>{"Measurements"});

  auto incremental = assessor.Reassess(*next, *previous);
  ASSERT_TRUE(incremental.ok()) << incremental.status();

  auto baseline_context = scenarios::BuildHospitalContext(options);
  ASSERT_TRUE(baseline_context.ok()) << baseline_context.status();
  AddAuditRelation(&*baseline_context);
  Database patch;
  patch.PutRelation(CopyRelation(next->database(), "Measurements"));
  ASSERT_TRUE(baseline_context->SetDatabase(std::move(patch)).ok());
  auto full = quality::Assessor(&*baseline_context).Assess();
  ASSERT_TRUE(full.ok()) << full.status();

  EXPECT_EQ(incremental->ToString(), full->ToString());
  EXPECT_EQ(incremental->ToJson(), full->ToJson());
}

// Snapshot isolation: two different updates branched off the same
// prepared session stay independent, and the parent session is
// untouched.
TEST(QualityUpdateDiffSkip, SessionsBranchIndependently) {
  scenarios::HospitalOptions options;
  options.include_downward_rules = false;
  options.include_constraints = false;
  auto context = scenarios::BuildHospitalContext(options);
  ASSERT_TRUE(context.ok()) << context.status();
  auto prepared = context->Prepare();
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const size_t base_facts = prepared->instance().TotalFacts();
  const size_t base_rows =
      CopyRelation(prepared->database(), "Measurements").size();

  auto branch = [&](const char* time, const char* patient, double value) {
    quality::RelationDelta delta;
    delta.relation = "Measurements";
    delta.insert_rows.push_back(
        {Value::Str(time), Value::Str(patient), Value::Real(value)});
    quality::DeltaBatch batch;
    batch.deltas.push_back(std::move(delta));
    return prepared->ApplyUpdate(batch);
  };
  auto left = branch("Sep/5-12:10", "Lou Reed", 37.9);
  ASSERT_TRUE(left.ok()) << left.status();
  auto right = branch("Sep/9-12:00", "Lou Reed", 36.8);
  ASSERT_TRUE(right.ok()) << right.status();

  // The parent saw neither update; each branch saw exactly its own.
  EXPECT_EQ(prepared->instance().TotalFacts(), base_facts);
  EXPECT_EQ(CopyRelation(prepared->database(), "Measurements").size(),
            base_rows);
  EXPECT_EQ(CopyRelation(left->database(), "Measurements").size(),
            base_rows + 1);
  EXPECT_EQ(CopyRelation(right->database(), "Measurements").size(),
            base_rows + 1);
  EXPECT_GT(left->instance().TotalFacts(), base_facts);
  EXPECT_GT(right->instance().TotalFacts(), base_facts);
  EXPECT_NE(left->instance().ToString(), right->instance().ToString());
}

// --- Carried state: what ApplyUpdate and Reassess carry across batches ---

// The carried EDB statistics against a from-scratch count of the
// session program's facts, field by field so a divergence names its
// predicate.
void ExpectEdbStatsMatchRebuild(const quality::PreparedContext& session,
                                const std::string& where) {
  const datalog::InstanceStatistics& carried = session.EdbStatistics();
  const datalog::InstanceStatistics rebuilt =
      analysis::CostModel::CollectEdbStats(session.program());
  EXPECT_EQ(carried.total_facts, rebuilt.total_facts) << where;
  EXPECT_EQ(carried.max_rows, rebuilt.max_rows) << where;
  EXPECT_EQ(carried.tables.size(), rebuilt.tables.size()) << where;
  const datalog::Vocabulary& vocab = *session.program().vocab();
  for (const auto& [pred, table] : rebuilt.tables) {
    auto it = carried.tables.find(pred);
    ASSERT_NE(it, carried.tables.end())
        << where << ": no entry for " << vocab.PredicateName(pred);
    EXPECT_EQ(it->second.rows, table.rows)
        << where << ": rows of " << vocab.PredicateName(pred);
    EXPECT_EQ(it->second.distinct, table.distinct)
        << where << ": distinct counts of " << vocab.PredicateName(pred);
  }
}

// A batch deleting every row `session` holds for `relation`.
quality::DeltaBatch DeleteAllRows(const quality::PreparedContext& session,
                                  const std::string& relation) {
  quality::RelationDelta delta;
  delta.relation = relation;
  const Relation rows = CopyRelation(session.database(), relation);
  for (size_t i = 0; i < rows.size(); ++i) {
    delta.delete_rows.push_back(rows.row(i));
  }
  quality::DeltaBatch batch;
  batch.deltas.push_back(std::move(delta));
  return batch;
}

TEST(CarriedEdbStats, MatchRebuildAlongEveryFamilyStream) {
  for (testgen::ScenarioFamily family : testgen::kAllScenarioFamilies) {
    for (uint32_t seed : {1u, 2u}) {
      const std::string tag =
          std::string(testgen::ScenarioFamilyToString(family)) + "/s" +
          std::to_string(seed);
      const testgen::ScenarioSpec spec = testgen::SpecFor(family, seed);
      auto scenario = testgen::ScenarioGenerator::Generate(spec);
      ASSERT_TRUE(scenario.ok()) << scenario.status();
      std::optional<quality::PreparedContext> session;
      auto report = quality::Assessor(&scenario->context)
                        .Assess(quality::AssessOptions{}, &session);
      ASSERT_TRUE(report.ok()) << report.status();
      ASSERT_TRUE(session.has_value()) << tag;
      ExpectEdbStatsMatchRebuild(*session, tag + " gen 0");

      // The stream's inserts and its closing deletion (the recorded
      // full-re-chase path), then a batch emptying the relation.
      std::vector<quality::DeltaBatch> batches;
      for (const testgen::ScenarioUpdate& u : scenario->updates) {
        batches.push_back(u.batch);
      }
      for (size_t b = 0; b <= batches.size(); ++b) {
        const quality::DeltaBatch batch =
            b < batches.size() ? batches[b]
                               : DeleteAllRows(*session, scenario->relation);
        auto next = session->ApplyUpdate(batch);
        ASSERT_TRUE(next.ok()) << tag << ": " << next.status();
        session.emplace(std::move(*next));
        ExpectEdbStatsMatchRebuild(*session,
                                   tag + " gen " + std::to_string(b + 1));
      }
      const uint32_t emptied =
          session->program().vocab()->FindPredicate(scenario->relation);
      EXPECT_EQ(session->EdbStatistics().tables.count(emptied), 0u) << tag;

      // A restored session seeds its statistics by the same rule.
      auto image = storage::CaptureSessionImage(
          *session, batches.size() + 2, batches.size() + 1, tag);
      ASSERT_TRUE(image.ok()) << image.status();
      auto shared = std::make_shared<const storage::KbImage>(
          std::move(*image));
      auto fresh = testgen::ScenarioGenerator::Generate(spec);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      auto db = storage::DatabaseFromImage(*shared);
      ASSERT_TRUE(db.ok()) << db.status();
      ASSERT_TRUE(fresh->context.ReplaceDatabase(std::move(*db)).ok());
      auto restored = fresh->context.PrepareRestored(
          ChaseOptions{}, storage::ImageRebuilder(shared));
      ASSERT_TRUE(restored.ok()) << restored.status();
      ExpectEdbStatsMatchRebuild(*restored, tag + " restored");
    }
  }
}

// Hospital + Audit, with a second database relation AuditFeed feeding
// Audit through a rule: Audit is both an original relation and a rule
// head, so its chased table mixes extensional and derived facts.
Result<quality::QualityContext> BuildFedAuditContext(Database patch) {
  scenarios::HospitalOptions options;
  options.include_constraints = false;
  MDQA_ASSIGN_OR_RETURN(quality::QualityContext context,
                        scenarios::BuildHospitalContext(options));
  AddAuditRelation(&context);
  Database feed;
  MDQA_ASSIGN_OR_RETURN(
      RelationSchema schema,
      RelationSchema::Create("AuditFeed", std::vector<std::string>{"Id"}));
  MDQA_RETURN_IF_ERROR(feed.AddRelation(std::move(schema)));
  MDQA_RETURN_IF_ERROR(feed.InsertText("AuditFeed", {"f1"}));
  MDQA_RETURN_IF_ERROR(context.SetDatabase(std::move(feed)));
  MDQA_RETURN_IF_ERROR(context.AddContextualRules("Audit(X) :- AuditFeed(X)."));
  MDQA_RETURN_IF_ERROR(context.SetDatabase(std::move(patch)));
  return context;
}

TEST(CarriedEdbStats, DatabaseRelationThatIsAlsoARuleHead) {
  auto context = BuildFedAuditContext(Database());
  ASSERT_TRUE(context.ok()) << context.status();
  quality::Assessor assessor(&*context);
  std::optional<quality::PreparedContext> session;
  auto report = assessor.Assess(quality::AssessOptions{}, &session);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(session.has_value());
  ExpectEdbStatsMatchRebuild(*session, "prepared");

  auto insert = [](const char* relation, const char* id) {
    quality::RelationDelta delta;
    delta.relation = relation;
    delta.insert_rows.push_back({Value::Str(id)});
    quality::DeltaBatch batch;
    batch.deltas.push_back(std::move(delta));
    return batch;
  };
  const std::vector<std::pair<std::string, quality::DeltaBatch>> steps = {
      {"insert into the head relation", insert("Audit", "a4")},
      {"insert into its feed", insert("AuditFeed", "f2")},
      {"insert a row the feed already derives", insert("Audit", "f1")},
  };
  for (const auto& [what, batch] : steps) {
    auto next = session->ApplyUpdate(batch);
    ASSERT_TRUE(next.ok()) << what << ": " << next.status();
    auto rep = assessor.Reassess(*next, *report);
    ASSERT_TRUE(rep.ok()) << what << ": " << rep.status();
    session.emplace(std::move(*next));
    report = std::move(rep);
    ExpectEdbStatsMatchRebuild(*session, what);
  }

  // Deleting every extensional Audit row leaves its derived facts in the
  // chased table, but no entry in the EDB statistics.
  auto emptied = session->ApplyUpdate(DeleteAllRows(*session, "Audit"));
  ASSERT_TRUE(emptied.ok()) << emptied.status();
  EXPECT_TRUE(emptied->chase_stats().extend_fallback);
  ExpectEdbStatsMatchRebuild(*emptied, "emptied head relation");
  const uint32_t audit =
      emptied->program().vocab()->FindPredicate("Audit");
  EXPECT_EQ(emptied->EdbStatistics().tables.count(audit), 0u);
  ASSERT_NE(emptied->instance().Table(audit), nullptr);
  EXPECT_GT(emptied->instance().Table(audit)->size(), 0u);

  // The carried statistics price the engines exactly as a fresh
  // assessment of the same database does.
  auto incremental = assessor.Reassess(*emptied, *report);
  ASSERT_TRUE(incremental.ok()) << incremental.status();
  Database patch;
  patch.PutRelation(CopyRelation(emptied->database(), "Audit"));
  patch.PutRelation(CopyRelation(emptied->database(), "AuditFeed"));
  auto baseline_context = BuildFedAuditContext(std::move(patch));
  ASSERT_TRUE(baseline_context.ok()) << baseline_context.status();
  auto full = quality::Assessor(&*baseline_context).Assess();
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(incremental->ToString(), full->ToString());
  EXPECT_EQ(incremental->ToJson(), full->ToJson());
}

TEST(CarriedGate, EmptiedRuleBodyRelationIsRelintedExactly) {
  scenarios::HospitalOptions options;
  auto context = scenarios::BuildHospitalContext(options);
  ASSERT_TRUE(context.ok()) << context.status();
  AddAuditRelation(&*context);
  quality::Assessor assessor(&*context);
  std::optional<quality::PreparedContext> session;
  auto original = assessor.Assess(quality::AssessOptions{}, &session);
  ASSERT_TRUE(original.ok()) << original.status();
  ASSERT_TRUE(session.has_value());

  // Audit feeds the mapping rule `Auditc(X0) :- Audit(X0)`: emptying it
  // changes which predicates hold facts, so lint must run again.
  auto emptied = session->ApplyUpdate(DeleteAllRows(*session, "Audit"));
  ASSERT_TRUE(emptied.ok()) << emptied.status();
  auto incremental = assessor.Reassess(*emptied, *original);
  ASSERT_TRUE(incremental.ok()) << incremental.status();

  auto baseline_context = scenarios::BuildHospitalContext(options);
  ASSERT_TRUE(baseline_context.ok()) << baseline_context.status();
  AddAuditRelation(&*baseline_context);
  Database patch;
  patch.PutRelation(CopyRelation(emptied->database(), "Audit"));
  ASSERT_TRUE(baseline_context->SetDatabase(std::move(patch)).ok());
  auto full = quality::Assessor(&*baseline_context).Assess();
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(incremental->ToString(), full->ToString());
  EXPECT_EQ(incremental->ToJson(), full->ToJson());
  EXPECT_NE(incremental->lint_text, original->lint_text);
  EXPECT_NE(incremental->lint_warnings + incremental->lint_errors,
            original->lint_warnings + original->lint_errors);

  // Refilling the relation restores the original findings.
  quality::RelationDelta refill;
  refill.relation = "Audit";
  for (const char* id : {"a1", "a2", "a3"}) {
    refill.insert_rows.push_back({Value::Str(id)});
  }
  quality::DeltaBatch batch;
  batch.deltas.push_back(std::move(refill));
  auto refilled = emptied->ApplyUpdate(batch);
  ASSERT_TRUE(refilled.ok()) << refilled.status();
  auto again = assessor.Reassess(*refilled, *incremental);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->lint_text, original->lint_text);
  EXPECT_EQ(again->lint_errors, original->lint_errors);
  EXPECT_EQ(again->lint_warnings, original->lint_warnings);
  EXPECT_EQ(again->ToString(), original->ToString());
  EXPECT_EQ(again->ToJson(), original->ToJson());
}

TEST(CarriedGate, OntologyChangedAfterPrepareIsRevalidated) {
  scenarios::HospitalOptions options;
  auto ontology = scenarios::BuildHospitalOntology(options);
  ASSERT_TRUE(ontology.ok()) << ontology.status();
  quality::QualityContext context(*ontology);
  AddAuditRelation(&context);
  quality::Assessor assessor(&context);
  std::optional<quality::PreparedContext> session;
  auto report = assessor.Assess(quality::AssessOptions{}, &session);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(session.has_value());
  ASSERT_TRUE(report->referential_check.ok());

  auto insert_audit = [](const char* id) {
    quality::RelationDelta delta;
    delta.relation = "Audit";
    delta.insert_rows.push_back({Value::Str(id)});
    quality::DeltaBatch batch;
    batch.deltas.push_back(std::move(delta));
    return batch;
  };
  auto first = session->ApplyUpdate(insert_audit("a4"));
  ASSERT_TRUE(first.ok()) << first.status();
  auto carried = assessor.Reassess(*first, *report);
  ASSERT_TRUE(carried.ok()) << carried.status();
  EXPECT_TRUE(carried->referential_check.ok());

  // A categorical relation naming a ward the Hospital dimension lacks.
  auto stray = md::CategoricalRelation::Create(
      "StrayWard",
      {md::CategoricalAttribute::Categorical("Ward", "Hospital", "Ward"),
       md::CategoricalAttribute::Plain("Note")});
  ASSERT_TRUE(stray.ok()) << stray.status();
  ASSERT_TRUE(stray->InsertText({"W99", "dangling"}).ok());
  ASSERT_TRUE((*ontology)->AddCategoricalRelation(std::move(*stray)).ok());
  const Status expected = (*ontology)->ValidateReferential();
  ASSERT_FALSE(expected.ok());

  auto second = first->ApplyUpdate(insert_audit("a5"));
  ASSERT_TRUE(second.ok()) << second.status();
  auto revalidated = assessor.Reassess(*second, *carried);
  ASSERT_TRUE(revalidated.ok()) << revalidated.status();
  EXPECT_EQ(revalidated->referential_check.ToString(), expected.ToString());
}

}  // namespace
}  // namespace mdqa
