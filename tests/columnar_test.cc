#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "datalog/chase.h"
#include "datalog/column.h"
#include "datalog/cq_eval.h"
#include "datalog/instance.h"
#include "datalog/parser.h"
#include "datalog/segment.h"

namespace mdqa::datalog {
namespace {

std::vector<uint32_t> Rows(std::span<const uint32_t> rows) {
  return std::vector<uint32_t>(rows.begin(), rows.end());
}

// ---------------------------------------------------------------- Column

TEST(Column, DictEncodesAndPostsAscending) {
  Column c;
  Term a = Term::Constant(1), b = Term::Constant(2);
  bool fresh = false;
  EXPECT_EQ(c.Append(a, &fresh), 0u);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(c.Append(b, &fresh), 1u);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(c.Append(a, &fresh), 0u);  // re-appearance reuses the code
  EXPECT_FALSE(fresh);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.DistinctTerms(), 2u);
  EXPECT_EQ(c.CodeOf(a), 0u);
  EXPECT_EQ(c.CodeOf(b), 1u);
  EXPECT_EQ(c.CodeOf(Term::Constant(99)), Column::kNoCode);
  EXPECT_EQ(Rows(c.Postings(0)), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Rows(c.Postings(1)), (std::vector<uint32_t>{1}));
  EXPECT_EQ(c.TermAt(2), a);
  EXPECT_EQ(c.TermOfCode(1), b);
  EXPECT_GT(c.MemoryEstimateBytes(), 0u);
}

// Satellite regression: with every encode-map key forced into one bucket,
// distinct terms still get distinct codes and CodeOf resolves each one —
// the dictionary verification, not the hash, must be load-bearing.
TEST(Column, TotalHashCollisionStillResolvesExactly) {
  Column c;
  c.set_hash_mask_for_test(0);
  constexpr int kTerms = 64;
  for (int i = 0; i < kTerms; ++i) {
    bool fresh = false;
    EXPECT_EQ(c.Append(Term::Constant(i), &fresh), static_cast<uint32_t>(i));
    EXPECT_TRUE(fresh);
  }
  for (int i = 0; i < kTerms; ++i) {
    bool fresh = true;
    c.Append(Term::Constant(i), &fresh);  // all duplicates
    EXPECT_FALSE(fresh);
  }
  EXPECT_EQ(c.DistinctTerms(), static_cast<size_t>(kTerms));
  for (int i = 0; i < kTerms; ++i) {
    EXPECT_EQ(c.CodeOf(Term::Constant(i)), static_cast<uint32_t>(i));
    EXPECT_EQ(Rows(c.Postings(i)),
              (std::vector<uint32_t>{static_cast<uint32_t>(i),
                                     static_cast<uint32_t>(i + kTerms)}));
  }
  EXPECT_EQ(c.CodeOf(Term::Constant(kTerms)), Column::kNoCode);
  // Nulls and constants with colliding masked hashes stay distinct too.
  EXPECT_EQ(c.CodeOf(Term::Null(0)), Column::kNoCode);
}

// Codes go from seen-once (row inline) to repeated (a pool block that is
// relocated as it fills, its old block recycled for other codes) at
// uneven rates; under total collision every code's postings must still
// list exactly its rows, ascending, after every append.
TEST(Column, PromotedCodesKeepAscendingPostingsUnderCollision) {
  Column c;
  c.set_hash_mask_for_test(0);
  constexpr int kTerms = 24;
  std::vector<std::vector<uint32_t>> expected(kTerms);
  uint32_t row = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < kTerms; ++i) {
      if (round % (i % 6 + 1) != 0) continue;
      c.Append(Term::Constant(i));
      expected[i].push_back(row++);
      const uint32_t code = c.CodeOf(Term::Constant(i));
      ASSERT_NE(code, Column::kNoCode);
      ASSERT_EQ(Rows(c.Postings(code)), expected[i]) << "term " << i;
    }
  }
  for (int i = 0; i < kTerms; ++i) {
    const uint32_t code = c.CodeOf(Term::Constant(i));
    EXPECT_EQ(code, static_cast<uint32_t>(i));
    EXPECT_EQ(Rows(c.Postings(code)), expected[i]) << "term " << i;
    EXPECT_TRUE(std::is_sorted(expected[i].begin(), expected[i].end()));
  }
  EXPECT_EQ(c.size(), row);
}

TEST(Column, MemoryEstimateGrowsWithRows) {
  Column c;
  uint64_t last = c.MemoryEstimateBytes();
  for (int step = 0; step < 3; ++step) {
    for (int i = 0; i < 1000; ++i) {
      c.Append(Term::Constant(step * 1000 + i % 700));
    }
    const uint64_t now = c.MemoryEstimateBytes();
    EXPECT_GT(now, last) << "step " << step;
    last = now;
  }
  // 3000 rows of 4-byte codes at the very least.
  EXPECT_GE(last, 3000u * sizeof(uint32_t));
}

// --------------------------------------------------------------- Segment

TEST(Segment, AppendsRowsColumnWise) {
  Segment s(2);
  Term r1[2] = {Term::Constant(1), Term::Constant(10)};
  Term r2[2] = {Term::Constant(1), Term::Constant(20)};
  uint8_t fresh[2] = {0, 0};
  s.Append(r1, fresh);
  EXPECT_EQ(fresh[0], 1);
  EXPECT_EQ(fresh[1], 1);
  s.Append(r2, fresh);
  EXPECT_EQ(fresh[0], 0);  // constant 1 already in column 0's dictionary
  EXPECT_EQ(fresh[1], 1);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.arity(), 2u);
  EXPECT_EQ(s.column(0).DistinctTerms(), 1u);
  EXPECT_EQ(s.column(1).DistinctTerms(), 2u);
  EXPECT_GT(s.MemoryEstimateBytes(), 0u);
}

// ----------------------------------------------------- FactTable columnar

TEST(FactTableColumnar, DefaultModeIsColumnar) {
  FactTable t(2);
  EXPECT_EQ(t.storage_mode(), StorageMode::kColumnar);
  EXPECT_EQ(t.NumSegments(), 1u);  // just the mutable overlay
  FactTable r(2, StorageMode::kRow);
  EXPECT_EQ(r.storage_mode(), StorageMode::kRow);
  EXPECT_EQ(r.NumSegments(), 0u);
}

TEST(FactTableColumnar, DuplicateInsertLowersLevel) {
  FactTable t(2);
  Term row[2] = {Term::Constant(1), Term::Constant(2)};
  EXPECT_TRUE(t.Insert(row, 3));
  EXPECT_FALSE(t.Insert(row, 5));
  EXPECT_EQ(t.Level(0), 3u);
  EXPECT_FALSE(t.Insert(row, 1));
  EXPECT_EQ(t.Level(0), 1u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FactTableColumnar, ArityZeroTable) {
  for (StorageMode mode : {StorageMode::kRow, StorageMode::kColumnar}) {
    FactTable t(0, mode);
    Term* row = nullptr;
    EXPECT_TRUE(t.Insert(row, 0));
    EXPECT_FALSE(t.Insert(row, 1));  // the single empty row is a duplicate
    EXPECT_EQ(t.size(), 1u);
    EXPECT_TRUE(t.Contains(row));
    EXPECT_EQ(t.DistinctAt(0), 0u);  // no positions
    EXPECT_GE(t.MemoryEstimateBytes(), 0u);
  }
}

TEST(FactTableColumnar, ProbeAndDistinctMatchRowMode) {
  FactTable col(2, StorageMode::kColumnar);
  FactTable row(2, StorageMode::kRow);
  for (int i = 0; i < 50; ++i) {
    Term r[2] = {Term::Constant(i % 5), Term::Constant(i)};
    EXPECT_EQ(col.Insert(r, 0), row.Insert(r, 0));
  }
  for (size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(col.DistinctAt(p), row.DistinctAt(p));
    for (int v = 0; v < 50; ++v) {
      Term t = Term::Constant(v);
      EXPECT_EQ(col.Probe(p, t), row.Probe(p, t));
      EXPECT_EQ(col.ProbeCount(p, t), row.ProbeCount(p, t));
    }
  }
  // Row mode always exposes a zero-copy list; single-segment columnar too.
  EXPECT_TRUE(row.ProbeRef(0, Term::Constant(1)).has_value());
  EXPECT_TRUE(col.ProbeRef(0, Term::Constant(1)).has_value());
  // An absent term yields an empty (but non-null) reference.
  ASSERT_TRUE(row.ProbeRef(0, Term::Constant(777)).has_value());
  EXPECT_TRUE(row.ProbeRef(0, Term::Constant(777))->empty());
}

// A table whose rows all live in its first segment hands out the
// column's own postings — repeated and seen-once terms alike — without
// copying them.
TEST(FactTableColumnar, SingleSegmentProbeRefIsZeroCopy) {
  FactTable t(2);
  for (int i = 0; i < 20; ++i) {
    Term r[2] = {Term::Constant(i % 4), Term::Constant(i)};
    t.Insert(r, 0);
  }
  ASSERT_EQ(t.NumSegments(), 1u);
  const Column& col0 = t.SegmentAt(0).segment->column(0);
  const Column& col1 = t.SegmentAt(0).segment->column(1);
  const auto repeated = t.ProbeRef(0, Term::Constant(3));
  ASSERT_TRUE(repeated.has_value());
  EXPECT_EQ(repeated->data(),
            col0.Postings(col0.CodeOf(Term::Constant(3))).data());
  EXPECT_EQ(Rows(*repeated), (std::vector<uint32_t>{3, 7, 11, 15, 19}));
  const auto once = t.ProbeRef(1, Term::Constant(5));
  ASSERT_TRUE(once.has_value());
  EXPECT_EQ(once->data(),
            col1.Postings(col1.CodeOf(Term::Constant(5))).data());
  EXPECT_EQ(Rows(*once), (std::vector<uint32_t>{5}));
}

TEST(FactTableColumnar, MemoryEstimateGrowsWithRows) {
  for (StorageMode mode : {StorageMode::kRow, StorageMode::kColumnar}) {
    FactTable t(2, mode);
    uint64_t last = t.MemoryEstimateBytes();
    for (int step = 0; step < 3; ++step) {
      for (int i = 0; i < 500; ++i) {
        Term r[2] = {Term::Constant(step * 500 + i), Term::Constant(i % 9)};
        t.Insert(r, 0);
      }
      const uint64_t now = t.MemoryEstimateBytes();
      EXPECT_GT(now, last) << StorageModeToString(mode) << " step " << step;
      last = now;
    }
  }
}

// Satellite regression: force total collision in every hash-keyed probe
// structure of BOTH layouts; exact-match behavior must be unchanged.
TEST(FactTableColumnar, TotalHashCollisionKeepsExactSemantics) {
  for (StorageMode mode : {StorageMode::kRow, StorageMode::kColumnar}) {
    FactTable t(2, mode);
    t.set_hash_mask_for_test(0);
    for (int i = 0; i < 32; ++i) {
      Term r[2] = {Term::Constant(i), Term::Constant(i % 3)};
      EXPECT_TRUE(t.Insert(r, 0)) << StorageModeToString(mode);
      EXPECT_FALSE(t.Insert(r, 0));  // duplicate despite colliding hash
    }
    EXPECT_EQ(t.size(), 32u);
    EXPECT_EQ(t.DistinctAt(0), 32u);
    EXPECT_EQ(t.DistinctAt(1), 3u);
    for (int i = 0; i < 32; ++i) {
      Term r[2] = {Term::Constant(i), Term::Constant(i % 3)};
      EXPECT_TRUE(t.Contains(r));
      EXPECT_EQ(t.ProbeCount(0, Term::Constant(i)), 1u);
    }
    Term absent[2] = {Term::Constant(99), Term::Constant(0)};
    EXPECT_FALSE(t.Contains(absent));
    EXPECT_TRUE(t.Probe(0, Term::Constant(99)).empty());
    EXPECT_EQ(t.ProbeCount(1, Term::Constant(0)), 11u);
  }
}

// -------------------------------------------------- sealing & segments

TEST(FactTableColumnar, SealOverlayBuildsSegmentChain) {
  FactTable t(2);
  for (int i = 0; i < 4; ++i) {
    Term r[2] = {Term::Constant(i % 2), Term::Constant(i)};
    t.Insert(r, 0);
  }
  t.MarkFrozen();
  t.SealOverlay();
  EXPECT_EQ(t.NumSegments(), 2u);  // sealed + fresh empty overlay
  EXPECT_EQ(t.SegmentAt(0).base, 0u);
  EXPECT_EQ(t.SegmentAt(0).segment->rows(), 4u);
  EXPECT_EQ(t.SegmentAt(1).base, 4u);
  EXPECT_EQ(t.SegmentAt(1).segment->rows(), 0u);

  // Overlay appends after the freeze land above the watermark and are
  // visible to probes alongside the sealed base, globally ascending.
  for (int i = 4; i < 8; ++i) {
    Term r[2] = {Term::Constant(i % 2), Term::Constant(i)};
    EXPECT_TRUE(t.Insert(r, 1));
  }
  EXPECT_EQ(t.frozen_rows(), 4u);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.Probe(0, Term::Constant(0)),
            (std::vector<uint32_t>{0, 2, 4, 6}));
  EXPECT_EQ(t.ProbeCount(0, Term::Constant(1)), 4u);
  EXPECT_EQ(t.DistinctAt(0), 2u);  // spans segments without double count
  EXPECT_EQ(t.DistinctAt(1), 8u);
  // Multi-segment gathers have no single contiguous list to reference.
  EXPECT_FALSE(t.ProbeRef(0, Term::Constant(0)).has_value());
  // Sealing the (now non-empty) overlay again grows the chain.
  t.SealOverlay();
  EXPECT_EQ(t.NumSegments(), 3u);
  EXPECT_EQ(t.Probe(0, Term::Constant(0)),
            (std::vector<uint32_t>{0, 2, 4, 6}));
}

TEST(FactTableColumnar, SealingEmptyOverlayIsNoOp) {
  FactTable t(1);
  Term r[1] = {Term::Constant(1)};
  t.Insert(r, 0);
  t.SealOverlay();
  size_t segments = t.NumSegments();
  t.SealOverlay();  // overlay empty: nothing to seal
  EXPECT_EQ(t.NumSegments(), segments);
}

// Joins/probes against a table whose sealed chain contains rows but whose
// overlay is empty (the steady state after Instance::Freeze).
TEST(FactTableColumnar, EmptyOverlayProbes) {
  FactTable t(2);
  Term r[2] = {Term::Constant(1), Term::Constant(2)};
  t.Insert(r, 0);
  t.SealOverlay();
  EXPECT_TRUE(t.Contains(r));
  EXPECT_EQ(t.ProbeCount(0, Term::Constant(1)), 1u);
  Term r2[2] = {Term::Constant(1), Term::Constant(3)};
  EXPECT_FALSE(t.Contains(r2));
  EXPECT_TRUE(t.Probe(1, Term::Constant(3)).empty());
}

// ------------------------------------------------------ Instance::Freeze

TEST(InstanceColumnar, FreezeSealsUnsharedTables) {
  auto p = Parser::ParseProgram("P(\"a\"). P(\"b\"). Q(\"a\", \"b\").");
  ASSERT_TRUE(p.ok());
  Instance inst = Instance::FromProgram(*p);
  EXPECT_EQ(inst.storage_mode(), StorageMode::kColumnar);
  uint32_t pred = p->vocab()->FindPredicate("P");
  EXPECT_EQ(inst.Table(pred)->NumSegments(), 1u);
  inst.Freeze();
  EXPECT_EQ(inst.Table(pred)->NumSegments(), 2u);
  EXPECT_EQ(inst.Table(pred)->frozen_rows(), 2u);
}

TEST(InstanceColumnar, FreezeLeavesSharedTablesUnsealed) {
  auto p = Parser::ParseProgram("P(\"a\"). P(\"b\").");
  ASSERT_TRUE(p.ok());
  Instance inst = Instance::FromProgram(*p);
  Instance snapshot = inst.Snapshot();  // shares every table
  uint32_t pred = p->vocab()->FindPredicate("P");
  ASSERT_TRUE(inst.SharesTableWith(snapshot, pred));
  inst.Freeze();
  // The watermark is set, but the shared table must not restructure its
  // segment chain under a concurrent snapshot reader.
  EXPECT_EQ(inst.Table(pred)->frozen_rows(), 2u);
  EXPECT_EQ(inst.Table(pred)->NumSegments(), 1u);
  // Once the snapshot is the only holder... (mutating through inst first
  // clones the table, after which Freeze can seal the private copy).
  Atom extra(pred, {inst.vocab()->Const(Value::Str("c"))});
  EXPECT_TRUE(inst.AddFact(extra, 0));
  ASSERT_FALSE(inst.SharesTableWith(snapshot, pred));
  inst.Freeze();
  EXPECT_EQ(inst.Table(pred)->NumSegments(), 2u);
  // The snapshot still sees exactly its two original facts.
  EXPECT_EQ(snapshot.CountFacts(pred), 2u);
  EXPECT_EQ(inst.CountFacts(pred), 3u);
}

TEST(InstanceColumnar, MemoryEstimateCoversBothLayouts) {
  auto p = Parser::ParseProgram("P(\"a\"). P(\"b\"). Q(\"a\", \"b\").");
  ASSERT_TRUE(p.ok());
  Instance col = Instance::FromProgram(*p, StorageMode::kColumnar);
  Instance row = Instance::FromProgram(*p, StorageMode::kRow);
  EXPECT_GT(col.MemoryEstimateBytes(), 0u);
  EXPECT_GT(row.MemoryEstimateBytes(), 0u);
}

// ----------------------------------------- row vs columnar equivalence

constexpr char kProgram[] = R"(
  Edge("a", "b"). Edge("b", "c"). Edge("c", "d"). Edge("a", "c").
  Label("a", "x"). Label("b", "y"). Label("c", "x"). Label("d", "y").
  Path(u, v) :- Edge(u, v).
  Path(u, w) :- Path(u, v), Edge(v, w).
  Same(u, v) :- Label(u, l), Label(v, l).
)";

TEST(RowColumnarEquivalence, ChaseAndAnswersAgree) {
  auto p = Parser::ParseProgram(kProgram);
  ASSERT_TRUE(p.ok());
  Instance col = Instance::FromProgram(*p, StorageMode::kColumnar);
  Instance row = Instance::FromProgram(*p, StorageMode::kRow);
  ChaseOptions options;
  ASSERT_TRUE(Chase::Run(*p, &col, options).ok());
  ASSERT_TRUE(Chase::Run(*p, &row, options).ok());
  ASSERT_EQ(col.TotalFacts(), row.TotalFacts());
  // Row order (= derivation order) must match fact by fact, not just as
  // sets: downstream first-derived ordering keys off it.
  for (uint32_t pred : col.Predicates()) {
    std::vector<Atom> cf = col.Facts(pred);
    std::vector<Atom> rf = row.Facts(pred);
    ASSERT_EQ(cf.size(), rf.size());
    for (size_t i = 0; i < cf.size(); ++i) EXPECT_EQ(cf[i], rf[i]);
    const FactTable* ct = col.Table(pred);
    const FactTable* rt = row.Table(pred);
    for (uint32_t i = 0; i < ct->size(); ++i) {
      EXPECT_EQ(ct->Level(i), rt->Level(i));
    }
  }

  // CQ evaluation: answers, their order, and the EvalStats counters must
  // coincide (the vectorized executor reproduces the backtracking path).
  auto q = Parser::ParseQuery("Ans(u, v) :- Path(u, v), Same(u, v).",
                              p->mutable_vocab());
  ASSERT_TRUE(q.ok());
  EvalStats col_stats, row_stats;
  CqEvaluator col_eval(col, &col_stats, nullptr);
  CqEvaluator row_eval(row, &row_stats, nullptr);
  auto col_ans = col_eval.Answers(*q);
  auto row_ans = row_eval.Answers(*q);
  ASSERT_TRUE(col_ans.ok());
  ASSERT_TRUE(row_ans.ok());
  ASSERT_EQ(col_ans->size(), row_ans->size());
  for (size_t i = 0; i < col_ans->size(); ++i) {
    EXPECT_EQ((*col_ans)[i], (*row_ans)[i]);
  }
  EXPECT_EQ(col_stats.solutions, row_stats.solutions);
  EXPECT_EQ(col_stats.rows_tried, row_stats.rows_tried);
  EXPECT_EQ(col_stats.atoms_matched, row_stats.atoms_matched);
  EXPECT_EQ(col_stats.index_probes, row_stats.index_probes);
  EXPECT_EQ(col_stats.full_scans, row_stats.full_scans);
}

TEST(RowColumnarEquivalence, NegationAndComparisonsAgree) {
  auto p = Parser::ParseProgram(kProgram);
  ASSERT_TRUE(p.ok());
  Instance col = Instance::FromProgram(*p, StorageMode::kColumnar);
  Instance row = Instance::FromProgram(*p, StorageMode::kRow);
  ChaseOptions options;
  ASSERT_TRUE(Chase::Run(*p, &col, options).ok());
  ASSERT_TRUE(Chase::Run(*p, &row, options).ok());
  auto q = Parser::ParseQuery(
      "Ans(u, v) :- Path(u, v), not Edge(u, v), u != v.",
      p->mutable_vocab());
  ASSERT_TRUE(q.ok());
  CqEvaluator col_eval(col, nullptr, nullptr);
  CqEvaluator row_eval(row, nullptr, nullptr);
  auto col_ans = col_eval.Answers(*q);
  auto row_ans = row_eval.Answers(*q);
  ASSERT_TRUE(col_ans.ok());
  ASSERT_TRUE(row_ans.ok());
  ASSERT_EQ(col_ans->size(), row_ans->size());
  for (size_t i = 0; i < col_ans->size(); ++i) {
    EXPECT_EQ((*col_ans)[i], (*row_ans)[i]);
  }
}

// The columnar chase after a Freeze probes across a sealed chain; results
// must still match a never-frozen run exactly.
TEST(RowColumnarEquivalence, ChaseOverSealedBaseAgrees) {
  auto p = Parser::ParseProgram(kProgram);
  ASSERT_TRUE(p.ok());
  Instance sealed = Instance::FromProgram(*p, StorageMode::kColumnar);
  sealed.Freeze();  // EDB becomes a sealed segment; chase appends overlay
  Instance plain = Instance::FromProgram(*p, StorageMode::kColumnar);
  ChaseOptions options;
  ASSERT_TRUE(Chase::Run(*p, &sealed, options).ok());
  ASSERT_TRUE(Chase::Run(*p, &plain, options).ok());
  ASSERT_EQ(sealed.TotalFacts(), plain.TotalFacts());
  for (uint32_t pred : plain.Predicates()) {
    std::vector<Atom> a = sealed.Facts(pred);
    std::vector<Atom> b = plain.Facts(pred);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

// Regression: the block executor's batch-hash probe must survive a chunk
// flush in the middle of a bucket. The shape below forces the middle atom
// onto the hash path (low-distinct bound position, incoming chunk of 8)
// with buckets wider than one output chunk, so the recursive flush into
// the third atom runs — and historically clobbered the shared scratch
// buffer the bucket verification read from, silently dropping the rest of
// the bucket (2 facts per chase pass in the wild).
TEST(RowColumnarEquivalence, HashProbeSurvivesMidBucketFlush) {
  std::string text;
  for (int i = 0; i < 10; ++i) {
    text += "R(\"x" + std::to_string(i) + "\", \"" +
            (i % 2 == 0 ? std::string("a") : std::string("b")) + "\").\n";
  }
  for (const char* y : {"a", "b"}) {
    for (int k = 0; k < 10; ++k) {
      text += "S(\"" + std::string(y) + "\", \"z" + std::to_string(k) +
              "\").\n";
    }
  }
  for (int k = 0; k < 10; ++k) {
    for (int j = 0; j < 3; ++j) {
      text += "T(\"z" + std::to_string(k) + "\", \"w" + std::to_string(k) +
              "_" + std::to_string(j) + "\").\n";
    }
  }
  auto p = Parser::ParseProgram(text);
  ASSERT_TRUE(p.ok());
  auto q = Parser::ParseQuery("Ans(X, Y, Z, W) :- R(X, Y), S(Y, Z), T(Z, W).",
                              p->mutable_vocab());
  ASSERT_TRUE(q.ok());

  std::vector<std::vector<std::pair<uint32_t, Term>>> per_mode[2];
  for (StorageMode mode : {StorageMode::kRow, StorageMode::kColumnar}) {
    Instance instance = Instance::FromProgram(*p, mode);
    CqEvaluator eval(instance);
    auto& solutions = per_mode[mode == StorageMode::kColumnar ? 1 : 0];
    auto collect = [&](const Subst& s) {
      std::vector<std::pair<uint32_t, Term>> tuple(s.begin(), s.end());
      std::sort(tuple.begin(), tuple.end());
      solutions.push_back(std::move(tuple));
      return true;
    };
    ASSERT_TRUE(
        eval.Enumerate(q->body, q->negated, q->comparisons, {}, {}, collect)
            .ok());
  }
  // Every R row joins 10 S rows on y, each of which joins 3 T rows on z.
  ASSERT_EQ(per_mode[0].size(), 300u);
  ASSERT_EQ(per_mode[1].size(), per_mode[0].size());
  for (size_t i = 0; i < per_mode[0].size(); ++i) {
    EXPECT_EQ(per_mode[1][i], per_mode[0][i]);
  }
}

}  // namespace
}  // namespace mdqa::datalog
