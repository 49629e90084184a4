// Classification tests on the standard witness programs from the
// Datalog± literature (Cali-Gottlob-Pieris) plus the paper's MD rules.

#include "datalog/analysis.h"

#include <gtest/gtest.h>

#include "analysis/cost_model.h"
#include "datalog/parser.h"

namespace mdqa::datalog {
namespace {

ProgramAnalysis Analyze(const std::string& text) {
  auto p = Parser::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return ProgramAnalysis(*p);
}

TEST(Analysis, PlainDatalogIsEverything) {
  // No existentials: weakly acyclic, sticky head-propagation trivial.
  auto a = Analyze("T(X, Y) :- E(X, Y).\n");
  EXPECT_TRUE(a.IsLinear());
  EXPECT_TRUE(a.IsGuarded());
  EXPECT_TRUE(a.IsWeaklyAcyclic());
  EXPECT_TRUE(a.IsSticky());
  EXPECT_TRUE(a.IsWeaklySticky());
  EXPECT_TRUE(a.AffectedPositions().empty());
  EXPECT_TRUE(a.InfiniteRankPositions().empty());
}

TEST(Analysis, TransitiveClosureJoinIsNotLinear) {
  auto a = Analyze(
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  EXPECT_FALSE(a.IsLinear());
  EXPECT_TRUE(a.IsWeaklyAcyclic());
  // Y is marked (dropped from the head) and occurs twice -> not sticky.
  EXPECT_FALSE(a.IsSticky());
  // But every position has finite rank -> weakly sticky.
  EXPECT_TRUE(a.IsWeaklySticky());
}

TEST(Analysis, LinearExistentialChain) {
  // R(x,y) -> exists z R(y,z): infinite chase, linear, sticky.
  auto a = Analyze("R(Y, Z) :- R(X, Y).\n");
  EXPECT_TRUE(a.IsLinear());
  EXPECT_TRUE(a.IsGuarded());
  EXPECT_FALSE(a.IsWeaklyAcyclic());
  EXPECT_TRUE(a.IsSticky());  // X dropped but occurs once
  EXPECT_TRUE(a.IsWeaklySticky());
  EXPECT_EQ(a.InfiniteRankPositions().size(), 2u);  // R[0], R[1]
}

TEST(Analysis, AffectedPositionsPropagate) {
  auto a = Analyze(
      "P(X, Z) :- Q(X).\n"    // Z existential: P[1] affected
      "S(Y) :- P(X, Y).\n");  // Y only at affected P[1]: S[0] affected
  auto affected = a.AffectedPositions();
  ASSERT_EQ(affected.size(), 2u);
}

TEST(Analysis, NonAffectedWhenVariableAlsoAtSafePosition) {
  auto a = Analyze(
      "P(X, Z) :- Q(X).\n"
      "S(Y) :- P(X, Y), Q(Y).\n");  // Y also at Q[0], never affected
  // Only P[1] is affected.
  EXPECT_EQ(a.AffectedPositions().size(), 1u);
}

TEST(Analysis, StickyWitnessFromTheLiterature) {
  // Σ = { T(x,y),T(y,z) -> exists w T(w,x) } — the repeated variable y is
  // marked? y does not occur in the head, occurs twice -> NOT sticky.
  auto not_sticky = Analyze("T(W, X) :- T(X, Y), T(Y, Z).\n");
  EXPECT_FALSE(not_sticky.IsSticky());

  // Σ = { R(x,y) -> exists z R(y,z); R(x,y),R(y,x) -> S(x) } is handled
  // below; here the simple sticky case: join variable kept in the head.
  auto sticky = Analyze("S(X, Y, Z) :- R(X, Y), P(Y, Z).\n");
  EXPECT_TRUE(sticky.IsSticky());
}

TEST(Analysis, MarkingPropagatesThroughHeads) {
  // From CGP: r1: P(x,y) -> P2(y,x); r2: P2(x,y) -> Q(x).
  // In r2, y is dropped -> P2[1] is a marked position; back in r1 the
  // head variable x lands on P2[1], so x becomes marked in r1's body.
  auto a = Analyze(
      "P2(Y, X) :- P(X, Y).\n"
      "Q(X) :- P2(X, Y).\n");
  // x occurs once in r1's body, so the set is still sticky.
  EXPECT_TRUE(a.IsSticky());
  EXPECT_TRUE(a.IsMarkedIn(0, a.tgds()[0].BodyVariables()[0]) ||
              a.IsMarkedIn(0, a.tgds()[0].BodyVariables()[1]));
}

TEST(Analysis, WeaklyStickyButNotSticky) {
  // Repeated marked variable whose positions all have finite rank.
  auto a = Analyze(
      "S(X) :- R(X, Y), P(Y, Z).\n");  // Y,Z marked; Y repeated
  EXPECT_FALSE(a.IsSticky());
  EXPECT_TRUE(a.IsWeaklyAcyclic());  // no existentials at all here
  EXPECT_TRUE(a.IsWeaklySticky());
}

TEST(Analysis, NotWeaklySticky) {
  // The infinite-rank generator feeds the join positions: R's positions
  // have infinite rank, and the marked variable Y of the join rule
  // occurs only there.
  auto p = Parser::ParseProgram(
      "R(Y, Z) :- R(X, Y).\n"
      "Q(X) :- R(X, Y), R(Y, X2).\n");
  ASSERT_TRUE(p.ok());
  ProgramAnalysis a(*p);
  EXPECT_FALSE(a.IsWeaklyAcyclic());
  EXPECT_FALSE(a.IsSticky());
  EXPECT_FALSE(a.IsWeaklySticky());
  std::string report = a.Report(*p->vocab());
  EXPECT_NE(report.find("class"), std::string::npos);
  EXPECT_NE(report.find("violation"), std::string::npos);
}

TEST(Analysis, PaperRule7ShapeIsWeaklySticky) {
  // Rule (7) + (8): the W join is marked in (7) (W dropped from head),
  // repeated, but all positions are finite-rank (dimensions are closed).
  auto a = Analyze(
      "PatientUnit(U, D, P) :- PatientWard(W, D, P), UnitWard(U, W).\n"
      "Shifts(W, D, N, Z) :- WorkingSchedules(U, D, N, T), UnitWard(U, W).\n");
  EXPECT_FALSE(a.IsSticky());
  EXPECT_TRUE(a.IsWeaklySticky());
  EXPECT_TRUE(a.IsWeaklyAcyclic());
}

TEST(Analysis, GuardedDetection) {
  auto guarded = Analyze("S(X, Y) :- R(X, Y, Z), P(X, Y).\n");
  EXPECT_TRUE(guarded.IsGuarded());
  EXPECT_FALSE(guarded.IsLinear());
  auto unguarded = Analyze("S(X) :- R(X, Y), P(Y, Z).\n");
  EXPECT_FALSE(unguarded.IsGuarded());
}

TEST(Analysis, GuardedImpliesWeaklyGuarded) {
  auto a = Analyze("S(X, Y) :- R(X, Y, Z), P(X, Y).\n");
  EXPECT_TRUE(a.IsGuarded());
  EXPECT_TRUE(a.IsWeaklyGuarded());
}

TEST(Analysis, WeaklyGuardedButNotGuarded) {
  // Y is the only harmful variable (occurs only at the affected P[1]);
  // the P-atom guards it. X and W touch unaffected positions.
  auto a = Analyze(
      "P(X, Z) :- Q(X).\n"
      "S(X) :- P(X, Y), R(X, W).\n");
  EXPECT_FALSE(a.IsGuarded());
  EXPECT_TRUE(a.IsWeaklyGuarded());
}

TEST(Analysis, NotWeaklyGuarded) {
  // Two harmful variables (Y, Y2) never share an atom.
  auto a = Analyze(
      "P(X, Z) :- Q(X).\n"
      "S(X) :- P(X, Y), P(X, Y2).\n");
  EXPECT_FALSE(a.IsGuarded());
  EXPECT_FALSE(a.IsWeaklyGuarded());
  EXPECT_NE(a.ClassName().find("weakly"), std::string::npos);  // ws holds
}

TEST(Analysis, NoAffectedPositionsMakesEverythingWeaklyGuarded) {
  // Plain Datalog: no nulls anywhere, the empty harmful set is guarded
  // by any atom.
  auto a = Analyze("S(X) :- R(X, Y), P(Y, Z).\n");
  EXPECT_TRUE(a.IsWeaklyGuarded());
}

TEST(Analysis, WeakAcyclicityDistinguishesNormalCycles) {
  // A cycle through normal edges only is weakly acyclic.
  auto normal_cycle = Analyze(
      "A(X) :- B(X).\n"
      "B(X) :- A(X).\n");
  EXPECT_TRUE(normal_cycle.IsWeaklyAcyclic());

  // A cycle through a special edge is not.
  auto special_cycle = Analyze("A(Y, Z) :- A(X, Y).\n");
  EXPECT_FALSE(special_cycle.IsWeaklyAcyclic());

  // A frontier-free existential rule contributes no edges at all: the
  // restricted chase trivially terminates on it.
  auto frontier_free = Analyze("A(Y) :- A(X).\n");
  EXPECT_TRUE(frontier_free.IsWeaklyAcyclic());
}

TEST(Analysis, InfiniteRankPropagatesDownstream) {
  auto a = Analyze(
      "R(Y, Z) :- R(X, Y).\n"
      "S(X) :- R(X, Y).\n");  // S[0] fed from infinite-rank R[0]
  EXPECT_TRUE(a.IsInfiniteRank(
      Position{a.tgds()[1].head[0].predicate, 0}));
}

TEST(Analysis, ClassNameSummarizes) {
  EXPECT_NE(Analyze("T(X,Y) :- E(X,Y).").ClassName().find("linear"),
            std::string::npos);
  EXPECT_NE(Analyze("R(Y, Z) :- R(X, Y).\n"
                    "Q(X) :- R(X, Y), R(Y, X2).\n")
                .ClassName()
                .find("none"),
            std::string::npos);
}

TEST(Analysis, EgdsAndConstraintsAreIgnored) {
  auto a = Analyze(
      "T(X, Y) :- E(X, Y).\n"
      "X = Y :- E(X, Y), E(Y, X).\n"
      "! :- E(X, X).\n");
  EXPECT_EQ(a.tgds().size(), 1u);
  EXPECT_TRUE(a.IsSticky());
}

TEST(StickinessViolations, PerRulePerVariableWitnesses) {
  // Rule #1 joins the marked variable Y at two infinite-rank positions
  // (R[0] and R[1] both have infinite rank through rule #0's special
  // edges), so the witness breaks weak stickiness too.
  auto a = Analyze(
      "R(Y, Z) :- R(X, Y).\n"
      "Q(X) :- R(X, Y), R(Y, X2).\n");
  ASSERT_EQ(a.StickinessViolations().size(), 1u);
  const StickinessViolation& v = a.StickinessViolations()[0];
  EXPECT_EQ(v.rule_index, 1u);
  EXPECT_TRUE(v.breaks_weak_stickiness);
  ASSERT_EQ(v.positions.size(), 2u);
  // Body order: Y sits at R[1] of the first atom, R[0] of the second.
  EXPECT_EQ(v.positions[0].index, 1u);
  EXPECT_EQ(v.positions[1].index, 0u);
  for (Position p : v.positions) EXPECT_TRUE(a.IsInfiniteRank(p));
}

TEST(StickinessViolations, FiniteRankWitnessBreaksStickinessOnly) {
  // Transitive closure: Y is marked and repeated, but there are no
  // existentials so every position has finite rank.
  auto a = Analyze(
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  ASSERT_EQ(a.StickinessViolations().size(), 1u);
  EXPECT_EQ(a.StickinessViolations()[0].rule_index, 1u);
  EXPECT_FALSE(a.StickinessViolations()[0].breaks_weak_stickiness);
  EXPECT_FALSE(a.IsSticky());
  EXPECT_TRUE(a.IsWeaklySticky());
}

TEST(AnalysisReport, EmptyProgramSaysVacuous) {
  auto a = Analyze("P(\"a\").\n");
  EXPECT_EQ(a.Report(*Parser::ParseProgram("P(\"a\").")->vocab()),
            "class: (no TGDs — every class holds vacuously)\n");
}

TEST(AnalysisReport, RendersViolations) {
  auto p = Parser::ParseProgram(
      "R(Y, Z) :- R(X, Y).\n"
      "Q(X) :- R(X, Y), R(Y, X2).\n");
  ASSERT_TRUE(p.ok());
  std::string report = ProgramAnalysis(*p).Report(*p->vocab());
  EXPECT_NE(report.find("violation: rule #1"), std::string::npos);
  EXPECT_NE(report.find("repeated marked variable Y"), std::string::npos);
  EXPECT_NE(report.find("breaks weak stickiness"), std::string::npos);

  auto tc = Parser::ParseProgram(
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  ASSERT_TRUE(tc.ok());
  EXPECT_NE(ProgramAnalysis(*tc).Report(*tc->vocab())
                .find("breaks stickiness only"),
            std::string::npos);
}

// EDB statistics count each distinct fact once, give an arity-0 table
// one row and no positions, and see only the extensional rows of a
// predicate that is also a rule head.
TEST(CostModelEdbStats, PinnedOnDuplicatesArityZeroAndDerivedHeads) {
  auto p = Parser::ParseProgram(
      "E(\"a\", \"x\"). E(\"a\", \"x\"). E(\"b\", \"x\"). "
      "E(\"c\", \"y\").\n"
      "Flag(). Flag().\n"
      "T(\"a\"). T(\"a\").\n"
      "T(X) :- E(X, Y).\n");
  ASSERT_TRUE(p.ok()) << p.status();
  const InstanceStatistics stats = analysis::CostModel::CollectEdbStats(*p);
  const Vocabulary& vocab = *p->vocab();
  ASSERT_EQ(stats.tables.size(), 3u);
  const TableStatistics& e = stats.tables.at(vocab.FindPredicate("E"));
  EXPECT_EQ(e.rows, 3u);
  EXPECT_EQ(e.distinct, (std::vector<uint64_t>{3, 2}));
  const TableStatistics& flag = stats.tables.at(vocab.FindPredicate("Flag"));
  EXPECT_EQ(flag.rows, 1u);
  EXPECT_TRUE(flag.distinct.empty());
  const TableStatistics& t = stats.tables.at(vocab.FindPredicate("T"));
  EXPECT_EQ(t.rows, 1u);
  EXPECT_EQ(t.distinct, (std::vector<uint64_t>{1}));
  EXPECT_EQ(stats.total_facts, 5u);
  EXPECT_EQ(stats.max_rows, 3u);
}

}  // namespace
}  // namespace mdqa::datalog
