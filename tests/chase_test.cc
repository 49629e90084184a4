#include "datalog/chase.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "datalog/provenance.h"
#include "reference_chase.h"

namespace mdqa::datalog {
namespace {

struct ChaseRun {
  Program program;
  Instance instance;
  Result<ChaseStats> stats;
};

ChaseRun RunChase(const std::string& text,
             const ChaseOptions& options = ChaseOptions()) {
  auto p = Parser::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  Program program = std::move(p).value();
  Instance instance = Instance::FromProgram(program);
  Result<ChaseStats> stats = Chase::Run(program, &instance, options);
  return ChaseRun{std::move(program), std::move(instance), std::move(stats)};
}

size_t Count(const ChaseRun& run, const std::string& pred) {
  uint32_t id = run.program.vocab()->FindPredicate(pred);
  return id == StringPool::kNotFound ? 0 : run.instance.CountFacts(id);
}

TEST(Chase, PlainDatalogTransitiveClosure) {
  auto run = RunChase(
      "E(1, 2). E(2, 3). E(3, 4).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), E(Y, Z).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_TRUE(run.stats->reached_fixpoint);
  EXPECT_EQ(Count(run, "T"), 6u);  // 12 13 14 23 24 34
}

TEST(Chase, NaiveAndSemiNaiveAgree) {
  const char* text =
      "E(1, 2). E(2, 3). E(3, 4). E(4, 1).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z) :- T(X, Y), T(Y, Z).\n";
  ChaseOptions naive;
  naive.semi_naive = false;
  auto a = RunChase(text);
  auto b = RunChase(text, naive);
  ASSERT_TRUE(a.stats.ok());
  ASSERT_TRUE(b.stats.ok());
  EXPECT_EQ(Count(a, "T"), 16u);
  EXPECT_EQ(Count(a, "T"), Count(b, "T"));
  EXPECT_EQ(a.instance.ToString(), b.instance.ToString());
}

TEST(Chase, ExistentialCreatesNull) {
  auto run = RunChase(
      "Person(\"ann\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_EQ(run.stats->nulls_created, 1u);
  EXPECT_EQ(Count(run, "HasParent"), 1u);
  uint32_t pred = run.program.vocab()->FindPredicate("HasParent");
  EXPECT_TRUE(run.instance.Table(pred)->Row(0)[1].IsNull());
}

TEST(Chase, RestrictedChaseSkipsSatisfiedHeads) {
  // The head is already satisfied extensionally: no firing needed.
  auto run = RunChase(
      "Person(\"ann\"). HasParent(\"ann\", \"eve\").\n"
      "HasParent(X, Z) :- Person(X).\n");
  ASSERT_TRUE(run.stats.ok());
  EXPECT_EQ(run.stats->nulls_created, 0u);
  EXPECT_EQ(Count(run, "HasParent"), 1u);
}

TEST(Chase, InfiniteChaseHitsRoundBudget) {
  // R(x,y) -> exists z R(y,z): classic non-terminating chase.
  ChaseOptions options;
  options.max_rounds = 10;
  options.check_constraints = false;
  auto run = RunChase("R(1, 2).\nR(Y, Z) :- R(X, Y).\n", options);
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_FALSE(run.stats->reached_fixpoint);
  EXPECT_EQ(run.stats->rounds, 10u);
  EXPECT_EQ(Count(run, "R"), 11u);  // one new fact per level
}

TEST(Chase, MaxFactsBudget) {
  ChaseOptions options;
  options.max_facts = 5;
  auto run = RunChase("R(1, 2).\nR(Y, Z) :- R(X, Y).\n", options);
  ASSERT_FALSE(run.stats.ok());
  EXPECT_EQ(run.stats.status().code(), StatusCode::kResourceExhausted);
}

TEST(Chase, DerivationLevelsMatchRounds) {
  // Rules are applied in program order within a round, so C (listed
  // first) only sees B-facts in the *next* round: levels track rounds.
  auto run = RunChase(
      "A(1).\n"
      "C(X) :- B(X).\n"
      "B(X) :- A(X).\n");
  ASSERT_TRUE(run.stats.ok());
  const auto& vocab = *run.program.vocab();
  EXPECT_EQ(run.instance.Table(vocab.FindPredicate("A"))->Level(0), 0u);
  EXPECT_EQ(run.instance.Table(vocab.FindPredicate("B"))->Level(0), 1u);
  EXPECT_EQ(run.instance.Table(vocab.FindPredicate("C"))->Level(0), 2u);
}

TEST(Chase, SameRoundVisibilityInRuleOrder) {
  // Listed in dependency order, both derivations land in round one.
  auto run = RunChase(
      "A(1).\n"
      "B(X) :- A(X).\n"
      "C(X) :- B(X).\n");
  ASSERT_TRUE(run.stats.ok());
  const auto& vocab = *run.program.vocab();
  EXPECT_EQ(run.instance.Table(vocab.FindPredicate("B"))->Level(0), 1u);
  EXPECT_EQ(run.instance.Table(vocab.FindPredicate("C"))->Level(0), 1u);
}

TEST(Chase, MultiAtomHeadSharesNulls) {
  auto run = RunChase(
      "D(\"h\", \"d\", \"p\").\n"
      "IU(I, U), PU(U, D, P) :- D(I, D, P).\n");
  ASSERT_TRUE(run.stats.ok());
  EXPECT_EQ(run.stats->nulls_created, 1u);
  const auto& vocab = *run.program.vocab();
  const FactTable* iu = run.instance.Table(vocab.FindPredicate("IU"));
  const FactTable* pu = run.instance.Table(vocab.FindPredicate("PU"));
  ASSERT_EQ(iu->size(), 1u);
  ASSERT_EQ(pu->size(), 1u);
  EXPECT_EQ(iu->Row(0)[1], pu->Row(0)[0]);  // same labeled null
}

TEST(Chase, NegativeConstraintViolation) {
  auto run = RunChase(
      "P(\"x\"). Q(\"x\").\n"
      "! :- P(X), Q(X).\n");
  ASSERT_FALSE(run.stats.ok());
  EXPECT_EQ(run.stats.status().code(), StatusCode::kInconsistent);
  EXPECT_NE(run.stats.status().message().find("negative constraint"),
            std::string::npos);
}

TEST(Chase, NegativeConstraintOnDerivedFacts) {
  auto run = RunChase(
      "P(\"x\").\n"
      "Q(X) :- P(X).\n"
      "! :- Q(X).\n");
  ASSERT_FALSE(run.stats.ok());
  EXPECT_EQ(run.stats.status().code(), StatusCode::kInconsistent);
}

TEST(Chase, ConstraintCheckCanBeDisabled) {
  ChaseOptions options;
  options.check_constraints = false;
  auto run = RunChase("P(\"x\"). Q(\"x\").\n! :- P(X), Q(X).\n", options);
  EXPECT_TRUE(run.stats.ok());
}

TEST(Chase, EgdMergesNullWithConstant) {
  // The null invented for ann's parent is equated with "eve".
  auto run = RunChase(
      "Person(\"ann\"). Parent(\"ann\", \"eve\").\n"
      "HasParent(X, Z) :- Person(X).\n"
      "Y = Z :- Parent(X, Y), HasParent(X, Z).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  uint32_t pred = run.program.vocab()->FindPredicate("HasParent");
  const FactTable* t = run.instance.Table(pred);
  ASSERT_EQ(t->size(), 1u);
  EXPECT_TRUE(t->Row(0)[1].IsConstant());
  EXPECT_GE(run.stats->egd_merges, 1u);
}

TEST(Chase, EgdMergesTwoNulls) {
  auto run = RunChase(
      "P(\"a\"). Q(\"a\").\n"
      "R(X, Y) :- P(X).\n"
      "S(X, Y) :- Q(X).\n"
      "Y = Z :- R(X, Y), S(X, Z).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  const auto& vocab = *run.program.vocab();
  const FactTable* r = run.instance.Table(vocab.FindPredicate("R"));
  const FactTable* s = run.instance.Table(vocab.FindPredicate("S"));
  EXPECT_EQ(r->Row(0)[1], s->Row(0)[1]);  // unified to one null
}

TEST(Chase, EgdConstantClashIsInconsistent) {
  auto run = RunChase(
      "T(\"w1\", \"t1\"). T(\"w2\", \"t2\"). U(\"u\", \"w1\"). "
      "U(\"u\", \"w2\").\n"
      "A = B :- T(W, A), T(W2, B), U(X, W), U(X, W2).\n");
  ASSERT_FALSE(run.stats.ok());
  EXPECT_EQ(run.stats.status().code(), StatusCode::kInconsistent);
  EXPECT_NE(run.stats.status().message().find("EGD"), std::string::npos);
}

TEST(Chase, EgdPostModeMatchesInterleavedOnSeparablePrograms) {
  const char* text =
      "P(\"a\"). Parent(\"a\", \"e\").\n"
      "HasParent(X, Z) :- P(X).\n"
      "Y = Z :- Parent(X, Y), HasParent(X, Z).\n";
  ChaseOptions post;
  post.egd_mode = EgdMode::kPost;
  auto a = RunChase(text);
  auto b = RunChase(text, post);
  ASSERT_TRUE(a.stats.ok());
  ASSERT_TRUE(b.stats.ok());
  EXPECT_EQ(a.instance.ToString(), b.instance.ToString());
}

TEST(Chase, EgdOffModeLeavesNulls) {
  ChaseOptions off;
  off.egd_mode = EgdMode::kOff;
  auto run = RunChase(
      "P(\"a\"). Parent(\"a\", \"e\").\n"
      "HasParent(X, Z) :- P(X).\n"
      "Y = Z :- Parent(X, Y), HasParent(X, Z).\n",
      off);
  ASSERT_TRUE(run.stats.ok());
  uint32_t pred = run.program.vocab()->FindPredicate("HasParent");
  EXPECT_TRUE(run.instance.Table(pred)->Row(0)[1].IsNull());
}

TEST(Chase, EgdMergeEnablesFurtherTgdFirings) {
  // After the null is merged to "b", rule S fires on the joined value —
  // the semi-naive force-full-after-merge path.
  auto run = RunChase(
      "P(\"a\"). Eq(\"a\", \"b\"). W(\"b\").\n"
      "R(X, Y) :- P(X).\n"
      "Y = Z :- Eq(X, Z), R(X, Y).\n"
      "S(Y) :- R(X, Y), W(Y).\n");
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_EQ(Count(run, "S"), 1u);
}

TEST(Chase, SemiObliviousFiresUnconditionally) {
  // The head is already satisfied extensionally; the restricted chase
  // skips, the semi-oblivious chase fires anyway.
  ChaseOptions oblivious;
  oblivious.restricted = false;
  auto run = RunChase(
      "Person(\"ann\"). HasParent(\"ann\", \"eve\").\n"
      "HasParent(X, Z) :- Person(X).\n",
      oblivious);
  ASSERT_TRUE(run.stats.ok()) << run.stats.status();
  EXPECT_EQ(run.stats->nulls_created, 1u);
  EXPECT_EQ(Count(run, "HasParent"), 2u);  // eve + the fresh null
}

TEST(Chase, SemiObliviousTerminatesOnWeaklyAcyclic) {
  ChaseOptions oblivious;
  oblivious.restricted = false;
  auto run = RunChase(
      "A(1). A(2).\n"
      "B(X, Z) :- A(X).\n"
      "C(Y) :- B(X, Y).\n",
      oblivious);
  ASSERT_TRUE(run.stats.ok());
  EXPECT_TRUE(run.stats->reached_fixpoint);
  EXPECT_EQ(Count(run, "B"), 2u);
  EXPECT_EQ(Count(run, "C"), 2u);
}

TEST(Chase, RestrictedAndSemiObliviousCertainAnswersAgree) {
  const char* text =
      "PW(\"w1\", \"tom\"). UW(\"std\", \"w1\").\n"
      "PU(U, P) :- PW(W, P), UW(U, W).\n"
      "SH(W, N) :- PU(U, N), UW(U, W).\n";
  ChaseOptions oblivious;
  oblivious.restricted = false;
  auto a = RunChase(text);
  auto b = RunChase(text, oblivious);
  ASSERT_TRUE(a.stats.ok());
  ASSERT_TRUE(b.stats.ok());
  // No existentials here, so the instances coincide exactly.
  EXPECT_EQ(a.instance.ToString(), b.instance.ToString());
}

TEST(Chase, ComparisonsInRuleBodies) {
  auto run = RunChase(
      "V(1). V(2). V(3).\n"
      "Big(X) :- V(X), X >= 2.\n");
  ASSERT_TRUE(run.stats.ok());
  EXPECT_EQ(Count(run, "Big"), 2u);
}

TEST(Chase, ApplyEgdsStandalone) {
  auto p = Parser::ParseProgram(
      "F(\"k\", \"v1\").\n"
      "G(\"k\", Z) :- F(\"k\", Y).\n"
      "Y = Z :- F(X, Y), G(X, Z).\n");
  ASSERT_TRUE(p.ok());
  Instance instance = Instance::FromProgram(*p);
  ChaseOptions options;
  options.egd_mode = EgdMode::kOff;
  ASSERT_TRUE(Chase::Run(*p, &instance, options).ok());
  auto merges = Chase::ApplyEgds(*p, &instance);
  ASSERT_TRUE(merges.ok()) << merges.status();
  EXPECT_EQ(*merges, 1u);
}

TEST(Chase, CheckConstraintsStandalone) {
  auto p = Parser::ParseProgram("P(1).\n! :- P(X), X > 5.\n");
  ASSERT_TRUE(p.ok());
  Instance instance = Instance::FromProgram(*p);
  EXPECT_TRUE(Chase::CheckConstraints(*p, instance).ok());
  instance.AddFact(
      Atom(p->vocab()->FindPredicate("P"), {p->mutable_vocab()->Int(9)}), 0);
  EXPECT_EQ(Chase::CheckConstraints(*p, instance).code(),
            StatusCode::kInconsistent);
}

TEST(Chase, StatsToStringMentionsFixpoint) {
  auto run = RunChase("P(1).\nQ(X) :- P(X).\n");
  ASSERT_TRUE(run.stats.ok());
  EXPECT_NE(run.stats->ToString().find("fixpoint"), std::string::npos);
}

// ------------------------------------------- trigger pipeline vs reference

// One battery program. Chase::Run (and, where `delta` is set, Chase::Extend
// with those facts) must derive exactly the reference chase's facts, up to
// null renaming, in both storage modes.
struct BatteryCase {
  const char* name;
  const char* text;
  std::vector<const char*> delta;  // ground atoms for Extend; may be empty
  bool restricted = true;
  bool provenance = false;
};

const BatteryCase kBattery[] = {
    {"repeated_frontier_variable",
     "Q(1, 2). Q(3, 3). Q(4, 5). Q(2, 1).\n"
     "P(X, X) :- Q(X, Y).\n"
     "R(X, Y) :- Q(X, Y), Q(Y, X).\n"
     "S(X) :- P(X, X), Q(X, X).\n",
     {"Q(5, 5)", "Q(5, 4)"}},
    {"constants_in_head",
     "T(\"a\", 37). T(\"b\", 39). T(\"c\", 40).\n"
     "Tag(X, \"hot\", 1) :- T(X, V), V > 38.\n"
     "Tag(\"all\", X, 0) :- Tag(X, Y, 1).\n",
     {"T(\"d\", 41)"}},
    {"multi_atom_ground_head",
     "E(1, 2). E(2, 3). E(3, 1). Seen(2).\n"
     "Seen(X), Step(X, Y), Step(Y, X) :- E(X, Y).\n"
     "Reach(X, Z), Seen(Z) :- Step(X, Y), Step(Y, Z).\n",
     {"E(3, 4)"}},
    {"empty_frontier",
     "Q(1). Q(2).\n"
     "Flag(\"on\") :- Q(X).\n"
     "Flag(\"seen\") :- Flag(\"on\"), Q(3).\n",
     {"Q(3)"}},
    {"existential_head",
     "Person(\"ann\"). Person(\"bob\"). Parent(\"bob\", \"cy\").\n"
     "Parent(X, Z) :- Person(X).\n"
     "Known(Y) :- Parent(X, Y).\n"
     "Ward(W, Z), Unit(Z) :- Known(W).\n",
     {"Person(\"dee\")"}},
    {"semi_oblivious",
     "Person(\"ann\"). Person(\"bob\"). Parent(\"bob\", \"cy\").\n"
     "Parent(X, Z) :- Person(X).\n"
     "Known(Y) :- Parent(X, Y).\n",
     {},
     /*restricted=*/false},
    {"provenance",
     "E(1, 2). E(2, 3). E(3, 4).\n"
     "T(X, Y) :- E(X, Y).\n"
     "T(X, Z), Via(X, Y, \"hop\") :- T(X, Y), E(Y, Z).\n"
     "Root(X, Z) :- T(X, Y).\n",
     {},
     /*restricted=*/true,
     /*provenance=*/true},
    {"recursive_cycle",
     "E(1, 2). E(2, 3). E(3, 4). E(4, 2).\n"
     "T(X, Y) :- E(X, Y).\n"
     "T(X, Z) :- T(X, Y), T(Y, Z).\n",
     {"E(4, 5)", "E(5, 1)"}},
};

void PrintTo(const BatteryCase& c, std::ostream* os) { *os << c.name; }

class TriggerBattery : public ::testing::TestWithParam<BatteryCase> {};

// The reference chase's result for the program plus `delta`, rendered
// with canonical null names.
std::string ReferenceResult(const BatteryCase& c, bool with_delta) {
  auto p = Parser::ParseProgram(c.text);
  EXPECT_TRUE(p.ok()) << p.status();
  reference::FactSets facts = reference::ReferenceFacts(*p);
  if (with_delta) {
    for (const char* d : c.delta) {
      auto atom = Parser::ParseGroundAtom(d, p->mutable_vocab());
      EXPECT_TRUE(atom.ok()) << atom.status();
      facts[atom->predicate].insert(atom->terms);
    }
  }
  reference::ReferenceChase(*p, c.restricted, &facts);
  return reference::ToInstance(*p, facts).ToCanonicalString();
}

TEST_P(TriggerBattery, MatchesReferenceInBothStorageModes) {
  const BatteryCase& c = GetParam();
  const std::string reference = ReferenceResult(c, /*with_delta=*/false);
  std::vector<std::string> rendered;
  std::vector<std::string> stats;
  for (StorageMode mode : {StorageMode::kColumnar, StorageMode::kRow}) {
    SCOPED_TRACE(StorageModeToString(mode));
    auto p = Parser::ParseProgram(c.text);
    ASSERT_TRUE(p.ok()) << p.status();
    Instance instance = Instance::FromProgram(*p, mode);
    ProvenanceStore store;
    ChaseOptions options;
    options.restricted = c.restricted;
    if (c.provenance) options.provenance = &store;
    ChaseStats run;
    ASSERT_TRUE(Chase::Run(*p, &instance, options, &run).ok());
    ASSERT_TRUE(run.reached_fixpoint);
    EXPECT_EQ(instance.ToCanonicalString(), reference);
    EXPECT_EQ(run.facts_added, instance.TotalFacts() - p->facts().size());
    // A restricted firing always adds a fact: its head was unsatisfied.
    if (c.restricted) EXPECT_LE(run.tgd_firings, run.facts_added);
    rendered.push_back(instance.ToString());
    stats.push_back(run.ToString());
    if (c.provenance) {
      size_t derived = 0;
      for (uint32_t pred : instance.Predicates()) {
        for (const Atom& fact : instance.Facts(pred)) {
          if (std::find(p->facts().begin(), p->facts().end(), fact) !=
              p->facts().end()) {
            continue;
          }
          ++derived;
          EXPECT_NE(store.Find(fact), nullptr)
              << p->vocab()->AtomToString(fact);
        }
      }
      EXPECT_EQ(store.size(), derived);
    }
    if (c.delta.empty()) continue;

    // The extension shares Run's collect-and-apply step.
    std::vector<Atom> delta;
    for (const char* d : c.delta) {
      auto atom = Parser::ParseGroundAtom(d, p->mutable_vocab());
      ASSERT_TRUE(atom.ok()) << atom.status();
      delta.push_back(*atom);
    }
    ChaseStats extended;
    ASSERT_TRUE(Chase::Extend(*p, &instance, run.frontier, delta, options,
                              &extended)
                    .ok());
    ASSERT_TRUE(extended.reached_fixpoint);
    EXPECT_EQ(instance.ToCanonicalString(),
              ReferenceResult(c, /*with_delta=*/true));
  }
  // Same instance bytes and counters in either layout.
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_EQ(stats[0], stats[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Chase, TriggerBattery, ::testing::ValuesIn(kBattery),
    [](const ::testing::TestParamInfo<BatteryCase>& info) {
      return std::string(info.param.name);
    });

TEST(Chase, MaxFactsTripsAtTheSameFactCountInBothStorageModes) {
  // The two-atom head adds two facts per firing, so the cap can be
  // overshot by one; the trip point is a function of the canonical
  // firing order. The expected figures are those of the substitution-
  // based trigger pipeline this one replaced.
  const char* text =
      "E(1, 2). E(2, 3). E(3, 4). E(4, 5). E(5, 6). E(6, 7).\n"
      "T(X, Y) :- E(X, Y).\n"
      "T(X, Z), Hop(X, Y, Z) :- T(X, Y), E(Y, Z).\n"
      "Flag(\"long\") :- Hop(X, Y, Z), Hop(Z, U, W).\n";
  struct Expect {
    uint64_t max_facts;
    size_t total;
    uint64_t facts_added;
    uint64_t firings;
    uint64_t rounds;
  };
  const Expect kExpect[] = {{6, 7, 1, 1, 1},     {9, 10, 4, 4, 1},
                            {14, 16, 10, 8, 1},  {21, 22, 16, 11, 1},
                            {30, 31, 25, 16, 2}};
  for (const Expect& e : kExpect) {
    std::string rendered;
    for (StorageMode mode : {StorageMode::kColumnar, StorageMode::kRow}) {
      SCOPED_TRACE(std::to_string(e.max_facts) + " " +
                   StorageModeToString(mode));
      auto p = Parser::ParseProgram(text);
      ASSERT_TRUE(p.ok()) << p.status();
      Instance instance = Instance::FromProgram(*p, mode);
      ChaseOptions options;
      options.max_facts = e.max_facts;
      ChaseStats stats;
      ASSERT_TRUE(Chase::Run(*p, &instance, options, &stats).ok());
      EXPECT_EQ(stats.stop, ChaseStop::kFactLimit);
      EXPECT_EQ(stats.completeness, Completeness::kTruncated);
      EXPECT_EQ(instance.TotalFacts(), e.total);
      EXPECT_EQ(stats.facts_added, e.facts_added);
      EXPECT_EQ(stats.tgd_firings, e.firings);
      EXPECT_EQ(stats.rounds, e.rounds);
      if (rendered.empty()) {
        rendered = instance.ToString();
      } else {
        EXPECT_EQ(instance.ToString(), rendered);
      }
    }
  }
}

}  // namespace
}  // namespace mdqa::datalog
