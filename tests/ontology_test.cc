#include "core/md_ontology.h"

#include <gtest/gtest.h>

#include <string>

#include "datalog/analysis.h"
#include "datalog/chase.h"
#include "datalog/cq_eval.h"
#include "datalog/parser.h"
#include "testgen/scenario.h"

namespace mdqa::core {
namespace {

using md::CategoricalAttribute;
using md::CategoricalRelation;
using md::DimensionBuilder;

// A two-dimension skeleton: Geo (City -> Region) and Cal (Day -> Month).
std::shared_ptr<MdOntology> Skeleton() {
  auto ontology = std::make_shared<MdOntology>();
  auto geo = DimensionBuilder("Geo")
                 .Category("City")
                 .Category("Region")
                 .Edge("City", "Region")
                 .Member("City", "c1")
                 .Member("City", "c2")
                 .Member("Region", "r1")
                 .Link("c1", "r1")
                 .Link("c2", "r1")
                 .Build();
  EXPECT_TRUE(geo.ok()) << geo.status();
  EXPECT_TRUE(ontology->AddDimension(std::move(geo).value()).ok());
  auto cal = DimensionBuilder("Cal")
                 .Category("Day")
                 .Category("Month")
                 .Edge("Day", "Month")
                 .Member("Day", "d1")
                 .Member("Month", "m1")
                 .Link("d1", "m1")
                 .Build();
  EXPECT_TRUE(cal.ok()) << cal.status();
  EXPECT_TRUE(ontology->AddDimension(std::move(cal).value()).ok());

  auto sales_city = CategoricalRelation::Create(
      "SalesCity", {CategoricalAttribute::Categorical("City", "Geo", "City"),
                    CategoricalAttribute::Categorical("Day", "Cal", "Day"),
                    CategoricalAttribute::Plain("Amount")});
  EXPECT_TRUE(sales_city.ok());
  EXPECT_TRUE(sales_city->InsertText({"c1", "d1", "10"}).ok());
  EXPECT_TRUE(
      ontology->AddCategoricalRelation(std::move(sales_city).value()).ok());

  auto sales_region = CategoricalRelation::Create(
      "SalesRegion",
      {CategoricalAttribute::Categorical("Region", "Geo", "Region"),
       CategoricalAttribute::Categorical("Day", "Cal", "Day"),
       CategoricalAttribute::Plain("Amount")});
  EXPECT_TRUE(sales_region.ok());
  EXPECT_TRUE(
      ontology->AddCategoricalRelation(std::move(sales_region).value()).ok());
  return ontology;
}

TEST(MdOntology, DimensionNameCollisions) {
  auto ontology = Skeleton();
  auto dup = DimensionBuilder("Geo").Category("X").Build();
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(ontology->AddDimension(std::move(dup).value()).code(),
            StatusCode::kAlreadyExists);
  // Category name clashing with an existing predicate.
  auto clash = DimensionBuilder("Other").Category("City").Build();
  ASSERT_TRUE(clash.ok());
  EXPECT_EQ(ontology->AddDimension(std::move(clash).value()).code(),
            StatusCode::kAlreadyExists);
}

TEST(MdOntology, CategoricalRelationValidation) {
  auto ontology = Skeleton();
  auto bad_dim = CategoricalRelation::Create(
      "R1", {CategoricalAttribute::Categorical("x", "Nope", "City")});
  ASSERT_TRUE(bad_dim.ok());
  EXPECT_EQ(
      ontology->AddCategoricalRelation(std::move(bad_dim).value()).code(),
      StatusCode::kNotFound);
  auto bad_cat = CategoricalRelation::Create(
      "R2", {CategoricalAttribute::Categorical("x", "Geo", "Nope")});
  ASSERT_TRUE(bad_cat.ok());
  EXPECT_EQ(
      ontology->AddCategoricalRelation(std::move(bad_cat).value()).code(),
      StatusCode::kNotFound);
}

TEST(MdOntology, HasPredicateCoversAllKinds) {
  auto ontology = Skeleton();
  EXPECT_TRUE(ontology->HasPredicate("City"));        // category
  EXPECT_TRUE(ontology->HasPredicate("RegionCity"));  // edge
  EXPECT_TRUE(ontology->HasPredicate("SalesCity"));   // categorical relation
  EXPECT_FALSE(ontology->HasPredicate("Nothing"));
}

TEST(MdOntology, UpwardRuleClassification) {
  auto ontology = Skeleton();
  ASSERT_TRUE(ontology
                  ->AddDimensionalRule(
                      "SalesRegion(R, D, A) :- SalesCity(C, D, A), "
                      "RegionCity(R, C).")
                  .ok());
  const auto& rules = ontology->dimensional_rules();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].form, RuleForm::kForm4);
  EXPECT_EQ(rules[0].navigation, Navigation::kUpward);
}

TEST(MdOntology, DownwardRuleClassification) {
  auto ontology = Skeleton();
  ASSERT_TRUE(ontology
                  ->AddDimensionalRule(
                      "SalesCity(C, D, A) :- SalesRegion(R, D, A), "
                      "RegionCity(R, C).")
                  .ok());
  EXPECT_EQ(ontology->dimensional_rules()[0].navigation,
            Navigation::kDownward);
}

TEST(MdOntology, LateralRuleClassification) {
  auto ontology = Skeleton();
  ASSERT_TRUE(
      ontology->AddDimensionalRule("SalesCity(C, D, A) :- SalesCity(C, D, A).")
          .ok());
  EXPECT_EQ(ontology->dimensional_rules()[0].navigation, Navigation::kNone);
}

TEST(MdOntology, Form10Classification) {
  auto ontology = Skeleton();
  ASSERT_TRUE(ontology
                  ->AddDimensionalRule(
                      "RegionCity(R, C), SalesCity(C, D, A) :- "
                      "SalesRegion(R, D, A).")
                  .ok());
  const auto& r = ontology->dimensional_rules()[0];
  EXPECT_EQ(r.form, RuleForm::kForm10);
  EXPECT_EQ(r.navigation, Navigation::kDownward);
}

TEST(MdOntology, Form10LevelConditionRejected) {
  auto ontology = Skeleton();
  // Body at City level, head at Region level with existential region:
  // upward existential-categorical navigation is not form (10).
  Status s = ontology->AddDimensionalRule(
      "RegionCity(R, C), SalesRegion(R, D, A) :- SalesCity(C, D, A).");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(MdOntology, NonDimensionalBodyPredicateRejected) {
  auto ontology = Skeleton();
  Status s = ontology->AddDimensionalRule(
      "SalesRegion(R, D, A) :- External(R, D, A).");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("AddRawStatements"), std::string::npos);
}

TEST(MdOntology, CategoryHeadAtomRejected) {
  auto ontology = Skeleton();
  EXPECT_FALSE(
      ontology->AddDimensionalRule("City(C) :- SalesCity(C, D, A).").ok());
}

TEST(MdOntology, SharedPlainVariableRejectedInForm4) {
  auto ontology = Skeleton();
  // Joining on the non-categorical Amount attribute violates the paper's
  // side condition on form (4).
  Status s = ontology->AddDimensionalRule(
      "SalesRegion(R, D, A) :- SalesCity(C, D, A), SalesCity(C2, D2, A), "
      "RegionCity(R, C).");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("categorical"), std::string::npos);
}

TEST(MdOntology, ConstraintsValidated) {
  auto ontology = Skeleton();
  EXPECT_TRUE(ontology
                  ->AddDimensionalConstraint(
                      "! :- SalesCity(C, D, A), RegionCity(\"r1\", C).")
                  .ok());
  EXPECT_TRUE(ontology
                  ->AddDimensionalConstraint(
                      "A = A2 :- SalesCity(C, D, A), SalesCity(C, D2, A2).")
                  .ok());
  // A TGD is not a constraint.
  EXPECT_FALSE(
      ontology->AddDimensionalConstraint("SalesCity(C, D, A) :- SalesCity(C, D, A).").ok());
  // Non-dimensional predicate in the body.
  EXPECT_FALSE(
      ontology->AddDimensionalConstraint("! :- Foreign(X).").ok());
}

TEST(MdOntology, CompileContainsFactsAndRules) {
  auto ontology = Skeleton();
  ASSERT_TRUE(ontology
                  ->AddDimensionalRule(
                      "SalesRegion(R, D, A) :- SalesCity(C, D, A), "
                      "RegionCity(R, C).")
                  .ok());
  auto program = ontology->Compile();
  ASSERT_TRUE(program.ok()) << program.status();
  // Facts: City c1,c2; Region r1; Day d1; Month m1; RegionCity x2;
  // MonthDay x1; SalesCity x1  => 9.
  EXPECT_EQ(program->facts().size(), 9u);
  EXPECT_EQ(program->rules().size(), 1u);
}

TEST(MdOntology, RawStatementsFlowIntoCompile) {
  auto ontology = Skeleton();
  ASSERT_TRUE(ontology
                  ->AddRawStatements(
                      "Extra(\"x\").\nNote(C) :- SalesCity(C, D, A).")
                  .ok());
  auto program = ontology->Compile();
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->rules().size(), 1u);
  EXPECT_EQ(program->facts().size(), 10u);
}

TEST(MdOntology, ValidateReferentialAcrossRelations) {
  auto ontology = Skeleton();
  EXPECT_TRUE(ontology->ValidateReferential().ok());
  auto bad = CategoricalRelation::Create(
      "Bad", {CategoricalAttribute::Categorical("City", "Geo", "City")});
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(bad->InsertText({"ghost-city"}).ok());
  ASSERT_TRUE(ontology->AddCategoricalRelation(std::move(bad).value()).ok());
  EXPECT_EQ(ontology->ValidateReferential().code(),
            StatusCode::kInconsistent);
}

TEST(MdOntology, AnalyzeUpwardOnlyAndSeparability) {
  auto ontology = Skeleton();
  ASSERT_TRUE(ontology
                  ->AddDimensionalRule(
                      "SalesRegion(R, D, A) :- SalesCity(C, D, A), "
                      "RegionCity(R, C).")
                  .ok());
  ASSERT_TRUE(ontology
                  ->AddDimensionalConstraint(
                      "D = D2 :- SalesCity(C, D, A), SalesCity(C, D2, A2).")
                  .ok());
  auto props = ontology->Analyze();
  ASSERT_TRUE(props.ok()) << props.status();
  EXPECT_TRUE(props->weakly_sticky);
  EXPECT_TRUE(props->upward_only);
  EXPECT_FALSE(props->has_form10);
  EXPECT_TRUE(props->separable_egds);  // D, D2 at categorical positions
}

TEST(MdOntology, AnalyzeNonSeparableEgd) {
  auto ontology = Skeleton();
  // Equated variables at the plain Amount position: separability
  // shortcut must be off.
  ASSERT_TRUE(ontology
                  ->AddDimensionalConstraint(
                      "A = A2 :- SalesCity(C, D, A), SalesCity(C, D2, A2).")
                  .ok());
  auto props = ontology->Analyze();
  ASSERT_TRUE(props.ok());
  EXPECT_FALSE(props->separable_egds);
}

// Analyze classifies from the rules alone; on every generated family
// it must agree with the analysis of the fully compiled program (facts
// included).
TEST(MdOntology, AnalyzeMatchesCompiledProgramAnalysis) {
  for (testgen::ScenarioFamily family : testgen::kAllScenarioFamilies) {
    for (uint32_t seed : {0u, 1u}) {
      SCOPED_TRACE(std::string(testgen::ScenarioFamilyToString(family)) +
                   " seed " + std::to_string(seed));
      auto scenario =
          testgen::ScenarioGenerator::Generate(testgen::SpecFor(family, seed));
      ASSERT_TRUE(scenario.ok()) << scenario.status();
      const MdOntology& ontology = scenario->context.ontology();
      auto program = ontology.Compile();
      ASSERT_TRUE(program.ok()) << program.status();
      ASSERT_FALSE(program->facts().empty());
      const datalog::ProgramAnalysis compiled(*program);
      auto props = ontology.Analyze();
      ASSERT_TRUE(props.ok()) << props.status();
      EXPECT_EQ(props->weakly_sticky, compiled.IsWeaklySticky());
      EXPECT_EQ(props->sticky, compiled.IsSticky());
      EXPECT_EQ(props->weakly_acyclic, compiled.IsWeaklyAcyclic());
      EXPECT_EQ(props->class_name, compiled.ClassName());
      EXPECT_EQ(props->has_form10,
                family == testgen::ScenarioFamily::kDisjunctiveDownward);
    }
  }
}

TEST(MdOntology, EndToEndRollupQuery) {
  auto ontology = Skeleton();
  ASSERT_TRUE(ontology
                  ->AddDimensionalRule(
                      "SalesRegion(R, D, A) :- SalesCity(C, D, A), "
                      "RegionCity(R, C).")
                  .ok());
  auto program = ontology->Compile();
  ASSERT_TRUE(program.ok());
  datalog::Instance instance = datalog::Instance::FromProgram(*program);
  ASSERT_TRUE(datalog::Chase::Run(*program, &instance).ok());
  auto q = datalog::Parser::ParseQuery("Q(R, A) :- SalesRegion(R, D, A).",
                                       program->mutable_vocab());
  ASSERT_TRUE(q.ok());
  datalog::CqEvaluator eval(instance);
  auto answers = eval.Answers(*q);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
}

TEST(MdOntology, ToStringListsEverything) {
  auto ontology = Skeleton();
  ASSERT_TRUE(ontology
                  ->AddDimensionalRule(
                      "SalesRegion(R, D, A) :- SalesCity(C, D, A), "
                      "RegionCity(R, C).")
                  .ok());
  std::string s = ontology->ToString();
  EXPECT_NE(s.find("dimension Geo"), std::string::npos);
  EXPECT_NE(s.find("SalesCity"), std::string::npos);
  EXPECT_NE(s.find("form(4)"), std::string::npos);
  EXPECT_NE(s.find("upward"), std::string::npos);
}

}  // namespace
}  // namespace mdqa::core
