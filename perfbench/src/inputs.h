// Inputs and the benchmark's own truth model. Every input comes from
// testgen::ScenarioGenerator at the run's seed; the benchmark only picks
// which generated rows to ask about, in which order, and when to delete
// them again. Expected answers are computed here by filtering the
// generated rows and their recorded verdicts — never by the program.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "quality/context.h"
#include "testgen/scenario.h"

namespace perfbench {

/// Size of every generated scenario: measurement rows, entities, days.
inline constexpr int kRows = 6000;
inline constexpr int kEntities = 600;
inline constexpr int kDays = 10;

/// Update stream shape: each round is kRoundBatches - 1 insert batches of
/// kRowsPerBatch generated rows, then one batch deleting every row the
/// round inserted (which takes the recorded full re-chase fallback). A
/// round therefore ends where it began, and the stream cycles through
/// kDistinctRounds rounds of distinct generated rows.
inline constexpr int kRoundBatches = 8;
inline constexpr int kRowsPerBatch = 5;
inline constexpr int kDistinctRounds = 6;

/// The relation every scenario assesses.
inline constexpr const char* kRelation = "GMeasurements";

/// Scaled spec of `family` for the `assess` passes.
mdqa::testgen::ScenarioSpec AssessSpec(mdqa::testgen::ScenarioFamily family,
                                       uint32_t seed);
/// Scaled multi-dimensional spec the server serves, with its update
/// stream.
mdqa::testgen::ScenarioSpec ServeSpec(uint32_t seed);
/// Scenario stamp the server writes into its checkpoints.
std::string ServeScenarioName(uint32_t seed);

/// A field as the server renders it (numbers print as "%g").
std::string DisplayField(const std::string& field);

enum class QueryClass { kPointClean, kPointRaw, kAbsent, kProjection, kScan };
inline constexpr int kNumQueryClasses = 5;
const char* QueryClassName(QueryClass c);

struct QueryOp {
  QueryClass cls = QueryClass::kPointClean;
  std::string entity;  ///< point and absent lookups
  std::string text;    ///< Datalog query text
  bool clean = true;
  std::string body;    ///< JSON request body for POST /query
};

struct Row {
  std::string time, entity, value;  ///< display form
  std::vector<std::string> fields;  ///< as generated
  bool clean = false;
};

struct UpdateBatch {
  bool deletion = false;
  mdqa::quality::DeltaBatch delta;  ///< for in-process replay
  std::string body;                 ///< JSON request body for POST /update
};

/// Truth of the served scenario at every position of the update stream:
/// position n is the state after the first n batches.
class ServeTruth {
 public:
  /// Builds the model from a generated ServeSpec scenario; false with
  /// `*error` when the generated stream is not the shape ServeSpec asked
  /// for.
  static bool Build(const mdqa::testgen::GeneratedScenario& scenario,
                    ServeTruth* out, std::string* error);

  const UpdateBatch& BatchAt(uint64_t n) const;

  /// Expected answer tuples of `q` in state n, each rendered as its
  /// display fields joined by '\x1f', sorted.
  std::vector<std::string> Expected(const QueryOp& q, uint64_t n) const;

  /// Entity names of the scenario, ordered by index.
  const std::vector<std::string>& entities() const { return entities_; }
  /// Rows the generator produced initially.
  size_t initial_rows() const { return initial_.size(); }
  size_t initial_clean_rows() const;
  /// An entity with at least one clean row: the key of the first lookup
  /// after each server start.
  const std::string& probe_entity() const { return probe_entity_; }

 private:
  /// Rows inserted and not yet deleted in state n.
  std::vector<const Row*> Inserted(uint64_t n) const;

  std::vector<std::string> entities_;
  std::string probe_entity_;
  std::vector<Row> initial_;
  std::map<std::string, std::vector<size_t>> initial_by_entity_;
  std::set<std::string> initial_clean_entities_;
  std::vector<std::string> initial_clean_scan_;  ///< joined, unsorted
  /// Rows of each generated insert batch.
  std::vector<std::vector<Row>> inserted_;
  /// One full cycle of the stream: kDistinctRounds * kRoundBatches.
  std::vector<UpdateBatch> cycle_;
};

/// Seeded, endless read-only query mix of one client. Entity keys are
/// Zipf-skewed over a seed-permuted entity order; absent-key lookups use
/// a fresh key each time.
class QueryStream {
 public:
  QueryStream(uint32_t seed, int client, const ServeTruth* truth);
  QueryOp Next();

 private:
  const ServeTruth* truth_;
  std::mt19937 rng_;
  std::vector<double> cumulative_;
  std::vector<int> order_;
  int client_;
  uint64_t absent_ = 0;
};

/// Escapes `s` for a JSON string literal.
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
