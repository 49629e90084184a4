#ifndef MDQA_ANALYSIS_COST_MODEL_H_
#define MDQA_ANALYSIS_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "datalog/analysis.h"
#include "datalog/instance.h"
#include "datalog/program.h"

namespace mdqa::analysis {

/// Static cost model over program shape + EDB statistics, predicting the
/// relative work of the three query-answering strategies (paper §IV):
///
///  - **chase**: materialize everything, then evaluate. Cost scales with
///    the predicted materialized instance size, estimated per predicate
///    by iterating System-R-style join-size estimates (product of input
///    cardinalities divided, per repeated variable, by the largest
///    distinct-count among its positions) to a bounded fixpoint.
///    Non-weakly-acyclic programs get a large termination penalty: the
///    chase may not terminate, so materialization should only win when
///    nothing else is sound.
///  - **rewriting**: unfold the query against the TGDs, evaluate the UCQ
///    on the raw EDB. Cost scales with the per-predicate unfolding
///    breadth (how many rewritten disjuncts a goal atom can expand into)
///    times the evaluation cost of each disjunct on the EDB.
///  - **deterministic-ws**: top-down proof-schema search; same breadth as
///    rewriting with an extra factor for the proof-schema bookkeeping.
///
/// Costs are unitless, deterministic, saturating `uint64_t` work units —
/// a pure function of (rules, EDB statistics), never of evaluation
/// order, timing, or memory layout, so incremental and from-scratch
/// sessions holding the same fact multiset predict identical costs (the
/// byte-identity contract of the differential harnesses).
///
/// VLog's `costestimator.h`/`reasoner.h` pioneered this
/// materialize-vs-on-demand decision from exactly these ingredients.
class CostModel {
 public:
  CostModel(const datalog::Program& program,
            const datalog::ProgramAnalysis& analysis,
            datalog::InstanceStatistics edb_stats);

  /// Statistics of the program's own extensional facts (order-independent
  /// aggregates: row counts and per-position distinct counts):
  /// `Instance::FromProgram(program).CollectStatistics()`.
  static datalog::InstanceStatistics CollectEdbStats(
      const datalog::Program& program);

  /// Predicted size (facts) of the fully materialized chase instance.
  uint64_t PredictedChaseFacts() const { return predicted_chase_facts_; }

  /// Predicted work units per engine.
  uint64_t PredictedChaseCost() const { return chase_cost_; }
  uint64_t PredictedRewritingCost() const { return rewriting_cost_; }
  uint64_t PredictedWsCost() const { return ws_cost_; }

  /// Largest unfolding breadth of any predicate (the rewriter's disjunct
  /// blow-up factor), capped.
  uint64_t UnfoldingBreadth() const { return unfolding_breadth_; }

  /// Predicted materialized rows per predicate (EDB + derived).
  const std::unordered_map<uint32_t, uint64_t>& PredictedRows() const {
    return predicted_rows_;
  }

  /// Deterministic multi-line cost table for `mdqa_lint --analyze`: EDB
  /// statistics, per-predicate predicted sizes, and the three engine
  /// costs.
  std::string ToString(const datalog::Vocabulary& vocab) const;

 private:
  datalog::InstanceStatistics edb_stats_;
  std::unordered_map<uint32_t, uint64_t> predicted_rows_;
  uint64_t predicted_chase_facts_ = 0;
  uint64_t unfolding_breadth_ = 1;
  uint64_t avg_body_atoms_ = 1;
  uint64_t chase_cost_ = 0;
  uint64_t rewriting_cost_ = 0;
  uint64_t ws_cost_ = 0;
  bool weakly_acyclic_ = true;
};

}  // namespace mdqa::analysis

#endif  // MDQA_ANALYSIS_COST_MODEL_H_
