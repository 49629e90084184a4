#ifndef MDQA_DATALOG_JOIN_H_
#define MDQA_DATALOG_JOIN_H_

#include <functional>
#include <vector>

#include "base/budget.h"
#include "base/result.h"
#include "datalog/cq_eval.h"
#include "datalog/instance.h"
#include "datalog/unify.h"

namespace mdqa::datalog {

/// Vectorized (block-at-a-time) conjunctive-body join executor over
/// columnar fact tables — the engine behind `CqEvaluator` for
/// whole-relation enumerations (empty initial bindings) when the
/// instance uses `StorageMode::kColumnar`. Seeded point lookups stay on
/// the backtracking path: their per-run work cannot amortize the plan
/// compilation this executor performs up front (see the dispatch note
/// in cq_eval.cc).
///
/// The executor compiles the body once — atom order, per-position roles
/// (constant / bound slot / new slot / intra-atom repeat), and the depth
/// at which each comparison and negated atom first becomes decidable —
/// then pushes *blocks* of partial bindings through the pipeline. Each
/// depth resolves its candidates per binding from the segments'
/// dictionary postings (driver = the most selective bound position,
/// other bound positions verified by 4-byte code comparison), or, when
/// the incoming block is large relative to the table, from a batch hash
/// index built once over the in-window rows keyed on the bound-position
/// tuple — with full term verification of every bucket hit, since the
/// combined 64-bit keys can collide.
///
/// Order contract: the legacy backtracking evaluator's enumeration order
/// is a branch-independent function of (initial bindings, table sizes) —
/// its greedy atom choice never depends on candidate values, and its
/// candidate lists are always ascending row order. The executor fixes the
/// same atom order up front and emits candidates ascending per binding
/// (depth-first chunk flushes preserve lexicographic order), so
/// solutions, `EvalStats` counters, budget charging on the postings
/// path, and therefore every downstream artifact (Answers first-derived
/// order, EGD merge order, AssessmentReports) are identical to the row
/// store's. The row-vs-columnar differential harness
/// (tests/columnar_diff_test.cc) gates this byte-for-byte.
class BlockJoin {
 public:
  BlockJoin(const Instance& instance, EvalStats* stats,
            ExecutionBudget* budget)
      : instance_(instance), stats_(stats), budget_(budget) {}

  /// True when the executor reproduces the legacy enumeration for the
  /// given initial substitution: every binding must resolve to a ground
  /// term (variable-to-variable chains from two-way unification fall
  /// back to the backtracking path).
  static bool Supports(const Subst& initial);

  /// Same contract as CqEvaluator::Enumerate (which validates `windows`
  /// and performs the up-front budget poll before dispatching here).
  Status Run(const std::vector<Atom>& atoms, const std::vector<Atom>& negated,
             const std::vector<Comparison>& comparisons, const Subst& initial,
             const std::vector<AtomLevelWindow>& windows,
             const std::function<bool(const Subst&)>& on_match);

  /// Projection entry point: enumerates the body like `Run` from empty
  /// initial bindings, but adds only the slot values of `vars` (each a
  /// variable of some atom of `atoms`; `out->width() == vars.size()`) to
  /// `*out` — no substitution, no callback. Same contract as
  /// CqEvaluator::Project, which dispatches here.
  Status Project(const std::vector<Atom>& atoms,
                 const std::vector<Atom>& negated,
                 const std::vector<Comparison>& comparisons,
                 const std::vector<AtomLevelWindow>& windows,
                 const std::vector<uint32_t>& vars, TupleSet* out);

 private:
  const Instance& instance_;
  EvalStats* stats_;         // optional, not owned
  ExecutionBudget* budget_;  // optional, not owned
};

}  // namespace mdqa::datalog

#endif  // MDQA_DATALOG_JOIN_H_
