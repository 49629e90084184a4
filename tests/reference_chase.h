#ifndef MDQA_TESTS_REFERENCE_CHASE_H_
#define MDQA_TESTS_REFERENCE_CHASE_H_

// A naive nested-loop reference chase: the oracle the chase battery
// compares Chase::Run and Chase::Extend against. Every round re-matches
// every TGD body against every fact (no indexes, no level windows, no
// semi-naive deltas, no compiled heads) and fires the distinct frontier
// bindings in lexicographic order, restricted (skip a trigger whose head
// already maps into the facts) or semi-oblivious (each binding fires
// once). Programs with negation or EGDs are out of scope.

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "datalog/instance.h"
#include "datalog/program.h"
#include "datalog/unify.h"

namespace mdqa::datalog::reference {

using FactSets = std::map<uint32_t, std::set<std::vector<Term>>>;

// Calls `emit` with every extension of `*subst` that maps atoms[i..] into
// `facts`.
inline void MatchAll(const std::vector<Atom>& atoms, size_t i,
                     const FactSets& facts, Subst* subst,
                     const std::function<void(const Subst&)>& emit) {
  if (i == atoms.size()) {
    emit(*subst);
    return;
  }
  auto it = facts.find(atoms[i].predicate);
  if (it == facts.end()) return;
  for (const std::vector<Term>& row : it->second) {
    if (row.size() != atoms[i].terms.size()) continue;
    Subst extended = *subst;
    bool ok = true;
    for (size_t p = 0; p < row.size() && ok; ++p) {
      const Term t = Resolve(extended, atoms[i].terms[p]);
      if (t.IsVariable()) {
        extended[t.id()] = row[p];
      } else {
        ok = t == row[p];
      }
    }
    if (ok) MatchAll(atoms, i + 1, facts, &extended, emit);
  }
}

// Chases `facts` (which it extends) with `program`'s TGDs to the
// fixpoint, or for at most `max_rounds` rounds.
inline void ReferenceChase(const Program& program, bool restricted,
                           FactSets* facts, size_t max_rounds = 64) {
  Vocabulary* vocab = program.vocab().get();
  std::vector<std::set<std::vector<Term>>> fired(program.rules().size());
  for (size_t round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (size_t k = 0; k < program.rules().size(); ++k) {
      const Rule& rule = program.rules()[k];
      if (!rule.IsTgd()) continue;
      const std::vector<uint32_t> frontier = rule.FrontierVariables();
      std::set<std::vector<Term>> triggers;
      Subst empty;
      MatchAll(rule.body, 0, *facts, &empty, [&](const Subst& s) {
        for (const Comparison& c : rule.comparisons) {
          if (!EvalComparison(*vocab, c.op, Resolve(s, c.lhs),
                              Resolve(s, c.rhs))) {
            return;
          }
        }
        std::vector<Term> tuple;
        for (uint32_t v : frontier) {
          tuple.push_back(Resolve(s, Term::Variable(v)));
        }
        triggers.insert(tuple);
      });
      for (const std::vector<Term>& tuple : triggers) {
        Subst h;
        for (size_t i = 0; i < frontier.size(); ++i) h[frontier[i]] = tuple[i];
        if (restricted) {
          bool satisfied = false;
          Subst probe = h;
          MatchAll(rule.head, 0, *facts, &probe,
                   [&](const Subst&) { satisfied = true; });
          if (satisfied) continue;
        } else if (!fired[k].insert(tuple).second) {
          continue;
        }
        for (uint32_t z : rule.ExistentialVariables()) {
          h[z] = vocab->FreshNull();
        }
        for (const Atom& a : rule.head) {
          changed |= (*facts)[a.predicate].insert(SubstAtom(h, a).terms).second;
        }
      }
    }
    if (!changed) return;
  }
}

// `program`'s extensional facts as FactSets.
inline FactSets ReferenceFacts(const Program& program) {
  FactSets facts;
  for (const Atom& f : program.facts()) facts[f.predicate].insert(f.terms);
  return facts;
}

// The facts as an instance (every fact at level 0), for rendering.
inline Instance ToInstance(const Program& program, const FactSets& facts) {
  Instance out(program.vocab());
  for (const auto& [pred, rows] : facts) {
    for (const std::vector<Term>& row : rows) out.AddFact(Atom(pred, row), 0);
  }
  return out;
}

}  // namespace mdqa::datalog::reference

#endif  // MDQA_TESTS_REFERENCE_CHASE_H_
