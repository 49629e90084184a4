#include "datalog/program.h"

namespace mdqa::datalog {

Result<uint32_t> Vocabulary::InternPredicate(std::string_view name,
                                             size_t arity) {
  AssertOwnerThread();
  uint32_t existing = predicates_.Find(name);
  if (existing != StringPool::kNotFound) {
    if (arities_[existing] != arity) {
      return Status::InvalidArgument(
          "predicate '" + std::string(name) + "' used with arity " +
          std::to_string(arity) + " but declared with arity " +
          std::to_string(arities_[existing]));
    }
    return existing;
  }
  uint32_t id = predicates_.Intern(name);
  arities_.push_back(arity);
  return id;
}

Term Vocabulary::FreshVariable() {
  // The "$" prefix cannot be produced by the parser, so fresh variables
  // never collide with user variables.
  return Term::Variable(
      InternVariable("$v" + std::to_string(next_fresh_var_++)));
}

std::string Vocabulary::TermToString(Term t) const {
  switch (t.kind()) {
    case TermKind::kConstant:
      return constants_.Get(t.id()).ToLiteral();
    case TermKind::kVariable:
      return variables_.Get(t.id());
    case TermKind::kNull:
      return "_n" + std::to_string(t.id());
  }
  return "?";
}

std::string Vocabulary::TermToDisplayString(Term t) const {
  if (t.IsConstant()) return constants_.Get(t.id()).ToString();
  return TermToString(t);
}

std::string Vocabulary::AtomToString(const Atom& a) const {
  std::string out = predicates_.Get(a.predicate) + "(";
  for (size_t i = 0; i < a.terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += TermToString(a.terms[i]);
  }
  out += ")";
  return out;
}

std::string Vocabulary::ComparisonToString(const Comparison& c) const {
  return TermToString(c.lhs) + " " + CmpOpToString(c.op) + " " +
         TermToString(c.rhs);
}

std::string Vocabulary::RuleToString(const Rule& r) const {
  std::string out;
  switch (r.kind) {
    case RuleKind::kTgd:
      for (size_t i = 0; i < r.head.size(); ++i) {
        if (i > 0) out += ", ";
        out += AtomToString(r.head[i]);
      }
      break;
    case RuleKind::kEgd:
      out += TermToString(r.egd_lhs) + " = " + TermToString(r.egd_rhs);
      break;
    case RuleKind::kConstraint:
      out += "!";
      break;
  }
  out += " :- ";
  for (size_t i = 0; i < r.body.size(); ++i) {
    if (i > 0) out += ", ";
    out += AtomToString(r.body[i]);
  }
  for (const Atom& a : r.negated) {
    out += ", not " + AtomToString(a);
  }
  for (const Comparison& c : r.comparisons) {
    out += ", " + ComparisonToString(c);
  }
  out += ".";
  return out;
}

std::string Vocabulary::QueryToString(const ConjunctiveQuery& q) const {
  std::string out = q.name + "(";
  for (size_t i = 0; i < q.answer.size(); ++i) {
    if (i > 0) out += ", ";
    out += TermToString(q.answer[i]);
  }
  out += ") :- ";
  for (size_t i = 0; i < q.body.size(); ++i) {
    if (i > 0) out += ", ";
    out += AtomToString(q.body[i]);
  }
  for (const Atom& a : q.negated) {
    out += ", not " + AtomToString(a);
  }
  for (const Comparison& c : q.comparisons) {
    out += ", " + ComparisonToString(c);
  }
  out += ".";
  return out;
}

Status Program::AddRule(Rule rule) {
  MDQA_RETURN_IF_ERROR(rule.Validate());
  for (const Atom& a : rule.body) {
    if (a.arity() != vocab_->PredicateArity(a.predicate)) {
      return Status::Internal("body atom arity drift in rule '" + rule.label +
                              "'");
    }
  }
  rules_.push_back(std::move(rule));
  return Status::Ok();
}

Status Program::AddFact(Atom fact) {
  if (!fact.IsGround()) {
    return Status::InvalidArgument("fact must be ground: " +
                                   vocab_->AtomToString(fact));
  }
  facts_.push_back(std::move(fact));
  return Status::Ok();
}

std::vector<Rule> Program::Tgds() const {
  std::vector<Rule> out;
  for (const Rule& r : rules_) {
    if (r.IsTgd()) out.push_back(r);
  }
  return out;
}

std::vector<Rule> Program::Egds() const {
  std::vector<Rule> out;
  for (const Rule& r : rules_) {
    if (r.IsEgd()) out.push_back(r);
  }
  return out;
}

std::vector<Rule> Program::Constraints() const {
  std::vector<Rule> out;
  for (const Rule& r : rules_) {
    if (r.IsConstraint()) out.push_back(r);
  }
  return out;
}

std::string Program::ToString() const {
  std::string out;
  for (const Rule& r : rules_) {
    out += vocab_->RuleToString(r);
    out += '\n';
  }
  for (const Atom& f : facts_) {
    out += vocab_->AtomToString(f);
    out += ".\n";
  }
  return out;
}

}  // namespace mdqa::datalog
