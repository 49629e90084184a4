#include "datalog/chase.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "datalog/analysis.h"
#include "datalog/provenance.h"

namespace mdqa::datalog {

namespace {

// A head atom compiled against its rule's frontier: position p takes the
// trigger's frontier binding `from[p]`, or the term `fixed[p]` when
// `from[p]` is negative.
struct HeadTemplate {
  uint32_t predicate = 0;
  std::vector<int32_t> from;
  std::vector<Term> fixed;

  // Writes the ground head row of the trigger `frontier` into `*row`.
  void Fill(const Term* frontier, std::vector<Term>* row) const {
    row->resize(from.size());
    for (size_t p = 0; p < from.size(); ++p) {
      (*row)[p] = from[p] >= 0 ? frontier[from[p]] : fixed[p];
    }
  }
};

// Per-rule structure compiled once per Run/Extend call.
struct CompiledRule {
  const Rule* rule = nullptr;
  std::vector<uint32_t> frontier;
  std::vector<uint32_t> existential;
  // One template per head atom when the rule has no existential
  // variables (every head atom is ground once the frontier is bound);
  // empty otherwise.
  std::vector<HeadTemplate> ground_head;
  // Semi-oblivious mode: the frontier bindings that already fired,
  // across rounds (full passes would otherwise refire them forever).
  TupleSet fired{0};
};

CompiledRule CompileRule(const Rule& rule) {
  CompiledRule cr;
  cr.rule = &rule;
  cr.frontier = rule.FrontierVariables();
  cr.existential = rule.ExistentialVariables();
  cr.fired = TupleSet(cr.frontier.size());
  if (!cr.existential.empty()) return cr;
  for (const Atom& atom : rule.head) {
    HeadTemplate h;
    h.predicate = atom.predicate;
    h.from.assign(atom.terms.size(), -1);
    h.fixed.assign(atom.terms.size(), Term());
    for (size_t p = 0; p < atom.terms.size(); ++p) {
      const Term t = atom.terms[p];
      if (t.IsGround()) {
        h.fixed[p] = t;
        continue;
      }
      // No existentials: every head variable is a frontier variable.
      const auto it =
          std::find(cr.frontier.begin(), cr.frontier.end(), t.id());
      h.from[p] = static_cast<int32_t>(it - cr.frontier.begin());
    }
    cr.ground_head.push_back(std::move(h));
  }
  return cr;
}

// The partition pivot of a parallel full pass: the body atom with the
// largest table (most seeds, so the cheapest residual join per seed).
size_t LargestBodyAtom(const Instance& instance, const Rule& rule) {
  size_t pivot = 0;
  uint32_t best = 0;
  for (size_t j = 0; j < rule.body.size(); ++j) {
    const FactTable* t = instance.Table(rule.body[j].predicate);
    const uint32_t sz = t != nullptr ? t->size() : 0;
    if (sz > best) {
      best = sz;
      pivot = j;
    }
  }
  return pivot;
}

// The state of one Run or Extend call — stats, the first interruption,
// the running fact count — and the collect-and-apply step both drive
// once per rule and round.
class ChaseDriver {
 public:
  ChaseDriver(Instance* instance, const ChaseOptions& options,
              ChaseStats* stats)
      : instance_(instance),
        options_(options),
        budget_(options.budget),
        stats_(stats) {}

  bool interrupted() const { return !interrupt_.ok(); }
  const Status& interrupt() const { return interrupt_; }

  // Routes a budget trip into the interrupt; returns non-OK only for hard
  // (non-truncation) faults, e.g. an injected kInternal.
  Status Absorb(Status s) {
    if (s.ok() || interrupted()) return Status::Ok();
    if (ExecutionBudget::IsTruncation(s)) {
      const ChaseStop reason = s.code() == StatusCode::kCancelled
                                   ? ChaseStop::kCancelled
                                   : ChaseStop::kBudget;
      NoteInterrupt(std::move(s), reason);
      return Status::Ok();
    }
    return s;
  }

  // One rule in one round at `level`: collects the rule's triggers — one
  // full pass, or one semi-naive pass per body atom d (atom d restricted
  // to the previous round's facts, atoms before d to strictly older
  // ones) — then applies them in canonical order. A non-null
  // `delta_preds` skips the passes whose pivot predicate is not in it
  // (their window is empty). Every new fact sets `*changed` and, when
  // `added` is non-null, records its predicate there.
  Status Step(CompiledRule* cr, uint32_t level, bool full_pass,
              const std::unordered_set<uint32_t>* delta_preds,
              std::unordered_set<uint32_t>* added, bool* changed) {
    const Rule& rule = *cr->rule;
    TupleSet triggers(cr->frontier.size());
    if (full_pass) {
      const size_t pivot = options_.pool != nullptr
                               ? LargestBodyAtom(*instance_, rule)
                               : 0;
      MDQA_RETURN_IF_ERROR(Absorb(Collect(*cr, {}, pivot, &triggers)));
    } else {
      // The delta atom is the natural partition pivot: its window is
      // exactly the last round's new facts.
      const uint32_t prev = level - 1;
      for (size_t d = 0; d < rule.body.size() && !interrupted(); ++d) {
        if (delta_preds != nullptr &&
            delta_preds->count(rule.body[d].predicate) == 0) {
          continue;
        }
        std::vector<AtomLevelWindow> windows(rule.body.size());
        for (size_t j = 0; j < rule.body.size(); ++j) {
          if (j < d) {
            windows[j].max_level = prev > 0 ? prev - 1 : 0;
            if (prev == 0) windows[j].min_level = 1;  // empty window
          } else if (j == d) {
            windows[j].min_level = prev;
            windows[j].max_level = prev;
          }  // j > d: unrestricted (everything known so far)
        }
        MDQA_RETURN_IF_ERROR(Absorb(Collect(*cr, windows, d, &triggers)));
      }
    }
    if (interrupted()) return Status::Ok();
    return Apply(cr, triggers, level, added, changed);
  }

 private:
  // Records the first truncation; a non-OK interrupt means "stop
  // gracefully, the result is a sound partial instance".
  void NoteInterrupt(Status s, ChaseStop reason) {
    if (interrupt_.ok()) {
      interrupt_ = std::move(s);
      stats_->stop = reason;
    }
  }

  // Collects the frontier projections of one enumeration pass into
  // `*out`. Matching must not observe concurrent mutation, so the whole
  // pass runs before any trigger is applied.
  //
  // Serial path (no pool, pivot table missing, or fewer candidate rows
  // than `min_parallel_seeds`): one CqEvaluator::Project — the columnar
  // block join, or the backtracking evaluator on row storage.
  //
  // Parallel path: the pivot atom's in-window rows are strided across
  // shards run on the pool. Each shard grounds the pivot atom against
  // its rows (MatchAtom) and projects the *full* body under the same
  // windows with that ground seed, so every homomorphism it finds has
  // the pivot bound to exactly that row; the union of the shard sets is
  // therefore the serial set. The instance is read-only throughout and
  // the budget's counters are atomic, so shards share both safely. A
  // counter trip can land on any shard — the first non-OK status in
  // shard order is returned, and the merged set is then a subset of the
  // serial one (sound: a truncated chase is an under-approximation
  // either way).
  Status Collect(const CompiledRule& cr,
                 const std::vector<AtomLevelWindow>& windows, size_t pivot,
                 TupleSet* out) const {
    const Rule& rule = *cr.rule;
    auto serial = [&]() {
      CqEvaluator eval(*instance_, nullptr, budget_);
      return eval.Project(rule.body, rule.negated, rule.comparisons,
                          Subst{}, windows, cr.frontier, out);
    };
    ThreadPool* pool = options_.pool;
    if (pool == nullptr || rule.body.empty()) return serial();
    const Atom& pivot_atom = rule.body[pivot];
    const FactTable* table = instance_->Table(pivot_atom.predicate);
    if (table == nullptr) return serial();  // empty body relation

    uint32_t min_level = 0;
    uint32_t max_level = std::numeric_limits<uint32_t>::max();
    if (!windows.empty()) {
      min_level = windows[pivot].min_level;
      max_level = windows[pivot].max_level;
    }
    std::vector<uint32_t> seeds;
    seeds.reserve(table->size());
    for (uint32_t r = 0; r < table->size(); ++r) {
      const uint32_t lvl = table->Level(r);
      if (lvl >= min_level && lvl <= max_level) seeds.push_back(r);
    }
    if (seeds.size() < std::max<uint64_t>(options_.min_parallel_seeds, 1)) {
      return serial();
    }

    // A few shards per worker so uneven seed costs still balance.
    const size_t shards = std::min(seeds.size(), pool->size() * 4);
    std::vector<TupleSet> local(shards, TupleSet(cr.frontier.size()));
    std::vector<Status> shard_status(shards, Status::Ok());
    pool->ParallelFor(shards, [&](size_t s) {
      CqEvaluator shard_eval(*instance_, nullptr, budget_);
      Subst subst;
      std::vector<uint32_t> trail;
      for (size_t k = s; k < seeds.size(); k += shards) {
        subst.clear();
        trail.clear();
        if (!MatchAtom(pivot_atom, table->Row(seeds[k]), &subst, &trail)) {
          continue;  // pivot constants don't match this row
        }
        Status es = shard_eval.Project(rule.body, rule.negated,
                                       rule.comparisons, subst, windows,
                                       cr.frontier, &local[s]);
        if (!es.ok()) {
          shard_status[s] = std::move(es);
          return;
        }
      }
    });
    for (size_t s = 0; s < shards; ++s) {
      MDQA_RETURN_IF_ERROR(shard_status[s]);
    }
    for (const TupleSet& l : local) out->InsertAll(l);
    return Status::Ok();
  }

  // Applies the collected triggers. Canonical order: sorted on their
  // frontier bindings (Term::operator< is total), which makes the firing
  // order — and with it null numbering, restricted-chase skips, and the
  // final instance — a function of the trigger *set* alone, independent
  // of enumeration order and thread count: the parallel chase is
  // bit-identical to the serial one.
  //
  // Restricted chase: a trigger is skipped when its head is already
  // satisfied (facts fired earlier this round count, so equivalent
  // triggers cost one null tuple, not many). A rule without existential
  // variables checks and fires its compiled ground head rows directly;
  // existential heads, provenance and the semi-oblivious fired set take
  // the substitution path.
  Status Apply(CompiledRule* cr, const TupleSet& triggers, uint32_t level,
               std::unordered_set<uint32_t>* added, bool* changed) {
    const Rule& rule = *cr->rule;
    const bool ground_path = !cr->ground_head.empty() &&
                             options_.restricted &&
                             options_.provenance == nullptr;
    CqEvaluator eval(*instance_, nullptr, budget_);
    Vocabulary* vocab = instance_->vocab().get();
    total_facts_ = instance_->TotalFacts();
    std::vector<Term> row;
    // The probe is polled once per 16 triggers through a local tick (the
    // first trigger always polls, so armed faults and expired deadlines
    // still surface deterministically); ChargeFacts stays per-fact so
    // fact caps trip exactly.
    uint32_t trigger_tick = 0;
    for (uint32_t t : triggers.SortedOrder()) {
      if (budget_ != nullptr && (trigger_tick++ & 15u) == 0) {
        MDQA_RETURN_IF_ERROR(Absorb(budget_->Check("chase:trigger")));
      }
      if (interrupted()) break;
      const Term* tuple = triggers.at(t);
      if (ground_path) {
        // The per-check poll of the CqEvaluator probe this replaces.
        if (budget_ != nullptr) {
          MDQA_RETURN_IF_ERROR(Absorb(budget_->Check("cq:row")));
          if (interrupted()) break;
        }
        bool satisfied = true;
        for (const HeadTemplate& h : cr->ground_head) {
          h.Fill(tuple, &row);
          const FactTable* table = instance_->Table(h.predicate);
          if (table == nullptr || !table->Contains(row.data())) {
            satisfied = false;
            break;
          }
        }
        if (satisfied) continue;
        ++stats_->tgd_firings;
        for (const HeadTemplate& h : cr->ground_head) {
          h.Fill(tuple, &row);
          if (instance_->MutableTable(h.predicate, row.size())
                  ->Insert(row.data(), level)) {
            MDQA_RETURN_IF_ERROR(NoteNewFact(h.predicate, added, changed));
          }
        }
      } else {
        Subst h;
        for (size_t i = 0; i < cr->frontier.size(); ++i) {
          h[cr->frontier[i]] = tuple[i];
        }
        if (options_.restricted) {
          Result<bool> satisfied = eval.Satisfiable(rule.head, {}, h);
          if (!satisfied.ok()) {
            MDQA_RETURN_IF_ERROR(Absorb(satisfied.status()));
            break;
          }
          if (*satisfied) continue;
        } else if (!cr->fired.Insert(tuple)) {
          continue;  // semi-oblivious: this frontier already fired
        }

        // Ground body witness for provenance, found against the
        // pre-firing instance (opt-in: one extra evaluation per firing).
        std::vector<Atom> witness;
        if (options_.provenance != nullptr) {
          Status ws = eval.Enumerate(
              rule.body, rule.negated, rule.comparisons, h, {},
              [&](const Subst& theta) {
                witness.reserve(rule.body.size());
                for (const Atom& b : rule.body) {
                  witness.push_back(SubstAtom(theta, b));
                }
                return false;  // first witness suffices
              });
          if (!ws.ok()) {
            MDQA_RETURN_IF_ERROR(Absorb(std::move(ws)));
            break;
          }
        }

        for (uint32_t z : cr->existential) {
          h[z] = vocab->FreshNull();
          ++stats_->nulls_created;
        }
        ++stats_->tgd_firings;
        for (const Atom& head_atom : rule.head) {
          Atom fact = SubstAtom(h, head_atom);
          if (instance_->AddFact(fact, level)) {
            MDQA_RETURN_IF_ERROR(NoteNewFact(fact.predicate, added, changed));
            if (options_.provenance != nullptr) {
              options_.provenance->Record(
                  fact, ProvenanceStore::Derivation{rule, witness});
            }
          }
        }
      }
      if (total_facts_ > options_.max_facts) {
        NoteInterrupt(
            Status::ResourceExhausted(
                "chase exceeded max_facts=" +
                std::to_string(options_.max_facts) + " at round " +
                std::to_string(level)),
            ChaseStop::kFactLimit);
        break;
      }
    }
    return Status::Ok();
  }

  Status NoteNewFact(uint32_t predicate, std::unordered_set<uint32_t>* added,
                     bool* changed) {
    ++stats_->facts_added;
    ++total_facts_;
    *changed = true;
    if (added != nullptr) added->insert(predicate);
    return budget_ != nullptr ? Absorb(budget_->ChargeFacts(1))
                              : Status::Ok();
  }

  Instance* instance_;
  const ChaseOptions& options_;
  ExecutionBudget* budget_;
  ChaseStats* stats_;
  Status interrupt_ = Status::Ok();
  // Instance::TotalFacts as of the running Apply, kept by NoteNewFact.
  size_t total_facts_ = 0;
};

// Union-find over terms for EGD application. Constants are always roots;
// merging two constants is the caller's inconsistency case.
class TermUnionFind {
 public:
  Term Find(Term t) {
    auto it = parent_.find(t.Key());
    if (it == parent_.end()) return t;
    Term root = Find(it->second);
    it->second = root;  // path compression
    return root;
  }

  // Pre: at least one of a, b is a labeled null (after Find).
  void Union(Term a, Term b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (a.IsNull()) {
      parent_[a.Key()] = b;
    } else {
      parent_[b.Key()] = a;
    }
  }

  bool empty() const { return parent_.empty(); }

 private:
  std::unordered_map<uint64_t, Term> parent_;
};

// Rewrites the whole instance through `uf`, keeping the minimum level of
// merged duplicates. Only called when at least one merge happened.
Instance Canonicalize(const Instance& in, TermUnionFind* uf) {
  Instance out(in.vocab(), in.storage_mode());
  for (uint32_t pred : in.Predicates()) {
    const FactTable* table = in.Table(pred);
    const size_t arity = table->arity();
    std::vector<Term> row(arity);
    for (uint32_t i = 0; i < table->size(); ++i) {
      const Term* src = table->Row(i);
      for (size_t j = 0; j < arity; ++j) row[j] = uf->Find(src[j]);
      out.MutableTable(pred, arity)->Insert(row.data(), table->Level(i));
    }
  }
  // The rebuilt instance replaces `in` at the call sites; keep the
  // generation monotone so a frontier captured against `in` can never
  // collide with a later capture against the rebuilt object.
  out.EnsureGenerationAbove(in.generation());
  return out;
}

std::string WitnessString(const Vocabulary& vocab, const Rule& rule,
                          const Subst& subst) {
  std::string out = "rule [" + vocab.RuleToString(rule) + "] with ";
  bool first = true;
  for (const Atom& a : rule.body) {
    out += (first ? "" : ", ");
    out += vocab.AtomToString(SubstAtom(subst, a));
    first = false;
  }
  return out;
}

}  // namespace

const char* ChaseStopToString(ChaseStop stop) {
  switch (stop) {
    case ChaseStop::kNone:
      return "none";
    case ChaseStop::kRoundLimit:
      return "round-limit";
    case ChaseStop::kFactLimit:
      return "fact-limit";
    case ChaseStop::kBudget:
      return "budget";
    case ChaseStop::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::string ChaseFrontier::ToString() const {
  if (!valid) return "frontier: invalid";
  return "frontier: round=" + std::to_string(round) +
         " nulls=" + std::to_string(null_watermark) +
         " egd_merges=" + std::to_string(egd_merges) +
         " generation=" + std::to_string(generation) +
         " predicates=" + std::to_string(watermarks.size());
}

std::string ChaseStats::ToString() const {
  std::string out = "rounds=" + std::to_string(rounds) +
                    " firings=" + std::to_string(tgd_firings) +
                    " facts_added=" + std::to_string(facts_added) +
                    " nulls=" + std::to_string(nulls_created) +
                    " egd_merges=" + std::to_string(egd_merges);
  if (completeness == Completeness::kComplete) {
    out += reached_fixpoint ? " (fixpoint, complete)" : " (complete)";
  } else {
    out += " (truncated: ";
    out += ChaseStopToString(stop);
    out += ")";
  }
  if (incremental) {
    out += extend_fallback
               ? " [incremental: full re-chase fallback — " + fallback_reason +
                     "]"
               : " [incremental]";
  }
  return out;
}

namespace {

// Records the resume state of a completed run into `stats->frontier` and
// freezes the instance's segments — the capture point for Chase::Extend.
void CaptureFrontier(Instance* instance, ChaseStats* stats) {
  ChaseFrontier& f = stats->frontier;
  f.valid = true;
  f.round = stats->rounds;
  f.null_watermark = instance->vocab()->NumNulls();
  f.egd_merges = stats->egd_merges;
  f.generation = instance->generation();
  f.watermarks.clear();
  for (uint32_t pred : instance->Predicates()) {
    f.watermarks[pred] = static_cast<uint32_t>(instance->CountFacts(pred));
  }
  instance->Freeze();
}

}  // namespace

Result<ChaseStats> Chase::Run(const Program& program, Instance* instance,
                              const ChaseOptions& options) {
  ChaseStats stats;
  MDQA_RETURN_IF_ERROR(Run(program, instance, options, &stats));
  // The legacy contract: blowing max_facts is a hard error (the new
  // out-param overload reports it as truncation metadata instead).
  if (stats.stop == ChaseStop::kFactLimit) return stats.interruption;
  return stats;
}

Status Chase::Run(const Program& program, Instance* instance,
                  const ChaseOptions& options, ChaseStats* stats) {
  *stats = ChaseStats{};
  ExecutionBudget* budget = options.budget;
  ChaseDriver driver(instance, options, stats);

  std::vector<CompiledRule> rules;
  for (const Rule& r : program.rules()) {
    if (!r.IsTgd()) continue;
    MDQA_RETURN_IF_ERROR(r.Validate());
    rules.push_back(CompileRule(r));
  }

  // Stratified negation: group rules by the stratum of their head
  // predicates and run strata to fixpoint in order — a rule only negates
  // predicates from strictly lower (already fixed) strata, keeping the
  // evaluation monotone within each stratum. Negation-free programs get
  // a single stratum and behave exactly as before.
  std::unordered_map<uint32_t, int> strata_of;
  MDQA_ASSIGN_OR_RETURN(strata_of, StratifyProgram(program));
  auto rule_stratum = [&strata_of](const Rule& r) {
    int s = 0;
    for (const Atom& h : r.head) {
      auto it = strata_of.find(h.predicate);
      if (it != strata_of.end()) s = std::max(s, it->second);
    }
    return s;
  };
  int max_stratum = 0;
  for (const CompiledRule& cr : rules) {
    max_stratum = std::max(max_stratum, rule_stratum(*cr.rule));
  }
  std::vector<std::vector<CompiledRule*>> by_stratum(
      static_cast<size_t>(max_stratum) + 1);
  for (CompiledRule& cr : rules) {
    by_stratum[static_cast<size_t>(rule_stratum(*cr.rule))].push_back(&cr);
  }

  if (options.egd_mode == EgdMode::kInterleaved) {
    Result<uint64_t> merges = ApplyEgds(program, instance, budget);
    if (!merges.ok()) {
      MDQA_RETURN_IF_ERROR(driver.Absorb(merges.status()));
    } else {
      stats->egd_merges += *merges;
    }
  }

  // EGD merges rewrite existing facts in place (keeping their old levels),
  // which delta windows would miss; the round after a merge runs naive.
  bool force_full = false;
  uint64_t round = 0;  // global across strata: levels stay monotone
  bool budget_exhausted = false;

  for (const std::vector<CompiledRule*>& stratum_rules : by_stratum) {
  if (budget_exhausted || driver.interrupted()) break;
  bool stratum_start = true;
  while (true) {
    if (++round > options.max_rounds) {
      --round;
      budget_exhausted = true;
      break;
    }
    if (budget != nullptr) {
      Status bs = budget->CheckNow("chase:round");
      if (bs.ok()) bs = budget->ChargeRounds(1);
      MDQA_RETURN_IF_ERROR(driver.Absorb(std::move(bs)));
      if (driver.interrupted()) break;
    }
    const uint32_t level = static_cast<uint32_t>(round);
    const bool full_pass =
        stratum_start || !options.semi_naive || force_full;
    stratum_start = false;
    force_full = false;
    bool changed = false;

    for (CompiledRule* cr : stratum_rules) {
      if (driver.interrupted()) break;
      MDQA_RETURN_IF_ERROR(driver.Step(cr, level, full_pass,
                                       /*delta_preds=*/nullptr,
                                       /*added=*/nullptr, &changed));
    }
    if (driver.interrupted()) break;

    if (options.egd_mode == EgdMode::kInterleaved) {
      Result<uint64_t> merges = ApplyEgds(program, instance, budget);
      if (!merges.ok()) {
        MDQA_RETURN_IF_ERROR(driver.Absorb(merges.status()));
        break;
      }
      stats->egd_merges += *merges;
      if (*merges > 0) {
        changed = true;
        force_full = true;
      }
    }
    // Estimating memory walks the whole instance, so only pay for it
    // when a limit was actually configured.
    if (budget != nullptr && budget->has_memory_limit()) {
      MDQA_RETURN_IF_ERROR(
          driver.Absorb(budget->NoteMemory(instance->MemoryEstimateBytes())));
      if (driver.interrupted()) break;
    }

    stats->rounds = round;
    if (!changed) break;  // this stratum reached its fixpoint
  }
  }
  stats->rounds = round;
  stats->reached_fixpoint = !budget_exhausted && !driver.interrupted();

  // Post-phase EGDs and the constraint check still run on the legacy
  // round-limit path (unchanged behaviour) but not after a budget trip:
  // the caller asked us to stop working.
  if (!driver.interrupted() && options.egd_mode == EgdMode::kPost) {
    Result<uint64_t> merges = ApplyEgds(program, instance, budget);
    if (!merges.ok()) {
      MDQA_RETURN_IF_ERROR(driver.Absorb(merges.status()));
    } else {
      stats->egd_merges += *merges;
    }
  }
  if (!driver.interrupted() && options.check_constraints) {
    MDQA_RETURN_IF_ERROR(
        driver.Absorb(CheckConstraints(program, *instance, budget)));
  }

  if (driver.interrupted()) {
    stats->reached_fixpoint = false;
    stats->completeness = Completeness::kTruncated;
    stats->interruption = driver.interrupt();
    return Status::Ok();
  }
  if (budget_exhausted) {
    stats->completeness = Completeness::kTruncated;
    stats->stop = ChaseStop::kRoundLimit;
    stats->interruption = Status::ResourceExhausted(
        "chase stopped at max_rounds=" + std::to_string(options.max_rounds));
    return Status::Ok();
  }
  // Fixpoint reached and nothing cut the run short: the instance is the
  // full chase result, so record the resume state Extend needs.
  CaptureFrontier(instance, stats);
  return Status::Ok();
}

Status Chase::Extend(const Program& program, Instance* instance,
                     const ChaseFrontier& frontier,
                     const std::vector<Atom>& delta_facts,
                     const ChaseOptions& options, ChaseStats* stats) {
  *stats = ChaseStats{};
  stats->incremental = true;
  if (!frontier.valid) {
    return Status::FailedPrecondition(
        "chase frontier is invalid (was the previous run truncated?)");
  }
  if (frontier.generation != instance->generation()) {
    return Status::FailedPrecondition(
        "stale chase frontier: instance generation is " +
        std::to_string(instance->generation()) + " but the frontier was "
        "captured at " + std::to_string(frontier.generation));
  }
  for (const Atom& f : delta_facts) {
    if (!f.IsGround()) {
      return Status::InvalidArgument("delta facts must be ground");
    }
  }

  const std::vector<Rule> egds = program.Egds();
  const bool has_egds = options.egd_mode != EgdMode::kOff && !egds.empty();
  // Conservative fallback matrix (docs/incremental.md): program features
  // that break the soundness of a delta-seeded restart force an exact
  // full re-chase of program+delta instead — recorded, never silent.
  // Negation and the semi-oblivious chase are unconditional; EGDs and
  // form-(10) rules are narrowed by the position-dependency analysis —
  // they fall back only when the delta can actually reach them.
  std::string fallback;
  std::vector<const Rule*> form10_rules;
  for (const Rule& r : program.rules()) {
    if (!r.IsTgd()) continue;
    if (!r.negated.empty()) {
      fallback = "stratified negation (insertion is non-monotone)";
      break;
    }
    if (r.head.size() > 1 && !r.ExistentialVariables().empty()) {
      form10_rules.push_back(&r);
    }
  }
  if (fallback.empty() && !options.restricted) {
    // The semi-oblivious fired-trigger set is not part of the frontier,
    // so an extension cannot tell which frontier bindings already fired.
    fallback = "semi-oblivious chase (fired-trigger state not resumable)";
  }
  if (fallback.empty() && (has_egds || !form10_rules.empty())) {
    std::optional<ProgramAnalysis> local_analysis;
    const ProgramAnalysis* pa = options.analysis;
    if (pa == nullptr) {
      local_analysis.emplace(program);
      pa = &*local_analysis;
    }
    std::unordered_set<uint32_t> delta_preds;
    for (const Atom& f : delta_facts) delta_preds.insert(f.predicate);
    const std::unordered_set<uint32_t> dirty_closure =
        DependentPredicates(program, delta_preds);
    // An EGD matters only if the delta can feed its body AND it can
    // equate labeled nulls (a null-free EGD only no-ops or reports a
    // constant clash — both of which the alternation below reproduces).
    bool merges_possible = false;
    if (has_egds) {
      for (const Rule& egd : egds) {
        bool reachable = false;
        for (const Atom& b : egd.body) {
          if (dirty_closure.count(b.predicate) > 0) {
            reachable = true;
            break;
          }
        }
        if (reachable && !pa->EgdIsNullFree(egd)) {
          merges_possible = true;
          break;
        }
      }
    }
    if (!options.egds_separable && merges_possible) {
      fallback =
          "EGDs not declared separable, and the delta reaches an EGD "
          "that can merge labeled nulls";
    }
    if (fallback.empty() && !form10_rules.empty()) {
      // A form-(10) rule breaks delta soundness only when it can fire on
      // something new: its body must depend on the delta predicates — or,
      // when an EGD null merge is possible, on any predicate whose facts
      // such a merge can rewrite in place.
      std::unordered_set<uint32_t> seeds = delta_preds;
      if (merges_possible) {
        for (uint32_t p : pa->AffectedPredicates()) seeds.insert(p);
      }
      const std::unordered_set<uint32_t> feeds =
          DependentPredicates(program, seeds);
      for (const Rule* r : form10_rules) {
        bool fed = false;
        for (const Atom& b : r->body) {
          if (feeds.count(b.predicate) > 0) {
            fed = true;
            break;
          }
        }
        if (fed) {
          fallback =
              "form-(10)-shaped rule (multi-atom head with existentials) "
              "reachable from the delta";
          break;
        }
      }
    }
  }
  if (!fallback.empty()) {
    ChaseStats inner;
    Instance rebuilt =
        Instance::FromProgram(program, instance->storage_mode());
    for (const Atom& f : delta_facts) rebuilt.AddFact(f, /*level=*/0);
    MDQA_RETURN_IF_ERROR(Run(program, &rebuilt, options, &inner));
    inner.incremental = true;
    inner.extend_fallback = true;
    inner.fallback_reason = std::move(fallback);
    *stats = std::move(inner);
    *instance = std::move(rebuilt);
    return Status::Ok();
  }

  ExecutionBudget* budget = options.budget;
  ChaseDriver driver(instance, options, stats);
  // No copy or re-validation of the rule set here: every rule was
  // already validated by Program::AddRule, and an extension is supposed
  // to be cheap relative to the program size. Rules are compiled lazily,
  // only when the delta actually reaches them.
  std::vector<const Rule*> tgds;
  for (const Rule& r : program.rules()) {
    if (r.IsTgd()) tgds.push_back(&r);
  }
  std::vector<std::optional<CompiledRule>> compiled(tgds.size());

  // Seed the delta one level above the frontier: the first delta pass's
  // windows (pinned to `seed_level`) then select exactly these facts.
  // Derivation levels therefore keep growing monotonically across
  // extensions — "level 0 == extensional" holds only for the original
  // base facts, which nothing renders and only the windows consume.
  // Predicate-level dirtiness, the delta-driven pruning that makes small
  // extensions cheap: `added_prev` holds the predicates that gained a
  // fact at the previous level (a rule whose body misses all of them
  // cannot fire in a semi-naive pass — every pivot window is empty), and
  // `dirty_since_egd` accumulates every touched predicate so the EGD
  // fixpoint re-runs only when an EGD body could actually see new facts.
  std::unordered_set<uint32_t> added_prev;
  std::unordered_set<uint32_t> dirty_since_egd;
  // Every predicate that gained a fact over the whole extension, for the
  // final constraint check: a constraint that held at frontier capture
  // can only fire again through one of these.
  std::unordered_set<uint32_t> dirty_total;

  const uint32_t seed_level = static_cast<uint32_t>(frontier.round) + 1;
  for (const Atom& f : delta_facts) {
    if (instance->AddFact(f, seed_level)) {
      ++stats->facts_added;
      added_prev.insert(f.predicate);
      dirty_since_egd.insert(f.predicate);
      dirty_total.insert(f.predicate);
      if (budget != nullptr) {
        MDQA_RETURN_IF_ERROR(driver.Absorb(budget->ChargeFacts(1)));
      }
    }
  }

  uint64_t round = seed_level;  // the seed insertion consumed this round
  bool force_full = false;
  bool budget_exhausted = false;

  while (!driver.interrupted() && !budget_exhausted) {  // TGD/EGD alternation
    while (true) {  // TGD rounds to fixpoint
      if (++round - frontier.round > options.max_rounds) {
        --round;
        budget_exhausted = true;
        break;
      }
      if (budget != nullptr) {
        Status bs = budget->CheckNow("chase:round");
        if (bs.ok()) bs = budget->ChargeRounds(1);
        MDQA_RETURN_IF_ERROR(driver.Absorb(std::move(bs)));
        if (driver.interrupted()) break;
      }
      const uint32_t level = static_cast<uint32_t>(round);
      const bool full_pass = !options.semi_naive || force_full;
      force_full = false;
      bool changed = false;
      std::unordered_set<uint32_t> added_this;

      for (size_t i = 0; i < tgds.size(); ++i) {
        if (driver.interrupted()) break;
        const Rule& rule = *tgds[i];
        if (!full_pass) {
          // Delta-driven skip: no body predicate gained a fact at the
          // previous level, so every pivot window is empty.
          bool relevant = false;
          for (const Atom& b : rule.body) {
            if (added_prev.count(b.predicate) > 0) {
              relevant = true;
              break;
            }
          }
          if (!relevant) continue;
        }
        if (!compiled[i].has_value()) compiled[i] = CompileRule(rule);
        // Restricted chase only (the fallback matrix rejects
        // semi-oblivious): skipping satisfied heads is also what makes
        // re-derivations of base facts free. In the first extension
        // round `level - 1 == seed_level`, so the delta passes range over
        // exactly the seeded facts while earlier atoms stay on strictly
        // older (base) rows.
        MDQA_RETURN_IF_ERROR(driver.Step(&*compiled[i], level, full_pass,
                                         full_pass ? nullptr : &added_prev,
                                         &added_this, &changed));
      }
      dirty_since_egd.insert(added_this.begin(), added_this.end());
      dirty_total.insert(added_this.begin(), added_this.end());
      if (driver.interrupted()) break;
      if (budget != nullptr && budget->has_memory_limit()) {
        MDQA_RETURN_IF_ERROR(driver.Absorb(
            budget->NoteMemory(instance->MemoryEstimateBytes())));
        if (driver.interrupted()) break;
      }
      added_prev = std::move(added_this);
      if (!changed) break;  // TGD fixpoint for this alternation
    }
    if (driver.interrupted() || budget_exhausted || !has_egds) break;

    // The EGDs were at fixpoint when the frontier was captured, so they
    // can only fire again if some EGD body predicate gained a fact since
    // the last EGD pass.
    bool egd_relevant = false;
    for (const Rule& egd : egds) {
      for (const Atom& b : egd.body) {
        if (dirty_since_egd.count(b.predicate) > 0) {
          egd_relevant = true;
          break;
        }
      }
      if (egd_relevant) break;
    }
    if (!egd_relevant) break;
    dirty_since_egd.clear();

    // Separable EGDs: re-run the EGD fixpoint after the TGD restart; a
    // merge rewrites facts in place at their old levels (invisible to
    // delta windows), so the next TGD sweep runs full passes.
    Result<uint64_t> merges = ApplyEgds(program, instance, budget);
    if (!merges.ok()) {
      MDQA_RETURN_IF_ERROR(driver.Absorb(merges.status()));
      break;
    }
    stats->egd_merges += *merges;
    if (*merges == 0) break;
    force_full = true;
  }

  if (!driver.interrupted() && !budget_exhausted &&
      options.check_constraints) {
    // The base run checked every constraint before capturing the
    // frontier, so only constraints reachable from new facts can have
    // flipped. EGD merges rewrite old facts in place, invalidating that
    // reasoning — any merge forces the unrestricted check.
    const std::unordered_set<uint32_t>* filter =
        stats->egd_merges == 0 ? &dirty_total : nullptr;
    MDQA_RETURN_IF_ERROR(
        driver.Absorb(CheckConstraints(program, *instance, budget, filter)));
  }

  stats->rounds = round;
  stats->reached_fixpoint = !driver.interrupted() && !budget_exhausted;
  if (driver.interrupted()) {
    stats->reached_fixpoint = false;
    stats->completeness = Completeness::kTruncated;
    stats->interruption = driver.interrupt();
    return Status::Ok();
  }
  if (budget_exhausted) {
    stats->completeness = Completeness::kTruncated;
    stats->stop = ChaseStop::kRoundLimit;
    stats->interruption = Status::ResourceExhausted(
        "chase extension stopped after max_rounds=" +
        std::to_string(options.max_rounds) + " additional rounds");
    return Status::Ok();
  }
  CaptureFrontier(instance, stats);
  stats->frontier.egd_merges = frontier.egd_merges + stats->egd_merges;
  return Status::Ok();
}

Status Chase::CheckConstraints(const Program& program,
                               const Instance& instance,
                               ExecutionBudget* budget,
                               const std::unordered_set<uint32_t>* dirty) {
  const Vocabulary& vocab = *instance.vocab();
  CqEvaluator eval(instance, nullptr, budget);
  for (const Rule& nc : program.Constraints()) {
    if (dirty != nullptr) {
      // Incremental mode: the instance passed a full check at frontier
      // capture, so a new violation needs at least one new body fact.
      bool relevant = false;
      for (const Atom& b : nc.body) {
        if (dirty->count(b.predicate) > 0) {
          relevant = true;
          break;
        }
      }
      if (!relevant) continue;
    }
    Status violation = Status::Ok();
    MDQA_RETURN_IF_ERROR(eval.Enumerate(
        nc.body, nc.negated, nc.comparisons, Subst{}, {},
        [&](const Subst& subst) {
          violation = Status::Inconsistent("negative constraint violated: " +
                                           WitnessString(vocab, nc, subst));
          return false;
        }));
    if (!violation.ok()) return violation;
  }
  return Status::Ok();
}

Result<uint64_t> Chase::ApplyEgds(const Program& program, Instance* instance,
                                  ExecutionBudget* budget) {
  const std::vector<Rule> egds = program.Egds();
  if (egds.empty()) return uint64_t{0};
  const Vocabulary& vocab = *instance->vocab();
  uint64_t total_merges = 0;

  while (true) {
    TermUnionFind uf;
    uint64_t merges = 0;
    Status clash = Status::Ok();
    CqEvaluator eval(*instance, nullptr, budget);
    for (const Rule& egd : egds) {
      MDQA_RETURN_IF_ERROR(eval.Enumerate(
          egd.body, egd.negated, egd.comparisons, Subst{}, {},
          [&](const Subst& subst) {
            Term a = uf.Find(Resolve(subst, egd.egd_lhs));
            Term b = uf.Find(Resolve(subst, egd.egd_rhs));
            if (a == b) return true;
            if (a.IsConstant() && b.IsConstant()) {
              clash = Status::Inconsistent(
                  "EGD requires " + vocab.TermToString(a) + " = " +
                  vocab.TermToString(b) + " via " +
                  WitnessString(vocab, egd, subst));
              return false;
            }
            uf.Union(a, b);
            ++merges;
            return true;
          }));
      if (!clash.ok()) return clash;
    }
    if (merges == 0) break;
    *instance = Canonicalize(*instance, &uf);
    total_merges += merges;
  }
  return total_merges;
}

}  // namespace mdqa::datalog
