#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

using mdqa::testgen::GeneratedScenario;
using mdqa::testgen::ScenarioFamily;
using mdqa::testgen::ScenarioSpec;

namespace {

ScenarioSpec Scaled(ScenarioSpec s) {
  s.entities = kEntities;
  s.rows = kRows;
  s.days = kDays;
  s.corruptions = 40;
  s.misplacements = 20;
  s.missing_facts = 20;
  // The family default varies the skew with the seed; pinning it keeps
  // the work per pass independent of the seed.
  if (s.family == ScenarioFamily::kSkewedTenants) s.zipf_s = 1.1;
  s.update_batches = 0;
  s.delete_in_last_batch = false;
  return s;
}

std::string Join(const std::vector<std::string>& fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back('\x1f');
    out += fields[i];
  }
  return out;
}

Row MakeRow(const mdqa::testgen::TupleVerdict& v) {
  Row r;
  r.fields = v.fields;
  r.time = DisplayField(v.fields[0]);
  r.entity = DisplayField(v.fields[1]);
  r.value = DisplayField(v.fields[2]);
  r.clean = v.clean;
  return r;
}

std::string RowsJson(const std::vector<const Row*>& rows) {
  std::string out = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ",";
    out += "[";
    for (size_t f = 0; f < rows[i]->fields.size(); ++f) {
      if (f > 0) out += ",";
      out += "\"" + JsonEscape(rows[i]->fields[f]) + "\"";
    }
    out += "]";
  }
  return out + "]";
}

mdqa::Tuple TupleOfRow(const Row& r) {
  mdqa::Tuple t;
  for (const std::string& f : r.fields) t.push_back(mdqa::Value::FromText(f));
  return t;
}

}  // namespace

ScenarioSpec AssessSpec(ScenarioFamily family, uint32_t seed) {
  return Scaled(mdqa::testgen::SpecFor(family, seed));
}

ScenarioSpec ServeSpec(uint32_t seed) {
  ScenarioSpec s =
      Scaled(mdqa::testgen::SpecFor(ScenarioFamily::kMultiDimensional, seed));
  // A wide area hierarchy (216 certification members over 1296 wards)
  // keeps the clean share of the rows, and with it the cost of the clean
  // projections and scans, nearly the same from seed to seed.
  s.depth = 5;
  s.fanout = 6;
  s.update_batches = kDistinctRounds * (kRoundBatches - 1);
  s.updates_per_batch = kRowsPerBatch;
  return s;
}

std::string ServeScenarioName(uint32_t seed) {
  return "perfbench-multi-dimensional-" + std::to_string(seed);
}

std::string DisplayField(const std::string& field) {
  if (field.empty()) return field;
  char* end = nullptr;
  const char* s = field.c_str();
  const bool sign = s[0] == '+' || s[0] == '-';
  const bool all_digits =
      field.size() > (sign ? 1u : 0u) &&
      std::all_of(field.begin() + (sign ? 1 : 0), field.end(),
                  [](char c) { return c >= '0' && c <= '9'; });
  if (all_digits) {
    return std::to_string(std::strtoll(s + (s[0] == '+' ? 1 : 0), nullptr,
                                       10));
  }
  const double d = std::strtod(s, &end);
  if (end == s + field.size() && std::isfinite(d)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", d);
    return buf;
  }
  return field;
}

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kPointClean:
      return "point_clean";
    case QueryClass::kPointRaw:
      return "point_raw";
    case QueryClass::kAbsent:
      return "absent";
    case QueryClass::kProjection:
      return "projection";
    case QueryClass::kScan:
      return "scan";
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

bool ServeTruth::Build(const GeneratedScenario& scenario, ServeTruth* out,
                       std::string* error) {
  ServeTruth& t = *out;
  for (int i = 0; i < scenario.spec.entities; ++i) {
    t.entities_.push_back("ge" + std::to_string(i));
  }
  for (const auto& v : scenario.truth) {
    if (v.fields.size() != 3) {
      *error = "generated row without three fields";
      return false;
    }
    t.initial_.push_back(MakeRow(v));
  }
  for (size_t i = 0; i < t.initial_.size(); ++i) {
    const Row& r = t.initial_[i];
    t.initial_by_entity_[r.entity].push_back(i);
    if (r.clean) {
      if (t.probe_entity_.empty()) t.probe_entity_ = r.entity;
      t.initial_clean_entities_.insert(r.entity);
      t.initial_clean_scan_.push_back(Join({r.time, r.entity, r.value}));
    }
  }

  const size_t want = kDistinctRounds * (kRoundBatches - 1);
  if (scenario.updates.size() != want) {
    *error = "generated update stream has " +
             std::to_string(scenario.updates.size()) + " batches, not " +
             std::to_string(want);
    return false;
  }
  // The generator's verdicts are cumulative and its stream inserts only,
  // so batch b's rows are the last entries of its verdicts_after.
  for (const auto& u : scenario.updates) {
    if (u.batch.deltas.size() != 1 || !u.batch.deltas[0].delete_rows.empty()) {
      *error = "generated batch is not a single insert-only delta";
      return false;
    }
    const auto& inserts = u.batch.deltas[0].insert_rows;
    if (u.verdicts_after.size() < inserts.size()) {
      *error = "generated batch verdicts shorter than its inserts";
      return false;
    }
    std::vector<Row> rows;
    const size_t first = u.verdicts_after.size() - inserts.size();
    for (size_t i = 0; i < inserts.size(); ++i) {
      Row r = MakeRow(u.verdicts_after[first + i]);
      if (TupleOfRow(r) != inserts[i]) {
        *error = "generated verdict does not match its inserted row";
        return false;
      }
      rows.push_back(std::move(r));
    }
    t.inserted_.push_back(std::move(rows));
  }

  for (int round = 0; round < kDistinctRounds; ++round) {
    std::vector<const Row*> round_rows;
    for (int p = 0; p < kRoundBatches - 1; ++p) {
      const auto& rows =
          t.inserted_[static_cast<size_t>(round * (kRoundBatches - 1) + p)];
      std::vector<const Row*> batch_rows;
      for (const Row& r : rows) batch_rows.push_back(&r);
      round_rows.insert(round_rows.end(), batch_rows.begin(),
                        batch_rows.end());
      UpdateBatch b;
      mdqa::quality::RelationDelta d;
      d.relation = kRelation;
      for (const Row* r : batch_rows) d.insert_rows.push_back(TupleOfRow(*r));
      b.delta.deltas.push_back(std::move(d));
      b.body = std::string("{\"relation\":\"") + kRelation +
               "\",\"insert\":" + RowsJson(batch_rows) + "}";
      t.cycle_.push_back(std::move(b));
    }
    UpdateBatch del;
    del.deletion = true;
    mdqa::quality::RelationDelta d;
    d.relation = kRelation;
    for (const Row* r : round_rows) d.delete_rows.push_back(TupleOfRow(*r));
    del.delta.deltas.push_back(std::move(d));
    del.body = std::string("{\"relation\":\"") + kRelation +
               "\",\"delete\":" + RowsJson(round_rows) + "}";
    t.cycle_.push_back(std::move(del));
  }
  return true;
}

const UpdateBatch& ServeTruth::BatchAt(uint64_t n) const {
  return cycle_[n % cycle_.size()];
}

size_t ServeTruth::initial_clean_rows() const {
  return static_cast<size_t>(std::count_if(
      initial_.begin(), initial_.end(), [](const Row& r) { return r.clean; }));
}

std::vector<const Row*> ServeTruth::Inserted(uint64_t n) const {
  const uint64_t in_cycle = n % cycle_.size();
  const uint64_t round = in_cycle / kRoundBatches;
  const uint64_t done = in_cycle % kRoundBatches;  // insert batches applied
  std::vector<const Row*> out;
  for (uint64_t p = 0; p < done; ++p) {
    for (const Row& r :
         inserted_[static_cast<size_t>(round * (kRoundBatches - 1) + p)]) {
      out.push_back(&r);
    }
  }
  return out;
}

std::vector<std::string> ServeTruth::Expected(const QueryOp& q,
                                              uint64_t n) const {
  const std::vector<const Row*> extra = Inserted(n);
  std::vector<std::string> out;
  switch (q.cls) {
    case QueryClass::kAbsent:
      break;
    case QueryClass::kPointClean:
    case QueryClass::kPointRaw: {
      const bool clean = q.cls == QueryClass::kPointClean;
      auto add = [&](const Row* r) {
        if (r->entity == q.entity && (r->clean || !clean)) {
          out.push_back(Join({r->time, r->value}));
        }
      };
      auto it = initial_by_entity_.find(q.entity);
      if (it != initial_by_entity_.end()) {
        for (size_t i : it->second) add(&initial_[i]);
      }
      for (const Row* r : extra) add(r);
      break;
    }
    case QueryClass::kProjection: {
      std::set<std::string> entities = initial_clean_entities_;
      for (const Row* r : extra) {
        if (r->clean) entities.insert(r->entity);
      }
      out.assign(entities.begin(), entities.end());
      break;
    }
    case QueryClass::kScan: {
      out = initial_clean_scan_;
      for (const Row* r : extra) {
        if (r->clean) out.push_back(Join({r->time, r->entity, r->value}));
      }
      break;
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

QueryStream::QueryStream(uint32_t seed, int client, const ServeTruth* truth)
    : truth_(truth),
      rng_(seed * 2654435761u + static_cast<uint32_t>(client) * 40503u + 1u),
      client_(client) {
  const size_t n = truth->entities().size();
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / static_cast<double>(i + 1);  // Zipf, exponent 1
    cumulative_.push_back(total);
  }
  // The hot keys depend on the seed, not on the client.
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) order_[i] = static_cast<int>(i);
  std::mt19937 shuffle(seed * 2246822519u + 3u);
  std::shuffle(order_.begin(), order_.end(), shuffle);
}

QueryOp QueryStream::Next() {
  // Shares, per mille: 400 clean point lookups, 250 raw point lookups,
  // 200 absent-key lookups, 145 clean projections, 5 clean full scans.
  QueryOp q;
  const uint32_t roll = rng_() % 1000;
  auto entity = [this] {
    const double u = static_cast<double>(rng_() % (1u << 24)) /
                     static_cast<double>(1u << 24) * cumulative_.back();
    size_t rank = static_cast<size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
    rank = std::min(rank, cumulative_.size() - 1);
    return truth_->entities()[static_cast<size_t>(order_[rank])];
  };
  if (roll < 400) {
    q.cls = QueryClass::kPointClean;
    q.entity = entity();
  } else if (roll < 650) {
    q.cls = QueryClass::kPointRaw;
    q.entity = entity();
    q.clean = false;
  } else if (roll < 850) {
    q.cls = QueryClass::kAbsent;
    q.entity = "gz" + std::to_string(client_) + "n" + std::to_string(absent_++);
  } else if (roll < 995) {
    q.cls = QueryClass::kProjection;
  } else {
    q.cls = QueryClass::kScan;
  }
  switch (q.cls) {
    case QueryClass::kPointClean:
    case QueryClass::kPointRaw:
    case QueryClass::kAbsent:
      q.text = std::string("Q(T, V) :- ") + kRelation + "(T, \"" + q.entity +
               "\", V).";
      break;
    case QueryClass::kProjection:
      q.text = std::string("Q(E) :- ") + kRelation + "(T, E, V).";
      break;
    case QueryClass::kScan:
      q.text = std::string("Q(T, E, V) :- ") + kRelation + "(T, E, V).";
      break;
  }
  q.body = "{\"query\":\"" + JsonEscape(q.text) +
           "\",\"clean\":" + (q.clean ? "true" : "false") + "}";
  return q;
}

}  // namespace perfbench
