// Incremental chase vs. full re-chase: for delta batches of 1/4/16 new
// measurements arriving on an already-materialized contextual instance,
// `Chase::Extend` (resume from the captured frontier, semi-naive restart
// seeded with the delta) is compared against tearing the instance down
// and re-chasing the extended extensional set from scratch. Both paths
// must produce the same instance (canonical render compared; the run
// aborts on divergence) — the incremental one just skips re-deriving
// everything the delta cannot touch.
//
// Scenarios: the paper's hospital context in its upward-only form
// (the single-fact delta is the headline row, against a 5x target), the
// full hospital config with its form-(10) downward rule, and a larger
// synthetic instance. Every delta here must stay on the incremental
// path: the position-dependency analysis proves that Measurements deltas
// cannot feed the form-(10) rule, so a full-re-chase fallback is an
// unexpected state and fails the run (exit 1), as does any divergence.
// Timings are medians of 3; results land in BENCH_incremental.json
// (stamped with git SHA + hardware threads like every BENCH artifact).
// See docs/incremental.md for the design and the fallback matrix.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/json.h"
#include "bench_common.h"
#include "core/md_ontology.h"
#include "datalog/chase.h"
#include "datalog/instance.h"
#include "datalog/parser.h"
#include "quality/context.h"
#include "scenarios/hospital.h"
#include "scenarios/synthetic.h"

namespace mdqa {
namespace {

using bench::Check;
using datalog::Chase;
using datalog::ChaseOptions;
using datalog::ChaseStats;
using datalog::Instance;

struct Scenario {
  std::string name;
  datalog::Program program;
  ChaseOptions options;  // separability threaded from the ontology
  std::string delta_relation;
};

Scenario MakeHospital(bool downward, const std::string& name) {
  scenarios::HospitalOptions options;
  options.include_downward_rules = downward;
  auto context = Check(scenarios::BuildHospitalContext(options), "hospital");
  Scenario s{name, Check(context.BuildProgram(), "program"), ChaseOptions{},
             "Measurements"};
  auto props = Check(context.ontology().Analyze(), "analyze");
  s.options.egds_separable = props.separable_egds;
  return s;
}

Scenario MakeSynthetic() {
  scenarios::SyntheticSpec spec;
  spec.patients = 80;
  spec.days = 10;
  spec.include_downward_rules = false;
  auto context = Check(scenarios::BuildSyntheticContext(spec), "synthetic");
  Scenario s{"synthetic-80x10", Check(context.BuildProgram(), "program"),
             ChaseOptions{}, "SMeasurements"};
  auto props = Check(context.ontology().Analyze(), "analyze");
  s.options.egds_separable = props.separable_egds;
  return s;
}

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct DeltaResult {
  size_t delta = 0;
  double full_ms = 0;
  double incremental_ms = 0;
  double speedup = 0;
  bool fallback = false;
  bool identical = false;
};

// One delta size on one scenario: base chase once, then median-of-3 for
// (a) a from-scratch re-chase of base+delta and (b) a frontier-resumed
// extension of a snapshot of the base instance.
DeltaResult RunDelta(const Scenario& s, size_t delta_size) {
  using Clock = std::chrono::steady_clock;
  auto ms = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };

  datalog::Program program = s.program;  // private copy: we add the delta
  Instance base = Instance::FromProgram(program);
  ChaseStats base_stats;
  Check(Chase::Run(program, &base, s.options, &base_stats), "base chase");

  std::vector<datalog::Atom> delta;
  for (size_t i = 0; i < delta_size; ++i) {
    auto atom = Check(
        datalog::Parser::ParseGroundAtom(
            s.delta_relation + "(\"Sep/5-23:0" + std::to_string(i % 10) +
                "\", \"Fresh Patient " + std::to_string(i) + "\", 37.0)",
            program.mutable_vocab()),
        "delta atom");
    Check(program.AddFact(atom), "add fact");
    delta.push_back(atom);
  }

  DeltaResult r;
  r.delta = delta_size;
  std::vector<double> full_samples, inc_samples;
  std::string full_render, inc_render;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    Instance rebuilt = Instance::FromProgram(program);
    ChaseStats full_stats;
    Check(Chase::Run(program, &rebuilt, s.options, &full_stats), "full");
    auto t1 = Clock::now();
    full_samples.push_back(ms(t0, t1));

    auto t2 = Clock::now();
    Instance extended = base.Snapshot();
    ChaseStats inc_stats;
    Check(Chase::Extend(program, &extended, base_stats.frontier, delta,
                        s.options, &inc_stats),
          "extend");
    auto t3 = Clock::now();
    inc_samples.push_back(ms(t2, t3));

    if (rep == 0) {
      r.fallback = inc_stats.extend_fallback;
      full_render = rebuilt.ToCanonicalString();
      inc_render = extended.ToCanonicalString();
    }
  }
  r.full_ms = MedianMs(full_samples);
  r.incremental_ms = MedianMs(inc_samples);
  r.speedup = r.incremental_ms > 0 ? r.full_ms / r.incremental_ms : 0.0;
  r.identical = full_render == inc_render;
  return r;
}

void Reproduce() {
  std::cout << "\nincremental chase (frontier resume) vs full re-chase, "
               "median of 3:\n";
  JsonWriter w;
  w.BeginObject();
  w.Key("experiment").String("incremental");
  bench::StampProvenance(&w);
  w.Key("target_single_fact_speedup").Number(5.0);
  w.Key("scenarios").BeginArray();

  bool all_identical = true;
  bool any_fallback = false;
  double hospital_single_fact_speedup = 0.0;
  std::vector<Scenario> scenarios;
  scenarios.push_back(MakeHospital(false, "hospital-upward"));
  scenarios.push_back(MakeHospital(true, "hospital-full"));
  scenarios.push_back(MakeSynthetic());
  for (const Scenario& s : scenarios) {
    std::cout << "  " << s.name << " (" << s.program.facts().size()
              << " extensional facts):\n"
              << "    delta   full(ms)   incremental(ms)   speedup   "
                 "fallback   identical\n";
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("extensional_facts").Number(s.program.facts().size());
    w.Key("deltas").BeginArray();
    for (size_t delta : {size_t{1}, size_t{4}, size_t{16}}) {
      DeltaResult r = RunDelta(s, delta);
      all_identical = all_identical && r.identical;
      if (s.name == "hospital-upward" && delta == 1) {
        hospital_single_fact_speedup = r.speedup;
      }
      std::printf("    %5zu   %8.3f   %15.3f   %6.1fx   %8s   %9s\n",
                  r.delta, r.full_ms, r.incremental_ms, r.speedup,
                  r.fallback ? "yes" : "no", r.identical ? "yes" : "NO");
      if (r.fallback) {
        std::cout << "    !! unexpected fallback state\n";
        any_fallback = true;
      }
      w.BeginObject();
      w.Key("delta").Number(r.delta);
      w.Key("full_ms").Number(r.full_ms);
      w.Key("incremental_ms").Number(r.incremental_ms);
      w.Key("speedup").Number(r.speedup);
      w.Key("fallback").Bool(r.fallback);
      w.Key("identical").Bool(r.identical);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("hospital_single_fact_speedup").Number(hospital_single_fact_speedup);
  w.Key("all_identical").Bool(all_identical);
  w.EndObject();

  bench::WriteArtifact("BENCH_incremental.json", w.TakeString() + "\n");
  if (!all_identical) {
    std::cerr << "!! incremental instance diverged from full re-chase\n";
    std::exit(1);
  }
  if (any_fallback) {
    std::cerr << "!! a delta fell back to a full re-chase\n";
    std::exit(1);
  }
  if (hospital_single_fact_speedup < 5.0) {
    std::cout << "note: hospital single-fact speedup "
              << hospital_single_fact_speedup
              << "x below the 5x target on this host\n";
  }
}

void BM_FullRechase_Hospital(benchmark::State& state) {
  Scenario s = MakeHospital(false, "hospital-upward");
  auto atom = Check(datalog::Parser::ParseGroundAtom(
                        "Measurements(\"Sep/5-23:00\", \"Fresh Patient\", "
                        "37.0)",
                        s.program.mutable_vocab()),
                    "atom");
  Check(s.program.AddFact(atom), "add");
  for (auto _ : state) {
    Instance inst = Instance::FromProgram(s.program);
    ChaseStats stats;
    Check(Chase::Run(s.program, &inst, s.options, &stats), "run");
    benchmark::DoNotOptimize(inst);
  }
}
BENCHMARK(BM_FullRechase_Hospital);

void BM_IncrementalExtend_Hospital(benchmark::State& state) {
  Scenario s = MakeHospital(false, "hospital-upward");
  Instance base = Instance::FromProgram(s.program);
  ChaseStats base_stats;
  Check(Chase::Run(s.program, &base, s.options, &base_stats), "base");
  auto atom = Check(datalog::Parser::ParseGroundAtom(
                        "Measurements(\"Sep/5-23:00\", \"Fresh Patient\", "
                        "37.0)",
                        s.program.mutable_vocab()),
                    "atom");
  Check(s.program.AddFact(atom), "add");
  for (auto _ : state) {
    Instance extended = base.Snapshot();
    ChaseStats stats;
    Check(Chase::Extend(s.program, &extended, base_stats.frontier, {atom},
                        s.options, &stats),
          "extend");
    benchmark::DoNotOptimize(extended);
  }
}
BENCHMARK(BM_IncrementalExtend_Hospital);

}  // namespace
}  // namespace mdqa

int main(int argc, char** argv) {
  return mdqa::bench::RunBench(
      argc, argv, "C5",
      "incremental chase: delta-driven re-assessment vs full re-chase",
      [] { mdqa::Reproduce(); });
}
