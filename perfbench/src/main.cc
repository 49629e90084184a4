// mdqa end-to-end benchmark binary.
//
//   mdqa_perfbench --workload <assess|update-resume> --seed <n>
//                  --seconds <s> --trace <0|1> --work-dir <dir>
//                  [--trace-out <file>] [--git-sha <sha>]
//                  [--source-digest <hex>]
//
// Every run sets up the served scenario three times, then runs the same
// phases: assess passes, read-only queries, updates, updates with a
// reader alongside, and restarts. The workload's own phase (assess passes
// or updates) runs for --seconds; the others run a fixed amount of work,
// enough for every end-to-end metric to have its sample count. With
// --trace 1 the run replays the same calls in-process, one span per
// public function, and reports the per-layer metrics instead. The last
// line of stdout is the JSON result.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "calibrate.h"
#include "quality/assessor.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mdqa::testgen::GeneratedScenario;

constexpr int kSetupReps = 3;
constexpr int kProbePasses = 5;
constexpr int kReadClients = 2;
constexpr uint64_t kReadQueriesPerClient = 3000;
constexpr uint64_t kMinUpdateRounds = 16;
constexpr uint64_t kUnderWritesRounds = 2;
constexpr int kRestartReps = 7;

[[noreturn]] void Usage(const char* why) {
  std::cerr << "mdqa_perfbench: " << why
            << "\nusage: mdqa_perfbench --workload "
               "<assess|update-resume> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--trace-out <file>] "
               "[--git-sha <sha>] [--source-digest <hex>]\n";
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--git-sha") {
      o.git_sha = value;
    } else if (flag == "--source-digest") {
      o.source_digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload != "assess" && o.workload != "update-resume") {
    Usage("unknown workload");
  }
  if (!have_seed || o.seconds < 1 || o.work_dir.empty()) {
    Usage("--seed, --seconds >= 1 and --work-dir are required");
  }
  return o;
}

void Untraced(const RunOptions& o, MetricSheet* sheet) {
  const Clock::time_point far = Clock::now() + std::chrono::hours(24);

  // Set-up: generate the served scenario and start its server until the
  // first correct answer, three times; the last server stays up.
  std::vector<double> setup_s, setup_wall_s;
  ServeTruth truth;
  Served served;
  for (int i = 0; i < kSetupReps; ++i) {
    const double before = CalibrationMs();
    double cpu = ProcessCpuMs();
    const Clock::time_point t0 = Clock::now();
    auto scenario =
        mdqa::testgen::ScenarioGenerator::Generate(ServeSpec(o.seed));
    if (!scenario.ok()) Mismatch("generate: " + scenario.status().ToString());
    double wall_ms = MsSince(t0);
    double cpu_ms = ProcessCpuMs() - cpu;
    if (i == 0) {
      std::string error;
      if (!ServeTruth::Build(*scenario, &truth, &error)) Mismatch(error);
    }
    const std::string dir = o.work_dir + "/setup-" + std::to_string(i);
    Served s;
    cpu = ProcessCpuMs();
    wall_ms += StartServed(std::move(scenario->context), o.seed, dir, truth, 0,
                           0, &s);
    cpu_ms += ProcessCpuMs() - cpu;
    setup_s.push_back(cpu_ms * HostFactor(before, CalibrationMs()) / 1000);
    setup_wall_s.push_back(wall_ms / 1000);
    if (i + 1 < kSetupReps) {
      s.Drain();
      s = Served();
      fs::remove_all(dir);
    } else {
      served = std::move(s);
    }
  }
  std::printf("inputs: %d rows x %d entities x %d days per family; served "
              "multi-dimensional scenario %zu rows (%zu clean); update "
              "rounds of %d batches x %d rows\n",
              kRows, kEntities, kDays, truth.initial_rows(),
              truth.initial_clean_rows(), kRoundBatches, kRowsPerBatch);

  // Assess passes over the five families. Each family's Assess is
  // bracketed by kernel runs, chained so that one run closes a family and
  // opens the next.
  const std::vector<GeneratedScenario> families = AssessScenarios(o.seed);
  std::vector<double> pass_ms, pass_wall_ms;
  {
    const bool home = o.workload == "assess";
    const Clock::time_point until =
        home ? Clock::now() + std::chrono::seconds(o.seconds) : Clock::now();
    while (static_cast<int>(pass_ms.size()) < kProbePasses ||
           Clock::now() < until) {
      double pass = 0, wall = 0;
      double before = CalibrationMs();
      for (const GeneratedScenario& s : families) {
        mdqa::quality::Assessor assessor(&s.context);
        RunTally().attempted.fetch_add(1);
        const double cpu = ThreadCpuMs();
        const Clock::time_point t0 = Clock::now();
        auto report = assessor.Assess();
        if (!report.ok()) Mismatch("assess: " + report.status().ToString());
        const std::string json = report->ToJson();
        wall += MsSince(t0);
        const double cpu_ms = ThreadCpuMs() - cpu;
        const double after = CalibrationMs();
        pass += cpu_ms * HostFactor(before, after);
        before = after;
        CheckReport(s, *report, json);
      }
      pass_ms.push_back(pass);
      pass_wall_ms.push_back(wall);
    }
  }

  // Read-only queries: checked, and reported as wall-clock figures only
  // (see the README on why no read-path metric is bounded).
  StreamOrigin origin{served.server->generation(), 0};
  std::vector<QueryStream> read_streams =
      MakeStreams(o.seed, 0, kReadClients, truth);
  const QuerySamples reads =
      RunReaders(served.port(), truth, &read_streams, kReadQueriesPerClient,
                 far, nullptr, origin);

  // Updates in whole rounds, the updater alone so that the server's CPU
  // time per batch is the batch's own.
  const UpdateSamples updates = RunUpdater(
      served.port(), truth, kMinUpdateRounds,
      o.workload == "update-resume"
          ? Clock::now() + std::chrono::seconds(o.seconds)
          : Clock::now(),
      origin, /*calibrate=*/true);

  // Reads under writes: checked, not timed. A read either slips between
  // two batches or waits out the writer's whole critical section, so its
  // latency is bimodal and too scheduling-dependent for a bounded figure;
  // the traced run reports it.
  origin = StreamOrigin{served.server->generation(), updates.batches};
  QuerySamples under_writes;
  UpdateSamples checked;
  {
    std::atomic<bool> stop{false};
    std::vector<QueryStream> streams =
        MakeStreams(o.seed, kReadClients, 1, truth);
    std::thread reader([&] {
      under_writes = RunReaders(served.port(), truth, &streams, UINT64_MAX,
                                far, &stop, origin);
    });
    checked = RunUpdater(served.port(), truth, kUnderWritesRounds,
                         Clock::now(), origin, /*calibrate=*/false);
    stop.store(true, std::memory_order_release);
    reader.join();
  }

  const RestartSamples restarts =
      RunRestarts(&served, o.seed, truth, updates.batches + checked.batches,
                  o.work_dir, kRestartReps);

  auto wall = [](const char* what, double v) {
    return std::string("; wall ") + what + " " + std::to_string(v);
  };
  sheet->Set("setup_s", Median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()) +
                 wall("s", Median(setup_wall_s)));
  sheet->Set("peak_rss_mb", PeakRssMb(), "MB");
  sheet->Set("assess_pass_cpu_ms", Median(pass_ms), "ms",
             "median of " + std::to_string(pass_ms.size()) + " passes" +
                 wall("ms", Median(pass_wall_ms)));
  sheet->Set("update_insert_cpu_ms", Median(updates.insert_cpu_ms), "ms",
             "median of " + std::to_string(updates.insert_cpu_ms.size()) +
                 " insert batches");
  sheet->Set("update_delete_cpu_ms", Median(updates.delete_cpu_ms), "ms",
             "median of " + std::to_string(updates.delete_cpu_ms.size()) +
                 " deletion batches");
  sheet->Set("resume_cpu_ms", Median(restarts.resume_cpu_ms), "ms",
             "median of " + std::to_string(restarts.resume_cpu_ms.size()) +
                 wall("ms", Median(restarts.resume_ms)));
  sheet->Set("crash_resume_cpu_ms", Median(restarts.crash_resume_cpu_ms), "ms",
             "median of " +
                 std::to_string(restarts.crash_resume_cpu_ms.size()) + ", " +
                 std::to_string(restarts.tail_batches) +
                 " WAL records replayed" +
                 wall("ms", Median(restarts.crash_resume_ms)));
  std::printf("wall clock (client-observed, unbounded): query p50 %.1f us, "
              "p99 %.1f us (n=%zu), %.0f req/s, server CPU %.1f us/query; "
              "update p50 %.2f ms, p90 %.2f ms (n=%zu)\n",
              Percentile(reads.all_us, 0.5), Percentile(reads.all_us, 0.99),
              reads.all_us.size(),
              static_cast<double>(reads.ok) / reads.seconds,
              1000 * reads.server_cpu_ms / static_cast<double>(reads.ok),
              Percentile(updates.ms, 0.5), Percentile(updates.ms, 0.9),
              updates.ms.size());
  std::printf("phases: %zu assess passes; %llu read-only queries in %.2f s; "
              "%llu update batches (%llu deletions); %llu batches with %llu "
              "queries under writes\n",
              pass_ms.size(), static_cast<unsigned long long>(reads.ok),
              reads.seconds, static_cast<unsigned long long>(updates.batches),
              static_cast<unsigned long long>(updates.delete_cpu_ms.size()),
              static_cast<unsigned long long>(checked.batches),
              static_cast<unsigned long long>(under_writes.ok));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunOptions o = ParseArgs(argc, argv);
  // The work directory is this run's scratch space: start it empty.
  std::error_code ec;
  std::filesystem::remove_all(o.work_dir, ec);
  std::filesystem::create_directories(o.work_dir, ec);
  if (ec) Usage(("cannot create --work-dir: " + ec.message()).c_str());

  std::printf("perfbench: workload=%s seed=%u seconds=%d trace=%d nproc=%u "
              "git_sha=%s source_digest=%s\n",
              o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0,
              std::thread::hardware_concurrency(),
              o.git_sha.empty() ? "unknown" : o.git_sha.c_str(),
              o.source_digest.empty() ? "unknown" : o.source_digest.c_str());
  MetricSheet sheet;
  if (o.trace) {
    RunTraced(o, &sheet);
  } else {
    Untraced(o, &sheet);
  }
  sheet.Print();
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(RunTally().attempted.load()),
              static_cast<unsigned long long>(RunTally().failed.load()),
              sheet.Json().c_str());
  std::fflush(stdout);
  return 0;
}
