// Shared pieces of the benchmark binary: run options, the metric sheet,
// operation accounting, the served-scenario handle, and the phases the
// untraced (main.cc / phases.cc) and traced (traced.cc) runs are built
// from.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "calibrate.h"
#include "inputs.h"
#include "serve/server.h"
#include "storage/kb_store.h"
#include "testgen/scenario.h"
#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string workload;  ///< assess | update-resume
  uint32_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< scratch space of this run (removed at exit)
  std::string trace_out;  ///< where the traced run writes its spans
  std::string git_sha;
  std::string source_digest;
};

/// Operations attempted and failed over the whole run.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
};
Tally& RunTally();

/// A check of the program's output failed: prints `what`, the result
/// line with "correct": false, and exits 1.
[[noreturn]] void Mismatch(const std::string& what);

/// Metrics by name, in insertion order of their first report.
class MetricSheet {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Prints one human-readable line per metric.
  void Print() const;
  /// The "metrics" object of the result line.
  std::string Json() const;

 private:
  struct Entry {
    std::string name, unit, note;
    double value = 0;
  };
  std::vector<Entry> entries_;
};

/// The served scenario: a disk-backed AssessmentServer.
struct Served {
  std::unique_ptr<mdqa::storage::KbStore> store;  // outlives `server`
  std::unique_ptr<mdqa::serve::AssessmentServer> server;
  std::string dir;

  uint16_t port() const { return server->port(); }
  /// Drains the server and checks the drain; the store stays open.
  void Drain();
};

/// Generates the served scenario of `seed` (context only).
mdqa::quality::QualityContext ServeContext(uint32_t seed);

/// Starts a server over `context`, recovering from (or initialising) the
/// store in `dir`, and times it until the first correct answer: a clean
/// lookup that must report generation `want_generation` (0: any) and
/// match the truth of stream position `n`. Returns the elapsed ms.
double StartServed(mdqa::quality::QualityContext context, uint32_t seed,
                   const std::string& dir, const ServeTruth& truth,
                   uint64_t n, uint64_t want_generation, Served* out);

/// Samples of a read phase: client-observed wall time per answered
/// query, and the CPU time the server's threads spent meanwhile.
struct QuerySamples {
  std::vector<double> all_us;
  std::vector<double> by_class_us[kNumQueryClasses];
  double seconds = 0;
  uint64_t ok = 0;
  double server_cpu_ms = 0;
};

/// Where in the update stream a server generation sits: generation g is
/// stream position n_base + (g - g_base).
struct StreamOrigin {
  uint64_t g_base = 1;
  uint64_t n_base = 0;
};

/// The query streams of clients `first_client` .. `first_client +
/// clients - 1` of `seed`.
std::vector<QueryStream> MakeStreams(uint32_t seed, int first_client,
                                     int clients, const ServeTruth& truth);

/// One closed-loop client per stream, each sending its stream's next
/// queries until `max_ops`, `until`, or `*stop`, whichever comes first;
/// every answer is checked against the truth of the generation it
/// reports. Server CPU time is the process's less the clients'.
QuerySamples RunReaders(uint16_t port, const ServeTruth& truth,
                        std::vector<QueryStream>* streams, uint64_t max_ops,
                        Clock::time_point until, const std::atomic<bool>* stop,
                        StreamOrigin origin);

/// Per-batch samples of an update phase: client-observed wall time, and
/// the server's CPU time for the batch (the process's less the posting
/// thread's; meaningful only with no other client running), in reference
/// CPU time when calibrated.
struct UpdateSamples {
  std::vector<double> ms;
  std::vector<double> insert_cpu_ms;
  std::vector<double> delete_cpu_ms;
  uint64_t batches = 0;
};

/// One closed-loop client posting the update stream from position
/// `origin.n_base` (a round boundary) in whole rounds: at least
/// `min_rounds`, and on until `until`. Every acknowledgement is checked.
/// With `calibrate`, each batch is bracketed by the calibration kernel.
UpdateSamples RunUpdater(uint16_t port, const ServeTruth& truth,
                         uint64_t min_rounds, Clock::time_point until,
                         StreamOrigin origin, bool calibrate);

/// Whole restarts of the served scenario, each from the start of the
/// restart to its first correct answer: wall time, and the process's CPU
/// time in reference CPU time (bracketed by the calibration kernel).
struct RestartSamples {
  std::vector<double> resume_ms;        ///< from the drained directory
  std::vector<double> crash_resume_ms;  ///< from the copied directory
  std::vector<double> resume_cpu_ms;
  std::vector<double> crash_resume_cpu_ms;
  uint64_t tail_batches = 0;            ///< WAL records the copy replays
};

/// Drains `live` (at stream position `n_now`, a round boundary) and
/// restarts it `reps` times from its directory; then posts a short tail
/// of the stream, copies the directory as a crash image, drains, and
/// restarts `reps` times from fresh copies of that image. Every restart
/// must serve the last acknowledged generation with correct answers, and
/// a drained restart must reproduce the report from before shutdown.
RestartSamples RunRestarts(Served* live, uint32_t seed,
                           const ServeTruth& truth, uint64_t n_now,
                           const std::string& work_dir, int reps);

/// Posts `count` batches of the stream from position `n_from` and checks
/// each acknowledgement, adding each batch to `*samples`; `calibrate`
/// brackets each batch with the calibration kernel.
void PostBatches(uint16_t port, const ServeTruth& truth, StreamOrigin origin,
                 uint64_t n_from, uint64_t count, bool calibrate,
                 UpdateSamples* samples);

/// The five scaled families for the assess passes.
std::vector<mdqa::testgen::GeneratedScenario> AssessScenarios(uint32_t seed);

/// Checks an assessment of `scenario` against its ground truth.
void CheckReport(const mdqa::testgen::GeneratedScenario& scenario,
                 const mdqa::quality::AssessmentReport& report,
                 const std::string& json);

/// Peak resident set size of this process, MB.
double PeakRssMb();

/// Size of the newest file in `dir` whose name starts with `prefix`.
uint64_t NewestFileBytes(const std::string& dir, const std::string& prefix);

/// Runs the traced replays and fills `sheet` with every per-layer metric.
void RunTraced(const RunOptions& options, MetricSheet* sheet);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
