// Benchmark-side tracing: a span around each call into a public function
// of one of the program's modules, recorded from the benchmark's own code
// (the program itself carries no tracing). Spans live in memory and are
// written out as JSON lines when the run ends. Single-threaded: the traced
// replays run on one thread.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;  ///< "<layer>.<call>", e.g. "quality.prepare"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at the root
  uint64_t op = 0;  ///< operation the span belongs to
};

class Tracer {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int Begin(const std::string& name, uint64_t op);
  /// Closes span `id` (the innermost open one); returns its length in ms.
  double End(int id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per layer (the span name up to its first '.'): each span's
  /// length minus what its direct children cover, summed, in ms. Spans
  /// under a root span named `skip_root` are left out.
  std::map<std::string, double> SelfMsByLayer(
      const std::string& skip_root) const;

  /// Writes one JSON object per span to `path`.
  bool WriteJsonLines(const std::string& path, std::string* error) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII span; `Stop()` ends it early and returns its length in ms.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, uint64_t op)
      : tracer_(tracer), id_(tracer->Begin(name, op)) {}
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double Stop() {
    if (!stopped_) {
      ms_ = tracer_->End(id_);
      stopped_ = true;
    }
    return ms_;
  }

 private:
  Tracer* tracer_;
  int id_;
  bool stopped_ = false;
  double ms_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
