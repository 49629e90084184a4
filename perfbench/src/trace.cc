#include "trace.h"

#include <fstream>

namespace perfbench {

namespace {

int64_t NowNs(std::chrono::steady_clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace

int Tracer::Begin(const std::string& name, uint64_t op) {
  SpanRecord s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs(epoch_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double Tracer::End(int id) {
  SpanRecord& s = spans_[static_cast<size_t>(id)];
  s.end_ns = NowNs(epoch_);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

std::map<std::string, double> Tracer::SelfMsByLayer(
    const std::string& skip_root) const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    size_t root = i;
    while (spans_[root].parent >= 0) {
      root = static_cast<size_t>(spans_[root].parent);
    }
    if (spans_[root].name == skip_root) continue;
    const std::string& name = spans_[i].name;
    out[name.substr(0, name.find('.'))] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            std::string* error) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
  out.close();
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace perfbench
