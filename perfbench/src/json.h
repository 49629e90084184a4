// A small JSON reader for checking server responses. It is the
// benchmark's own, so that a fault in the program's JSON code cannot make
// a wrong answer look right.
#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  /// Member `key` of an object, or nullptr.
  const Json* Find(std::string_view key) const;
};

/// Parses `text` as one JSON value; false (with `*error` set) on any
/// syntax error or trailing garbage.
bool ParseJson(std::string_view text, Json* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
