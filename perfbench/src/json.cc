#include "json.h"

#include <cstdlib>

namespace perfbench {

const Json* Json::Find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  bool Value(Json* out, int depth) {
    if (depth > 16) return Fail("nested too deep");
    Skip();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->text);
    }
    if (Literal("true")) {
      out->kind = Json::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = Json::Kind::kBool;
      return true;
    }
    if (Literal("null")) return true;
    return Number(out);
  }

  bool AtEnd() {
    Skip();
    return pos_ == s_.size();
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const char* why) {
    error_ = std::string(why) + " at byte " + std::to_string(pos_);
    return false;
  }

  void Skip() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Number(Json* out) {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) return Fail("unexpected character");
    const std::string digits(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out->kind = Json::Kind::kNumber;
    out->number = std::strtod(digits.c_str(), &end);
    if (end != digits.c_str() + digits.size()) return Fail("bad number");
    return true;
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Fail("short \\u escape");
          const std::string hex(s_.substr(pos_, 4));
          char* end = nullptr;
          const unsigned code =
              static_cast<unsigned>(std::strtoul(hex.c_str(), &end, 16));
          if (end != hex.c_str() + 4) return Fail("bad \\u escape");
          pos_ += 4;
          AppendUtf8(code, out);
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool Array(Json* out, int depth) {
    ++pos_;
    out->kind = Json::Kind::kArray;
    Skip();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      out->items.emplace_back();
      if (!Value(&out->items.back(), depth + 1)) return false;
      Skip();
      if (pos_ >= s_.size()) return Fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected , or ]");
    }
  }

  bool Object(Json* out, int depth) {
    ++pos_;
    out->kind = Json::Kind::kObject;
    Skip();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      Skip();
      if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected key");
      std::string key;
      if (!String(&key)) return false;
      Skip();
      if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected :");
      ++pos_;
      out->members.emplace_back(std::move(key), Json());
      if (!Value(&out->members.back().second, depth + 1)) return false;
      Skip();
      if (pos_ >= s_.size()) return Fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected , or }");
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool ParseJson(std::string_view text, Json* out, std::string* error) {
  Reader r(text);
  *out = Json();
  if (!r.Value(out, 0)) {
    *error = r.error();
    return false;
  }
  if (!r.AtEnd()) {
    *error = "trailing bytes after the JSON value";
    return false;
  }
  return true;
}

}  // namespace perfbench
