#include "json.h"

#include <cctype>
#include <cstdlib>

namespace perfbench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool Document(JsonValue* out, std::string* error) {
    if (!Value(out, 0)) {
      *error = "malformed JSON at offset " + std::to_string(pos_);
      return false;
    }
    SkipSpace();
    if (pos_ != s_.size()) {
      *error = "trailing bytes at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > 64) return false;
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return String(&out->text);
    }
    if (c == 't' || c == 'f') {
      out->type = JsonValue::Type::kBool;
      out->text = c == 't' ? "true" : "false";
      return Literal(out->text);
    }
    if (c == 'n') {
      out->type = JsonValue::Type::kNull;
      return Literal("null");
    }
    return Number(out);
  }

  bool Number(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->type = JsonValue::Type::kNumber;
    out->text = std::string(s_.substr(start, pos_ - start));
    return true;
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char e = s_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(s_.substr(pos_, 4)).c_str(), nullptr,
                           16));
          pos_ += 4;
          // The dashboard only escapes control characters this way.
          out->push_back(static_cast<char>(code & 0x7f));
          break;
        }
        default: out->push_back(e);
      }
    }
    return false;
  }

  bool Array(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      out->items.emplace_back();
      if (!Value(&out->items.back(), depth + 1)) return false;
      SkipSpace();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Object(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != '"') return false;
      std::string key;
      if (!String(&key)) return false;
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      if (!Value(&out->fields[key], depth + 1)) return false;
      SkipSpace();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  auto it = fields.find(key);
  return it == fields.end() ? nullptr : &it->second;
}

double JsonValue::AsDouble() const { return std::strtod(text.c_str(), nullptr); }

uint64_t JsonValue::AsUint() const {
  return std::strtoull(text.c_str(), nullptr, 10);
}

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  return Parser(text).Document(out, error);
}

}  // namespace perfbench
