#ifndef RASED_PERFBENCH_JSON_H_
#define RASED_PERFBENCH_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A parsed JSON value: just enough of the format to read the dashboard's
/// responses back. Numbers keep their source text so integer counts are
/// compared exactly rather than through a double.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  std::string text;  // string contents, or a literal's source text
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  bool is_array() const { return type == Type::kArray; }
  /// Field lookup; null when absent or when this is not an object.
  const JsonValue* Find(const std::string& key) const;
  double AsDouble() const;
  uint64_t AsUint() const;
};

/// Parses `text` as one JSON document. Returns false (and leaves `error`
/// set) on malformed input or trailing garbage.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

}  // namespace perfbench

#endif  // RASED_PERFBENCH_JSON_H_
