// Minimal JSON support: the one string escaper and exact-number
// formatter every JSON writer in the repository shares (journal
// records, JSON rows, event lines, service bodies, trace exports), plus
// a parser just big enough to validate what those writers emit --
// used by tests/test_telemetry and the tools/trace_check CLI so a
// malformed export fails loudly in CI instead of silently confusing
// Perfetto.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ds::telemetry {

/// Parsed JSON value (small recursive DOM; objects keep key order).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
};

/// `s` escaped for use between JSON double quotes (quotes not
/// included): double quote, backslash, \n, \r and \t as two-character
/// escapes, other control characters as \u00XX, everything else
/// verbatim.
std::string JsonEscape(std::string_view s);

/// `v` as "%.17g": 17 significant digits round-trip every double
/// exactly, so rows and journal records reload bit-identically.
std::string JsonNumber(double v);

/// Parses `text` as one JSON document (trailing whitespace allowed).
/// Throws std::runtime_error with a position-annotated message on any
/// syntax error.
JsonValue ParseJson(std::string_view text);

/// Validates a Chrome trace_event export: top-level object with a
/// "traceEvents" array whose entries each carry a string "name", a
/// string "ph" and a numeric "ts" (plus numeric "dur" for 'X' spans).
/// Returns true and sets `*num_events`; on failure returns false and
/// describes the problem in `*error`.
bool ValidateChromeTrace(std::string_view text, std::size_t* num_events,
                         std::string* error);

}  // namespace ds::telemetry
