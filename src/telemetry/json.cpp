#include "telemetry/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace ds::telemetry {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue v = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c)
      Fail(std::string("expected '") + c + "', got '" + Peek() + "'");
    ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    const char c = Peek();
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.str = ParseString();
        return v;
      }
      case 't':
      case 'f':
        return ParseKeyword();
      case 'n':
        return ParseKeyword();
      default:
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)) != 0)
          return ParseNumber();
        Fail(std::string("unexpected character '") + c + "'");
    }
  }

  JsonValue ParseObject() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    Expect('{');
    SkipWhitespace();
    if (Consume('}')) return v;
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      v.object.emplace_back(std::move(key), ParseValue());
      SkipWhitespace();
      if (Consume(',')) continue;
      Expect('}');
      return v;
    }
  }

  JsonValue ParseArray() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    Expect('[');
    SkipWhitespace();
    if (Consume(']')) return v;
    while (true) {
      v.array.push_back(ParseValue());
      SkipWhitespace();
      if (Consume(',')) continue;
      Expect(']');
      return v;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) Fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
            for (int i = 0; i < 4; ++i)
              if (std::isxdigit(static_cast<unsigned char>(
                      text_[pos_ + static_cast<std::size_t>(i)])) == 0)
                Fail("bad \\u escape");
            // Validation-only parser: keep escapes verbatim.
            out.append("\\u");
            out.append(text_.substr(pos_, 4));
            pos_ += 4;
            break;
          }
          default:
            Fail(std::string("bad escape '\\") + esc + "'");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') Fail("bad number " + token);
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = value;
    return v;
  }

  JsonValue ParseKeyword() {
    JsonValue v;
    auto match = [&](std::string_view kw) {
      if (text_.substr(pos_, kw.size()) != kw) return false;
      pos_ += kw.size();
      return true;
    };
    if (match("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
    } else if (match("false")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = false;
    } else if (match("null")) {
      v.type = JsonValue::Type::kNull;
    } else {
      Fail("unknown keyword");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

JsonValue ParseJson(std::string_view text) {
  return Parser(text).ParseDocument();
}

bool ValidateChromeTrace(std::string_view text, std::size_t* num_events,
                         std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  JsonValue doc;
  try {
    doc = ParseJson(text);
  } catch (const std::runtime_error& e) {
    return fail(e.what());
  }
  if (!doc.is_object()) return fail("top level is not an object");
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr) return fail("missing traceEvents");
  if (!events->is_array()) return fail("traceEvents is not an array");
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = "event " + std::to_string(i) + ": ";
    if (!e.is_object()) return fail(at + "not an object");
    const JsonValue* name = e.Find("name");
    if (name == nullptr || !name->is_string())
      return fail(at + "missing string name");
    const JsonValue* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string() || ph->str.size() != 1)
      return fail(at + "missing one-character ph");
    const JsonValue* ts = e.Find("ts");
    if (ts == nullptr || !ts->is_number())
      return fail(at + "missing numeric ts");
    if (ph->str == "X") {
      const JsonValue* dur = e.Find("dur");
      if (dur == nullptr || !dur->is_number() || dur->number < 0.0)
        return fail(at + "complete event without non-negative dur");
    }
  }
  if (num_events != nullptr) *num_events = events->array.size();
  return true;
}

}  // namespace ds::telemetry
