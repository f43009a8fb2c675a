#include "server/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace qcont {
namespace server {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

const JsonValue* JsonValue::Get(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

void JsonEscape(std::string_view s, std::string* out) {
  // Plain runs are appended whole; only the bytes that need an escape are
  // looked at one by one.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *out += buf;
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  JsonEscape(s, &out);
  return out;
}

std::string JsonValue::Dump() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber: {
      // JSON has no inf/nan (the parser rejects them; this guards values
      // constructed programmatically).
      if (!std::isfinite(number_)) return "null";
      // Integral values (the only numbers the protocol emits) print without
      // a fraction so ids round-trip textually.
      if (number_ == std::floor(number_) && std::fabs(number_) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", number_);
        return buf;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", number_);
      return buf;
    }
    case Kind::kString: {
      std::string out = "\"";
      out += JsonEscape(string_);
      out += '"';
      return out;
    }
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ",";
        out += array_[i].Dump();
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ",";
        first = false;
        out += '"';
        out += JsonEscape(key);
        out += "\":";
        out += value.Dump();
      }
      return out + "}";
    }
  }
  return "null";
}

namespace {

/// Recursive-descent parser over a raw char range. Depth-limited so a
/// hostile request cannot blow the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Result<JsonValue> Parse() {
    SkipSpace();
    JsonValue v;
    Status st = ParseValue(&v, 0);
    if (!st.ok()) return st;
    SkipSpace();
    if (pos_ != s_.size()) {
      return Error("trailing characters after JSON value");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 32;

  Status Error(const std::string& what) const {
    return InvalidArgumentError("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= s_.size()) return Error("unexpected end of input");
    char c = s_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') return ParseString(out);
    if (c == 't' || c == 'f') return ParseBool(out);
    if (c == 'n') return ParseNull(out);
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
    return Error("unexpected character");
  }

  Status ParseLiteral(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return Error("bad literal");
      ++pos_;
    }
    return Status::Ok();
  }

  Status ParseNull(JsonValue* out) {
    QCONT_RETURN_IF_ERROR(ParseLiteral("null"));
    *out = JsonValue();
    return Status::Ok();
  }

  Status ParseBool(JsonValue* out) {
    if (s_[pos_] == 't') {
      QCONT_RETURN_IF_ERROR(ParseLiteral("true"));
      *out = JsonValue::Bool(true);
    } else {
      QCONT_RETURN_IF_ERROR(ParseLiteral("false"));
      *out = JsonValue::Bool(false);
    }
    return Status::Ok();
  }

  Status ParseNumber(JsonValue* out) {
    std::size_t start = pos_;
    Consume('-');
    // RFC 8259: no leading zeros ("01" is two tokens, i.e. an error here).
    if (pos_ + 1 < s_.size() && s_[pos_] == '0' &&
        std::isdigit(static_cast<unsigned char>(s_[pos_ + 1]))) {
      return Error("bad number (leading zero)");
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    const std::string text = s_.substr(start, pos_ - start);
    char* end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') return Error("bad number");
    // strtod overflows literals like 1e999 to ±inf; admitting those would
    // let Dump() echo invalid JSON back into the response stream.
    if (!std::isfinite(v)) return Error("bad number (out of range)");
    *out = JsonValue::Number(v);
    return Status::Ok();
  }

  Status ParseString(JsonValue* out) {
    std::string value;
    QCONT_RETURN_IF_ERROR(ParseStringRaw(&value));
    *out = JsonValue::String(std::move(value));
    return Status::Ok();
  }

  Status ParseStringRaw(std::string* out) {
    if (!Consume('"')) return Error("expected string");
    out->clear();
    while (true) {
      if (pos_ >= s_.size()) return Error("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return Error("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Error("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate \\u escapes unsupported");
          }
          // UTF-8 encode the BMP code point.
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
          break;
        }
        default:
          return Error("bad escape");
      }
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    Consume('[');
    std::vector<JsonValue> items;
    SkipSpace();
    if (Consume(']')) {
      *out = JsonValue::Array(std::move(items));
      return Status::Ok();
    }
    while (true) {
      JsonValue item;
      SkipSpace();
      QCONT_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
      items.push_back(std::move(item));
      SkipSpace();
      if (Consume(']')) break;
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
    *out = JsonValue::Array(std::move(items));
    return Status::Ok();
  }

  Status ParseObject(JsonValue* out, int depth) {
    Consume('{');
    std::map<std::string, JsonValue> members;
    SkipSpace();
    if (Consume('}')) {
      *out = JsonValue::Object(std::move(members));
      return Status::Ok();
    }
    while (true) {
      SkipSpace();
      std::string key;
      QCONT_RETURN_IF_ERROR(ParseStringRaw(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      SkipSpace();
      JsonValue value;
      QCONT_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      members[std::move(key)] = std::move(value);
      SkipSpace();
      if (Consume('}')) break;
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
    *out = JsonValue::Object(std::move(members));
    return Status::Ok();
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace server
}  // namespace qcont
