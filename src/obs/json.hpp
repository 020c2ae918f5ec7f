// Minimal JSON support for the observability layer: an append-only writer
// (correct string escaping, locale-independent number formatting) and a
// small recursive-descent parser for the flat documents this layer itself
// emits (manifests, metric snapshots). Not a general-purpose JSON library
// — no external dependency is available in the build image, and the obs
// formats only need objects/arrays/strings/numbers/bools/null.
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hvc::obs::json {

/// Escape `s` into a JSON string literal (with surrounding quotes).
inline std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
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
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// Shortest round-trippable representation of a double that is still
/// valid JSON (no "nan"/"inf": they are clamped to null-like 0).
inline std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest form that parses back exactly.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) return probe;
  }
  return buf;
}

inline std::string number(std::int64_t v) { return std::to_string(v); }
inline std::string number(std::uint64_t v) { return std::to_string(v); }

// ---- Parsing (subset: what the obs writers emit) ----

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> array;
  std::map<std::string, Value, std::less<>> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] const Value* find(std::string_view key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  [[nodiscard]] double number_or(std::string_view key, double dflt) const {
    const Value* v = find(key);
    return v != nullptr && v->is_number() ? v->num : dflt;
  }
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string dflt) const {
    const Value* v = find(key);
    return v != nullptr && v->is_string() ? v->str : dflt;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// Parse a full document; returns false on any syntax error or
  /// trailing garbage.
  bool parse(Value* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            // Obs documents only escape control characters (< 0x80).
            out->push_back(static_cast<char>(code & 0x7f));
            break;
          }
          default: return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }

  bool parse_number(double* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      eat_digits();
    }
    if (!digits) return false;
    // The whole token must convert. from_chars takes no leading '+'.
    std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.front() == '+') tok.remove_prefix(1);
    const char* const end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, *out);
    if (ptr != end) return false;
    if (ec == std::errc::result_out_of_range) {
      // from_chars reports overflow and underflow alike. strtod tells them
      // apart on the token it already accepted: overflow (+-inf) is a
      // syntax error; underflow parses to +-0 or a subnormal, as before.
      *out = std::strtod(std::string(tok).c_str(), nullptr);
      return !std::isinf(*out);
    }
    return ec == std::errc();
  }

  bool parse_value(Value* out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = Value::Kind::kObject;
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (!consume(':')) return false;
        Value v;
        if (!parse_value(&v)) return false;
        out->object.emplace(std::move(key), std::move(v));
        skip_ws();
        if (consume('}')) return true;
        if (!consume(',')) return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = Value::Kind::kArray;
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        Value v;
        if (!parse_value(&v)) return false;
        out->array.push_back(std::move(v));
        skip_ws();
        if (consume(']')) return true;
        if (!consume(',')) return false;
      }
    }
    if (c == '"') {
      out->kind = Value::Kind::kString;
      return parse_string(&out->str);
    }
    if (c == 't') {
      out->kind = Value::Kind::kBool;
      out->boolean = true;
      return parse_literal("true");
    }
    if (c == 'f') {
      out->kind = Value::Kind::kBool;
      out->boolean = false;
      return parse_literal("false");
    }
    if (c == 'n') {
      out->kind = Value::Kind::kNull;
      return parse_literal("null");
    }
    out->kind = Value::Kind::kNumber;
    return parse_number(&out->num);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Parse `text`; returns false on malformed input.
inline bool parse(std::string_view text, Value* out) {
  return Parser(text).parse(out);
}

/// Serialize a Value back to compact JSON. Object keys emit in sorted
/// (std::map) order, so serialize(parse(x)) is deterministic.
inline std::string serialize(const Value& v) {
  switch (v.kind) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return v.boolean ? "true" : "false";
    case Value::Kind::kNumber: return number(v.num);
    case Value::Kind::kString: return quote(v.str);
    case Value::Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) out += ',';
        out += serialize(v.array[i]);
      }
      out += ']';
      return out;
    }
    case Value::Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, child] : v.object) {
        if (!first) out += ',';
        first = false;
        out += quote(key) + ":" + serialize(child);
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

/// Syntax-only validation (used by tests on large trace documents).
inline bool valid(std::string_view text) {
  Value v;
  return parse(text, &v);
}

}  // namespace hvc::obs::json
