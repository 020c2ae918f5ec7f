// Minimal JSON support for the observability layer: the one writer every
// run artifact goes through, and a small recursive-descent parser for the
// flat documents this layer itself emits (manifests, metric snapshots).
// Not a general-purpose JSON library — no external dependency is
// available in the build image, and the obs formats only need
// objects/arrays/strings/numbers/bools/null.
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hvc::obs::json {

struct Value;

/// Writes the shortest `%.{p}g` text of `v` that reads back as `v`
/// exactly into `out` (at least 32 chars), and returns its end. NaN and
/// +-inf have no JSON token; they are written as 0.
char* shortest(char* out, double v);

/// The one writer behind every artifact: JSONL exports, Chrome traces and
/// the results files. It owns the number formats (shortest round-trip
/// `%g`, `%.3f`, integers), string escaping and the truncation flag, so
/// each has one definition.
///
/// A Writer made with a path streams: text collects in a fixed buffer
/// that is written out whenever it fills, so an export never holds its
/// whole artifact. A default-made Writer keeps the whole text, which
/// take() returns; the string-returning exports are that mode.
class Writer {
 public:
  static constexpr std::size_t kBufferBytes = std::size_t{64} << 10;

  Writer() = default;
  /// Creates or truncates `path` now. Throws std::runtime_error naming
  /// the path when it cannot be opened.
  explicit Writer(const std::string& path);
  /// Closes an open file without reporting; call close() to report.
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Text that is already JSON (keys, punctuation, fixed tokens).
  Writer& raw(std::string_view s) {
    if (s.size() > buf_.size() - used_) {
      overflow(s);
    } else {
      std::memcpy(buf_.data() + used_, s.data(), s.size());
      used_ += s.size();
    }
    return *this;
  }
  Writer& put(char c) { return raw(std::string_view(&c, 1)); }
  /// `s` as a JSON string literal, quotes included.
  Writer& str(std::string_view s);
  /// Shortest round-trip form (see shortest()).
  Writer& num(double v) {
    char buf[32];
    return raw(std::string_view(buf, static_cast<std::size_t>(
                                          shortest(buf, v) - buf)));
  }
  template <std::integral T>
  Writer& num(T v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return raw(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
  }
  /// `%.3f`: the microsecond and millisecond fields (t_us, d_ms, ts, dur).
  Writer& fixed3(double v) {
    char buf[328];  // +-DBL_MAX prints 309 integer digits
    const auto r =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 3);
    return raw(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
  }
  /// A wrapped ring's truncation flag, in the one shape every export
  /// writes it: "capacity":C,"recorded":R,"overwritten":R-C.
  Writer& ring_counts(std::uint64_t capacity, std::uint64_t recorded);
  /// Compact JSON for a parsed value; object keys in sorted order.
  Writer& value(const Value& v);

  /// Writes out what is buffered and closes the file. Throws
  /// std::runtime_error naming the path when a write or the close
  /// failed. Does nothing for an in-memory Writer.
  void close();
  /// An in-memory Writer's text; the Writer is left empty.
  [[nodiscard]] std::string take() {
    buf_.resize(used_);
    used_ = 0;
    return std::move(buf_);
  }

 private:
  /// raw() when `s` does not fit: an in-memory Writer doubles its buffer;
  /// a streaming one writes the buffer out, then `s` too if it is larger.
  void overflow(std::string_view s);
  void write_out(std::string_view s);

  /// The text is buf_[0, used_); the rest of buf_ is room to append into
  /// without a reallocation or a size update per call.
  std::string buf_;
  std::size_t used_ = 0;
  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Escape `s` into a JSON string literal (with surrounding quotes).
inline std::string quote(std::string_view s) {
  Writer w;
  w.str(s);
  return w.take();
}

/// Shortest round-trippable representation of a double that is still
/// valid JSON (no "nan"/"inf": they are clamped to null-like 0).
inline std::string number(double v) {
  char buf[32];
  return std::string(buf, shortest(buf, v));
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

  /// Parse a document that is one object without building it whole:
  /// each element of the array member `array_key` goes to
  /// `element(const Value&)` as soon as it is parsed, and every other
  /// member to `member(const std::string& key, const Value&)`. Returns
  /// false on a syntax error or trailing garbage, having handed over
  /// whatever came before it.
  template <typename Element, typename Member>
  bool parse_object_streaming(std::string_view array_key, Element element,
                              Member member) {
    skip_ws();
    if (!consume('{')) return false;
    skip_ws();
    if (!consume('}')) {
      do {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (!consume(':')) return false;
        skip_ws();
        if (key == array_key && consume('[')) {
          skip_ws();
          if (!consume(']')) {
            do {
              Value v;
              if (!parse_value(&v)) return false;
              element(v);
              skip_ws();
            } while (consume(','));
            if (!consume(']')) return false;
          }
        } else {
          Value v;
          if (!parse_value(&v)) return false;
          member(key, v);
        }
        skip_ws();
      } while (consume(','));
      if (!consume('}')) return false;
    }
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
  Writer w;
  w.value(v);
  return w.take();
}

/// Syntax-only validation (used by tests on large trace documents).
inline bool valid(std::string_view text) {
  Value v;
  return parse(text, &v);
}

}  // namespace hvc::obs::json
