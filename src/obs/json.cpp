#include "obs/json.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace hvc::obs::json {

char* shortest(char* out, double v) {
  if (!std::isfinite(v)) {
    *out = '0';
    return out + 1;
  }
  char* const end = out + 32;
  // No precision below the shortest round-trip digit count can read back
  // as v, so the search starts there. %.{p}g at that count rounds to the
  // nearest p-digit decimal, which can miss a lopsided rounding interval
  // (v a power of two); the search then goes on. 17 always round-trips.
  const char* const sci =
      std::to_chars(out, end, v, std::chars_format::scientific).ptr;
  int p = 0;
  for (const char* c = out; c != sci && *c != 'e'; ++c) {
    p += *c >= '0' && *c <= '9' ? 1 : 0;
  }
  for (;; ++p) {
    char* const last =
        std::to_chars(out, end, v, std::chars_format::general, p).ptr;
    if (p >= 17) return last;
    double back = 0;
    const auto r = std::from_chars(out, last, back);
    if (r.ec == std::errc() && back == v) return last;
  }
}

Writer::Writer(const std::string& path)
    : file_(std::fopen(path.c_str(), "wb")), path_(path) {
  if (file_ == nullptr) {
    throw std::runtime_error(path + ": cannot open for writing");
  }
  // The writer's buffer is the only one: each write_out() is one write.
  std::setvbuf(file_, nullptr, _IONBF, 0);
  buf_.resize(kBufferBytes);
}

Writer::~Writer() {
  if (file_ != nullptr) std::fclose(file_);
}

Writer& Writer::str(std::string_view s) {
  put('"');
  std::size_t run = 0;  // first byte not yet written
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    raw(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': raw("\\\""); break;
      case '\\': raw("\\\\"); break;
      case '\n': raw("\\n"); break;
      case '\r': raw("\\r"); break;
      case '\t': raw("\\t"); break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        raw(std::string_view(esc, sizeof esc));
      }
    }
  }
  raw(s.substr(run));
  return put('"');
}

Writer& Writer::ring_counts(std::uint64_t capacity, std::uint64_t recorded) {
  return raw("\"capacity\":")
      .num(capacity)
      .raw(",\"recorded\":")
      .num(recorded)
      .raw(",\"overwritten\":")
      .num(recorded - capacity);
}

Writer& Writer::value(const Value& v) {
  switch (v.kind) {
    case Value::Kind::kNull: return raw("null");
    case Value::Kind::kBool: return raw(v.boolean ? "true" : "false");
    case Value::Kind::kNumber: return num(v.num);
    case Value::Kind::kString: return str(v.str);
    case Value::Kind::kArray: {
      put('[');
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) put(',');
        value(v.array[i]);
      }
      return put(']');
    }
    case Value::Kind::kObject: {
      put('{');
      bool first = true;
      for (const auto& [key, child] : v.object) {
        if (!first) put(',');
        first = false;
        str(key).put(':').value(child);
      }
      return put('}');
    }
  }
  return raw("null");
}

void Writer::overflow(std::string_view s) {
  if (file_ == nullptr) {
    buf_.resize(std::max({2 * buf_.size(), used_ + s.size(), std::size_t{256}}));
  } else {
    write_out(std::string_view(buf_.data(), used_));
    used_ = 0;
    if (s.size() > buf_.size()) {
      write_out(s);
      return;
    }
  }
  std::memcpy(buf_.data() + used_, s.data(), s.size());
  used_ += s.size();
}

void Writer::write_out(std::string_view s) {
  if (std::fwrite(s.data(), 1, s.size(), file_) != s.size()) {
    throw std::runtime_error(path_ + ": write failed");
  }
}

void Writer::close() {
  if (file_ == nullptr) return;
  std::FILE* const f = std::exchange(file_, nullptr);
  const bool wrote = std::fwrite(buf_.data(), 1, used_, f) == used_;
  used_ = 0;
  if (std::fclose(f) != 0 || !wrote) {
    throw std::runtime_error(path_ + ": write failed");
  }
}

}  // namespace hvc::obs::json
