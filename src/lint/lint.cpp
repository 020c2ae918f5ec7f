#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/json.hpp"

namespace hvc::lint {

/// R7: the sanctioned clock island — the only places host clocks are
/// legal. src/obs/prof* implements the sanctioned accessors; bench/ is
/// harness code that measures the host by design (and never feeds
/// simulation state). Paths are compared as-given plus with '\\'
/// normalized, so both "bench/x.cpp" and "/abs/repo/bench/x.cpp" match.
bool in_clock_island(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  if (p.find("src/obs/prof") != std::string::npos) return true;
  if (p.rfind("bench/", 0) == 0) return true;
  return p.find("/bench/") != std::string::npos;
}

namespace {

namespace fs = std::filesystem;

// Diagnostics about the suppression machinery itself; not suppressible.
constexpr const char* kAllowNeedsJustification = "allow-needs-justification";
constexpr const char* kAllowUnknownRule = "allow-unknown-rule";

[[nodiscard]] bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

}  // namespace

// ---- Scrubbed ---------------------------------------------------------

int Scrubbed::line_of(std::size_t offset) const {
  const auto it =
      std::upper_bound(line_starts.begin(), line_starts.end(), offset);
  return static_cast<int>(it - line_starts.begin());
}

std::string_view Scrubbed::code_line(int line) const {
  const auto i = static_cast<std::size_t>(line - 1);
  if (i >= line_starts.size()) return {};
  const std::size_t start = line_starts[i];
  const std::size_t end =
      i + 1 < line_starts.size() ? line_starts[i + 1] - 1 : code.size();
  return std::string_view(code).substr(start, end - start);
}

std::string_view Scrubbed::comment_line(int line) const {
  const auto i = static_cast<std::size_t>(line - 1);
  if (i >= line_starts.size()) return {};
  const std::size_t start = line_starts[i];
  const std::size_t end =
      i + 1 < line_starts.size() ? line_starts[i + 1] - 1 : comments.size();
  return std::string_view(comments).substr(start, end - start);
}

Scrubbed scrub(std::string_view text) {
  Scrubbed out;
  out.code.assign(text.size(), ' ');
  out.comments.assign(text.size(), ' ');
  out.line_starts.push_back(0);

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_delim;  // the )delim" terminator for raw strings

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      out.code[i] = '\n';
      out.comments[i] = '\n';
      out.line_starts.push_back(i + 1);
      if (state == State::kLineComment) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;  // swallow both slashes
          if (i < text.size() && text[i] == '\n') --i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"' &&
                   (i >= 1 && text[i - 1] == 'R' &&
                    (i < 2 || !is_word(text[i - 2])))) {
          // R"delim( ... )delim"
          std::size_t p = i + 1;
          while (p < text.size() && text[p] != '(') ++p;
          raw_delim = ")" + std::string(text.substr(i + 1, p - i - 1)) + "\"";
          out.code[i] = '"';
          i = p;  // leave contents blanked from here on
          state = State::kRawString;
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kString;
        } else if (c == '\'') {
          out.code[i] = '\'';
          state = State::kChar;
        } else {
          out.code[i] = c;
        }
        break;
      case State::kLineComment:
        out.comments[i] = c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          ++i;
          state = State::kCode;
        } else {
          out.comments[i] = c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip the escaped char (stays blanked)
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          out.code[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

namespace {

// ---- suppression directives -------------------------------------------

struct FileSuppressions {
  /// (rule, line) pairs the file explicitly allows.
  std::set<std::pair<std::string, int>> allows;
  std::set<std::string> file_allows;

  [[nodiscard]] bool suppressed(const std::string& rule, int line) const {
    return file_allows.count(rule) > 0 || allows.count({rule, line}) > 0;
  }
};

/// Parse every suppression directive — `allow(...)` and `allow-file(...)`
/// forms. Malformed/unjustified/unknown-rule directives become findings
/// (never themselves suppressible). Directives on a comment-only line
/// cover the next code line.
FileSuppressions collect_suppressions(const std::string& path,
                                      const Scrubbed& sc,
                                      std::vector<Finding>* findings) {
  FileSuppressions out;
  constexpr std::string_view kTag = "hvc-lint:";
  for (int line = 1; line <= static_cast<int>(sc.line_count()); ++line) {
    const std::string_view comment = sc.comment_line(line);
    std::size_t at = comment.find(kTag);
    if (at == std::string_view::npos) continue;
    std::string_view rest = trim(comment.substr(at + kTag.size()));

    bool file_scope = false;
    if (rest.rfind("allow-file", 0) == 0) {
      file_scope = true;
      rest.remove_prefix(std::string_view("allow-file").size());
    } else if (rest.rfind("allow", 0) == 0) {
      rest.remove_prefix(std::string_view("allow").size());
    } else {
      findings->push_back({path, line, kAllowUnknownRule, Severity::kError,
                           "unrecognized hvc-lint directive (expected "
                           "allow(<rule>) or allow-file(<rule>))",
});
      continue;
    }
    rest = trim(rest);
    if (rest.empty() || rest.front() != '(') {
      findings->push_back({path, line, kAllowUnknownRule, Severity::kError,
                           "malformed allow: expected (<rule>[,<rule>...])",
});
      continue;
    }
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      findings->push_back({path, line, kAllowUnknownRule, Severity::kError,
                           "malformed allow: missing ')'",
});
      continue;
    }
    const std::string_view rule_list = rest.substr(1, close - 1);
    std::string_view after = trim(rest.substr(close + 1));

    // A justification is mandatory: ": why this is safe". The "why" is
    // what turns an allow from a mute button into a proof obligation.
    bool justified = false;
    if (!after.empty() && after.front() == ':') {
      const std::string_view why = trim(after.substr(1));
      justified = why.size() >= 10;
    }
    if (!justified) {
      // Continuation comment lines immediately below count as the
      // justification body (long explanations wrap).
      const std::string_view next_comment =
          line < static_cast<int>(sc.line_count())
              ? trim(sc.comment_line(line + 1))
              : std::string_view{};
      justified = !after.empty() && after.front() == ':' &&
                  next_comment.size() >= 10;
    }
    if (!justified) {
      findings->push_back(
          {path, line, kAllowNeedsJustification, Severity::kError,
           "allow() must carry a justification: \"// hvc-lint: "
           "allow(rule): why this is provably safe\""});
      continue;
    }

    // Split the rule list and register.
    std::size_t start = 0;
    while (start <= rule_list.size()) {
      std::size_t comma = rule_list.find(',', start);
      if (comma == std::string_view::npos) comma = rule_list.size();
      const std::string rule{trim(rule_list.substr(start, comma - start))};
      start = comma + 1;
      if (rule.empty()) continue;
      if (!known_rule(rule)) {
        findings->push_back({path, line, kAllowUnknownRule, Severity::kError,
                             "allow names unknown rule '" + rule + "'",
});
        continue;
      }
      // R7: wallclock suppressions are themselves banned outside the
      // clock island — host time comes from obs::prof::now_ns(), not
      // from a local carve-out. (Island files skip R1 entirely, so a
      // wallclock allow there is merely dead weight, not an error.)
      if (rule == "wallclock" && !in_clock_island(path)) {
        findings->push_back(
            {path, line, "clock-island", Severity::kError,
             "allow(wallclock) outside the clock island (src/obs/prof*, "
             "bench/): call obs::prof::now_ns()/cycles() instead of "
             "suppressing the wallclock ban locally",
});
        continue;
      }
      if (file_scope) {
        out.file_allows.insert(rule);
        continue;
      }
      out.allows.insert({rule, line});
      // A directive on a comment-only line covers the next code line.
      if (trim(sc.code_line(line)).empty()) {
        int next = line + 1;
        while (next <= static_cast<int>(sc.line_count()) &&
               trim(sc.code_line(next)).empty() &&
               sc.comment_line(next).find(kTag) == std::string_view::npos) {
          ++next;
        }
        out.allows.insert({rule, next});
      }
    }
  }
  return out;
}

// ---- R1: wallclock / entropy ------------------------------------------

struct IdentPattern {
  std::string_view ident;
  bool must_be_call;  ///< require '(' after (C library functions)
  std::string_view what;
};

constexpr IdentPattern kWallclockPatterns[] = {
    {"system_clock", false, "std::chrono::system_clock"},
    {"steady_clock", false, "std::chrono::steady_clock"},
    {"high_resolution_clock", false, "std::chrono::high_resolution_clock"},
    {"random_device", false, "std::random_device"},
    {"rand", true, "rand()"},
    {"srand", true, "srand()"},
    {"random", true, "random()"},
    {"time", true, "time()"},
    {"clock", true, "clock()"},
    {"gettimeofday", true, "gettimeofday()"},
    {"clock_gettime", true, "clock_gettime()"},
};

void check_wallclock(const std::string& path, const Scrubbed& sc,
                     std::vector<Finding>* findings) {
  const std::string& code = sc.code;
  for (const auto& pat : kWallclockPatterns) {
    std::size_t at = 0;
    while ((at = code.find(pat.ident, at)) != std::string::npos) {
      const std::size_t end = at + pat.ident.size();
      const char before = at > 0 ? code[at - 1] : '\0';
      const char after = end < code.size() ? code[end] : '\0';
      const bool bounded = !is_word(before) && !is_word(after);
      // C-library calls: exclude member/qualified uses (.time(, ::time()
      // would be something else entirely) and require a call.
      bool fires = bounded;
      if (fires && pat.must_be_call) {
        std::size_t p = end;
        while (p < code.size() && is_space(code[p])) ++p;
        fires = p < code.size() && code[p] == '(';
        if (before == '.' || before == ':' || before == '>') fires = false;
      }
      if (fires) {
        findings->push_back(
            {path, sc.line_of(at), "wallclock", Severity::kError,
             std::string(pat.what) +
                 ": wall-clock/entropy source in simulation code (derive "
                 "time from sim::Simulator and randomness from sim::Rng so "
                 "runs stay reproducible)"});
      }
      at = end;
    }
  }
}

// ---- R2: unordered containers -----------------------------------------

void check_unordered(const std::string& path, const Scrubbed& sc,
                     std::vector<Finding>* findings) {
  for (const std::string_view ident : {std::string_view("unordered_map"),
                                       std::string_view("unordered_set")}) {
    std::size_t at = 0;
    while ((at = sc.code.find(ident, at)) != std::string::npos) {
      const std::size_t end = at + ident.size();
      const char before = at > 0 ? sc.code[at - 1] : '\0';
      const char after = end < sc.code.size() ? sc.code[end] : '\0';
      const int line = sc.line_of(at);
      // #include <unordered_map> lines are not uses.
      const bool preprocessor =
          trim(sc.code_line(line)).rfind("#", 0) == 0;
      if (!is_word(before) && !is_word(after) && !preprocessor) {
        findings->push_back(
            {path, line, "unordered-container", Severity::kWarning,
             "std::" + std::string(ident) +
                 ": iteration order is unspecified, so any traversal "
                 "feeding an export or steering decision is a latent "
                 "nondeterminism bug; use std::map/std::set, sort before "
                 "export, or allow-tag with a proof of order-independence"});
      }
      at = end;
    }
  }
}

// ---- R3: steer() audit reasons ----------------------------------------

/// Find the offset of the matching close brace/paren for the open one at
/// `open` (which must point at '(' or '{'). npos if unbalanced.
std::size_t match_forward(const std::string& code, std::size_t open) {
  const char oc = code[open];
  const char cc = oc == '(' ? ')' : '}';
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == oc) ++depth;
    if (code[i] == cc && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Collect identifiers that provably carry a reason inside `body`:
/// `X.reason` mentions and `Decision X = ...steer(...)` initializations.
std::set<std::string> reason_carrying_vars(const std::string& body) {
  std::set<std::string> vars;
  std::size_t at = 0;
  while ((at = body.find(".reason", at)) != std::string::npos) {
    std::size_t s = at;
    while (s > 0 && is_word(body[s - 1])) --s;
    if (s < at) vars.insert(body.substr(s, at - s));
    at += 7;
  }
  at = 0;
  while ((at = body.find("Decision", at)) != std::string::npos) {
    std::size_t p = at + 8;
    while (p < body.size() && is_space(body[p])) ++p;
    std::size_t vs = p;
    while (p < body.size() && is_word(body[p])) ++p;
    if (p > vs) {
      const std::size_t semi = body.find(';', p);
      const std::string init =
          body.substr(p, semi == std::string::npos ? std::string::npos
                                                   : semi - p);
      if (init.find("steer") != std::string::npos ||
          init.find("reason") != std::string::npos) {
        vars.insert(body.substr(vs, p - vs));
      }
    }
    at = p;
  }
  return vars;
}

void check_steer_reasons(const std::string& path, const Scrubbed& sc,
                         std::vector<Finding>* findings) {
  const std::string& code = sc.code;
  std::size_t at = 0;
  while ((at = code.find("steer", at)) != std::string::npos) {
    const std::size_t end = at + 5;
    const char before = at > 0 ? code[at - 1] : '\0';
    if (is_word(before) || (end < code.size() && is_word(code[end]))) {
      at = end;
      continue;
    }
    // Must be a call/definition: next non-space char is '('.
    std::size_t paren = end;
    while (paren < code.size() && is_space(code[paren])) ++paren;
    if (paren >= code.size() || code[paren] != '(') {
      at = end;
      continue;
    }
    // Walk back over the qualifier chain (Class::steer) and whitespace;
    // a *definition* has the return type `Decision` right before it.
    std::size_t q = at;
    while (q > 0 && (is_word(code[q - 1]) || code[q - 1] == ':')) --q;
    while (q > 0 && is_space(code[q - 1])) --q;
    if (q < 8 || code.compare(q - 8, 8, "Decision") != 0 ||
        (q >= 9 && is_word(code[q - 9]))) {
      at = end;
      continue;
    }
    const std::size_t close = match_forward(code, paren);
    if (close == std::string::npos) {
      at = end;
      continue;
    }
    // Skim const/override/final/noexcept; stop at '{' (definition) or
    // ';' / '=' (declaration, defaulted, pure virtual).
    std::size_t p = close + 1;
    while (p < code.size() && code[p] != '{' && code[p] != ';' &&
           code[p] != '=') {
      ++p;
    }
    if (p >= code.size() || code[p] != '{') {
      at = end;
      continue;
    }
    const std::size_t body_end = match_forward(code, p);
    if (body_end == std::string::npos) {
      at = end;
      continue;
    }
    const std::string body = code.substr(p, body_end - p);
    const std::set<std::string> ok_vars = reason_carrying_vars(body);

    std::size_t r = 0;
    while ((r = body.find("return", r)) != std::string::npos) {
      const char rb = r > 0 ? body[r - 1] : '\0';
      const char ra = r + 6 < body.size() ? body[r + 6] : '\0';
      if (is_word(rb) || is_word(ra)) {
        r += 6;
        continue;
      }
      const std::size_t semi = body.find(';', r);
      const std::string stmt =
          body.substr(r, semi == std::string::npos ? std::string::npos
                                                   : semi - r);
      // A reason is present when the return carries a string literal
      // (aggregate init with a reason tag), mentions `reason` directly,
      // or delegates to another steer() — the delegate's own exit paths
      // are checked wherever they are defined.
      bool ok = stmt.find('"') != std::string::npos ||
                stmt.find("reason") != std::string::npos ||
                stmt.find("steer") != std::string::npos;
      if (!ok) {
        // `return X;` where X provably carries a reason.
        const std::string_view expr = trim(std::string_view(stmt).substr(6));
        ok = !expr.empty() && ok_vars.count(std::string(expr)) > 0;
      }
      if (!ok) {
        findings->push_back(
            {path, sc.line_of(p + r), "steer-missing-reason",
             Severity::kError,
             "return in a steer() implementation without an audit reason "
             "tag (set Decision::reason on every exit path so the "
             "steering-decision audit log stays complete)"});
      }
      r = semi == std::string::npos ? body.size() : semi;
    }
    at = body_end;
  }
}

// ---- R4: raw new / delete ---------------------------------------------

void check_new_delete(const std::string& path, const Scrubbed& sc,
                      std::vector<Finding>* findings) {
  const std::string& code = sc.code;
  for (const std::string_view kw : {std::string_view("new"),
                                    std::string_view("delete")}) {
    std::size_t at = 0;
    while ((at = code.find(kw, at)) != std::string::npos) {
      const std::size_t end = at + kw.size();
      const char after = end < code.size() ? code[end] : '\0';
      if ((at > 0 && is_word(code[at - 1])) || is_word(after)) {
        at = end;
        continue;
      }
      // `= delete;` (deleted special members) and `operator new/delete`
      // declarations are not ownership transfers.
      std::size_t b = at;
      while (b > 0 && is_space(code[b - 1])) --b;
      const bool deleted_fn = kw == "delete" && b > 0 && code[b - 1] == '=';
      bool operator_decl = false;
      if (b >= 8 && code.compare(b - 8, 8, "operator") == 0) {
        operator_decl = true;
      }
      if (!deleted_fn && !operator_decl) {
        findings->push_back(
            {path, sc.line_of(at), "raw-new-delete", Severity::kError,
             "raw " + std::string(kw) +
                 ": ownership goes through std::unique_ptr / containers "
                 "in this codebase (leaks in long sweep runs are silent)"});
      }
      at = end;
    }
  }
}

// ---- R5: floating-point equality --------------------------------------

/// True when `expr` contains a floating-point literal token (1.0, .5,
/// 2e5, 0x1.0p-53).
bool has_float_literal(std::string_view expr) {
  for (std::size_t i = 0; i < expr.size(); ++i) {
    const char c = expr[i];
    if (c != '.' && (std::isdigit(static_cast<unsigned char>(c)) == 0)) {
      continue;
    }
    // Token must not be glued to an identifier: `p50` is not a float.
    if (i > 0 && is_word(expr[i - 1])) continue;
    std::size_t j = i;
    bool saw_digit = false;
    bool saw_dot = false;
    bool saw_exp = false;
    while (j < expr.size()) {
      const char d = expr[j];
      if (std::isdigit(static_cast<unsigned char>(d)) != 0) {
        saw_digit = true;
      } else if (d == '.' && !saw_dot) {
        saw_dot = true;
      } else if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && saw_digit &&
                 j + 1 < expr.size() &&
                 (std::isdigit(static_cast<unsigned char>(expr[j + 1])) !=
                      0 ||
                  expr[j + 1] == '+' || expr[j + 1] == '-')) {
        saw_exp = true;
        ++j;  // consume sign/first digit marker
      } else if (d == 'x' || d == 'X' || (d >= 'a' && d <= 'f') ||
                 (d >= 'A' && d <= 'F')) {
        // hex digits / prefix, only meaningful if a float marker follows
      } else {
        break;
      }
      ++j;
    }
    if (saw_digit && (saw_dot || saw_exp)) {
      // `1.` / `1.0` / `2e5`: also require not glued to an identifier
      // char on the right (e.g. `1.foo` cannot happen in valid C++).
      if (j >= expr.size() || !is_word(expr[j]) || expr[j] == 'f') return true;
    }
    i = j;
  }
  return false;
}

void check_float_equality(const std::string& path, const Scrubbed& sc,
                          std::vector<Finding>* findings) {
  const std::string& code = sc.code;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    const bool eq = code[i] == '=' && code[i + 1] == '=';
    const bool ne = code[i] == '!' && code[i + 1] == '=';
    if (!eq && !ne) continue;
    const char before = i > 0 ? code[i - 1] : '\0';
    if (before == '=' || before == '!' || before == '<' || before == '>') {
      continue;
    }
    if (i + 2 < code.size() && code[i + 2] == '=') continue;
    // Operand windows: out to the nearest expression boundary.
    constexpr std::string_view kStops = ",;(){}?&|!<>=";
    std::size_t ls = i;
    while (ls > 0 && kStops.find(code[ls - 1]) == std::string_view::npos &&
           code[ls - 1] != '\n') {
      --ls;
    }
    std::size_t re = i + 2;
    while (re < code.size() &&
           kStops.find(code[re]) == std::string_view::npos &&
           code[re] != '\n') {
      ++re;
    }
    const std::string_view lhs =
        trim(std::string_view(code).substr(ls, i - ls));
    const std::string_view rhs =
        trim(std::string_view(code).substr(i + 2, re - i - 2));
    if (has_float_literal(lhs) || has_float_literal(rhs)) {
      findings->push_back(
          {path, sc.line_of(i), "float-equality", Severity::kWarning,
           "floating-point ==/!= comparison: metric values must be "
           "compared with an ordering or an explicit tolerance (exact "
           "equality is representation-dependent)"});
    }
    ++i;
  }
}

// ---- R8: std::hash ----------------------------------------------------

void check_std_hash(const std::string& path, const Scrubbed& sc,
                    std::vector<Finding>* findings) {
  const std::string& code = sc.code;
  std::size_t at = 0;
  while ((at = code.find("hash", at)) != std::string::npos) {
    const std::size_t end = at + 4;
    const char before = at > 0 ? code[at - 1] : '\0';
    const char after = end < code.size() ? code[end] : '\0';
    if (is_word(before) || is_word(after)) {
      at = end;
      continue;
    }
    // Only the qualified form `std :: hash` (whitespace-tolerant); bare
    // `hash` identifiers and other-namespace hashes are fine.
    std::size_t p = at;
    while (p > 0 && is_space(code[p - 1])) --p;
    if (p < 2 || code[p - 1] != ':' || code[p - 2] != ':') {
      at = end;
      continue;
    }
    p -= 2;
    while (p > 0 && is_space(code[p - 1])) --p;
    if (p < 3 || code.compare(p - 3, 3, "std") != 0 ||
        (p > 3 && (is_word(code[p - 4]) || code[p - 4] == ':'))) {
      at = end;
      continue;
    }
    findings->push_back(
        {path, sc.line_of(at), "std-hash", Severity::kError,
         "std::hash: libstdc++ and libc++ hash the same value "
         "differently, so seeds/sampling keys derived from it diverge "
         "across platforms; use sim::fnv1a64 / sim::seed_mix "
         "(sim/seed.hpp) instead"});
    at = end;
  }
}

// ---- R6: header self-sufficiency --------------------------------------

bool compiler_available(const std::string& compiler) {
  const std::string cmd = compiler + " --version > /dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;  // NOLINT
}

void check_header_self_sufficient(const std::string& path,
                                  const Options& opts,
                                  std::vector<Finding>* findings) {
  static int counter = 0;
  const fs::path tmp_dir = fs::temp_directory_path();
  const std::string tag = std::to_string(++counter);
  const fs::path tu = tmp_dir / ("hvc_lint_hdr_" + tag + ".cpp");
  const fs::path err = tmp_dir / ("hvc_lint_hdr_" + tag + ".err");
  {
    std::ofstream out(tu);
    out << "#include \"" << fs::absolute(path).string() << "\"\n"
        << "int hvc_lint_header_check;\n";
  }
  std::string cmd = opts.compiler + " -fsyntax-only -std=c++20 -x c++";
  for (const auto& dir : opts.include_dirs) cmd += " -I " + dir;
  cmd += " " + tu.string() + " 2> " + err.string();
  const int rc = std::system(cmd.c_str());  // NOLINT
  if (rc != 0) {
    std::ifstream in(err);
    std::string first_error;
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("error:") != std::string::npos) {
        first_error = line;
        break;
      }
    }
    findings->push_back(
        {path, 1, "header-not-self-sufficient", Severity::kError,
         "header does not compile on its own (include what you use)" +
             (first_error.empty() ? std::string{}
                                  : ": " + first_error)});
  }
  std::error_code ec;
  fs::remove(tu, ec);
  fs::remove(err, ec);
}

void sort_findings(std::vector<Finding>* findings) {
  std::stable_sort(findings->begin(), findings->end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
}

/// The per-file rule battery (R1–R5, R8) over one scrubbed file;
/// results are unsuppressed.
void run_per_file_checks(const std::string& path, const Scrubbed& sc,
                         std::vector<Finding>* raw) {
  // The clock island may read host clocks freely; everywhere else R1
  // applies and (per R7) cannot be suppressed away.
  if (!in_clock_island(path)) check_wallclock(path, sc, raw);
  check_unordered(path, sc, raw);
  check_steer_reasons(path, sc, raw);
  check_new_delete(path, sc, raw);
  check_float_equality(path, sc, raw);
  check_std_hash(path, sc, raw);
}

/// Lint one file's text: suppression directives, the per-file battery,
/// and (when `compile` is set) the R6 compile check of `path` on disk.
/// Directive findings are never suppressible; everything else is.
std::vector<Finding> lint_text(const std::string& path, std::string_view text,
                               const Options* compile) {
  const Scrubbed sc = scrub(text);
  std::vector<Finding> out;
  const FileSuppressions allows = collect_suppressions(path, sc, &out);

  std::vector<Finding> raw;
  run_per_file_checks(path, sc, &raw);
  if (compile != nullptr) check_header_self_sufficient(path, *compile, &raw);
  for (auto& f : raw) {
    if (!allows.suppressed(f.rule, f.line)) out.push_back(std::move(f));
  }
  sort_findings(&out);
  return out;
}

}  // namespace

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"wallclock", Severity::kError,
       "no wall-clock/entropy sources in simulation code (R1)"},
      {"unordered-container", Severity::kWarning,
       "no std::unordered_map/set where order can leak into exports (R2)"},
      {"steer-missing-reason", Severity::kError,
       "every steer() return must set an audit reason tag (R3)"},
      {"raw-new-delete", Severity::kError,
       "no raw new/delete outside allow-tagged files (R4)"},
      {"float-equality", Severity::kWarning,
       "no floating-point ==/!= on metric values (R5)"},
      {"header-not-self-sufficient", Severity::kError,
       "headers must compile on their own (R6, --compile-check)"},
      {"clock-island", Severity::kError,
       "allow(wallclock) only inside src/obs/prof* and bench/ (R7)"},
      {"std-hash", Severity::kError,
       "no std::hash — platform-dependent; use sim/seed.hpp mixes (R8)"},
      {kAllowNeedsJustification, Severity::kError,
       "every allow() carries a justification"},
      {kAllowUnknownRule, Severity::kError,
       "allow() names only known rules"},
  };
  return kRules;
}

bool known_rule(std::string_view name) {
  for (const auto& r : rules()) {
    if (name == r.name) return true;
  }
  return false;
}

std::vector<Finding> lint_source(const std::string& path,
                                 std::string_view text) {
  return lint_text(path, text, nullptr);
}

std::vector<Finding> lint_file(const std::string& path, const Options& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {{path, 1, "io-error", Severity::kError, "cannot read file"}};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const bool is_header = path.size() >= 4 &&
                         (path.rfind(".hpp") == path.size() - 4 ||
                          path.rfind(".h") == path.size() - 2);
  return lint_text(path, buf.str(),
                   opts.compile_check && is_header ? &opts : nullptr);
}

std::vector<Finding> lint_tree(const std::vector<std::string>& roots,
                               const Options& opts) {
  Options effective = opts;
  if (effective.compile_check &&
      !compiler_available(effective.compiler)) {
    effective.compile_check = false;
  }

  std::vector<std::string> files;
  for (const auto& root : roots) {
    if (fs::is_regular_file(root)) {
      files.push_back(root);
      continue;
    }
    if (!fs::is_directory(root)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc") {
        files.push_back(entry.path().string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> out;
  for (const auto& f : files) {
    std::vector<Finding> one = lint_file(f, effective);
    out.insert(out.end(), std::make_move_iterator(one.begin()),
               std::make_move_iterator(one.end()));
  }
  if (opts.compile_check && !effective.compile_check) {
    out.push_back({"", 0, "compile-check-skipped", Severity::kNote,
                   "compiler '" + opts.compiler +
                       "' not found; header self-sufficiency (R6) not "
                       "checked"});
  }
  sort_findings(&out);
  return out;
}

std::string to_text(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    if (f.file.empty()) {
      out += std::string(severity_name(f.severity)) + ": " + f.message + "\n";
      continue;
    }
    out += f.file + ":" + std::to_string(f.line) + ": " +
           severity_name(f.severity) + ": [" + f.rule + "] " + f.message +
           "\n";
  }
  return out;
}

std::string to_json(const std::vector<Finding>& findings) {
  using obs::json::quote;
  std::string out = "{\"findings\":[";
  int errors = 0;
  int warnings = 0;
  int notes = 0;
  bool first = true;
  for (const auto& f : findings) {
    switch (f.severity) {
      case Severity::kError: ++errors; break;
      case Severity::kWarning: ++warnings; break;
      case Severity::kNote: ++notes; break;
    }
    if (!first) out += ',';
    first = false;
    out += "{\"file\":" + quote(f.file) +
           ",\"line\":" + std::to_string(f.line) +
           ",\"rule\":" + quote(f.rule) + ",\"severity\":" +
           quote(severity_name(f.severity)) +
           ",\"message\":" + quote(f.message) + "}";
  }
  out += "],\"errors\":" + std::to_string(errors) +
         ",\"warnings\":" + std::to_string(warnings) +
         ",\"notes\":" + std::to_string(notes) + "}";
  return out;
}

bool has_failure(const std::vector<Finding>& findings) {
  return std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.severity != Severity::kNote;
  });
}

std::string to_sarif(const std::vector<Finding>& findings) {
  using obs::json::quote;
  std::string out =
      "{\"$schema\":"
      "\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"hvc_lint\",\"rules\":[";
  bool first = true;
  for (const auto& r : rules()) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + quote(r.name) +
           ",\"shortDescription\":{\"text\":" + quote(r.summary) + "}}";
  }
  out += "]}},\"results\":[";
  first = true;
  for (const auto& f : findings) {
    if (!first) out += ',';
    first = false;
    const char* level = f.severity == Severity::kError     ? "error"
                        : f.severity == Severity::kWarning ? "warning"
                                                           : "note";
    out += "{\"ruleId\":" + quote(f.rule) + ",\"level\":" +
           quote(level) + ",\"message\":{\"text\":" + quote(f.message) +
           "}";
    if (!f.file.empty()) {
      out += ",\"locations\":[{\"physicalLocation\":{"
             "\"artifactLocation\":{\"uri\":" +
             quote(f.file) + "},\"region\":{\"startLine\":" +
             std::to_string(f.line > 0 ? f.line : 1) + "}}}]";
    }
    out += "}";
  }
  out += "]}]}";
  return out;
}

}  // namespace hvc::lint
