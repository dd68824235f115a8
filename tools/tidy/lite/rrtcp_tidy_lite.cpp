// rrtcp_tidy_lite — portable fallback for the rrtcp clang-tidy plugin.
//
// The real enforcement rail is tools/tidy/*.cpp: a clang-tidy module with
// full AST and type information, built against the LLVM dev packages in
// the CI tidy-plugin job. This tool is the second rail: a dependency-free
// token-level checker that implements conservative approximations of the
// same six check IDs, so the lint corpus (tools/tidy/corpus) and a sweep
// of src/ run under plain ctest on any machine with a C++ compiler — no
// clang, no LLVM headers.
//
// Shared conventions with the plugin:
//  * diagnostics print in clang-tidy format:
//      file:line:col: warning: <message> [rrtcp-<check>]
//  * `// NOLINT(<id>)` on the line and `// NOLINTNEXTLINE(<id>)` on the
//    preceding line suppress a diagnostic, as does a bare NOLINT.
//
// Being token-level, the lite checker is deliberately conservative: it
// only reports patterns it can classify with near-certainty (it must stay
// clean over all of src/, where the plugin is the precise tool). Its
// approximations per check are documented at each analyzer below.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace {

struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::size_t col = 0;
  std::string message;
  std::string check;
};

// One logical source line with its original 1-based number.
struct Line {
  std::string text;  // comments and string literals blanked out
  std::size_t number = 0;
};

struct SourceFile {
  std::string path;
  std::vector<Line> lines;
  // line number -> set of suppressed check ids ("*" = all).
  std::map<std::size_t, std::set<std::string>> nolint;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// True when `text[pos]` begins the whole identifier `word` (not a substring
// of a longer identifier).
bool word_at(const std::string& text, std::size_t pos,
             const std::string& word) {
  if (text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && ident_char(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= text.size() || !ident_char(text[end]);
}

std::size_t find_word(const std::string& text, const std::string& word,
                      std::size_t from = 0) {
  for (std::size_t p = text.find(word, from); p != std::string::npos;
       p = text.find(word, p + 1)) {
    if (word_at(text, p, word)) return p;
  }
  return std::string::npos;
}

// Record NOLINT markers, then blank comments, string and char literals so
// the analyzers never match inside them. Line structure is preserved.
SourceFile load(const std::string& path) {
  SourceFile f;
  f.path = path;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "rrtcp_tidy_lite: cannot open " << path << "\n";
    std::exit(2);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string src = ss.str();

  // Pass 1: split into raw lines and harvest NOLINT directives.
  std::vector<std::string> raw;
  {
    std::string cur;
    for (char c : src) {
      if (c == '\n') {
        raw.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    raw.push_back(cur);
  }
  auto parse_nolint = [&](const std::string& line, std::size_t lineno) {
    for (const char* kind : {"NOLINTNEXTLINE", "NOLINT"}) {
      const std::size_t p = line.find(kind);
      if (p == std::string::npos) continue;
      const std::size_t target =
          std::strcmp(kind, "NOLINTNEXTLINE") == 0 ? lineno + 1 : lineno;
      std::set<std::string>& ids = f.nolint[target];
      std::size_t q = p + std::strlen(kind);
      if (q < line.size() && line[q] == '(') {
        const std::size_t close = line.find(')', q);
        std::string inner = line.substr(q + 1, close == std::string::npos
                                                   ? std::string::npos
                                                   : close - q - 1);
        std::string id;
        std::stringstream items(inner);
        while (std::getline(items, id, ',')) {
          id.erase(std::remove_if(id.begin(), id.end(), ::isspace), id.end());
          if (!id.empty()) ids.insert(id);
        }
      } else {
        ids.insert("*");
      }
      break;  // NOLINTNEXTLINE contains NOLINT; handle the longest only
    }
  };
  for (std::size_t i = 0; i < raw.size(); ++i) parse_nolint(raw[i], i + 1);

  // Pass 2: blank comments / literals.
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State st = State::kCode;
  std::string out;
  out.reserve(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char n = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '/' && n == '/') {
          st = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && n == '*') {
          st = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          st = State::kString;
          out += '"';
        } else if (c == '\'') {
          st = State::kChar;
          out += '\'';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          st = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && n == '/') {
          st = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
          if (n == '\n') out.back() = '\n';
        } else if (c == '"') {
          st = State::kCode;
          out += '"';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          st = State::kCode;
          out += '\'';
        } else {
          out += ' ';
        }
        break;
    }
  }

  std::string cur;
  std::size_t lineno = 1;
  for (char c : out) {
    if (c == '\n') {
      f.lines.push_back(Line{cur, lineno});
      cur.clear();
      ++lineno;
    } else {
      cur += c;
    }
  }
  f.lines.push_back(Line{cur, lineno});
  return f;
}

bool suppressed(const SourceFile& f, std::size_t line,
                const std::string& check) {
  auto it = f.nolint.find(line);
  if (it == f.nolint.end()) return false;
  return it->second.count("*") > 0 || it->second.count(check) > 0;
}

void emit(std::vector<Diagnostic>& diags, const SourceFile& f,
          std::size_t line, std::size_t col, const std::string& check,
          const std::string& message) {
  if (suppressed(f, line, check)) return;
  diags.push_back(Diagnostic{f.path, line, col + 1, message, check});
}

// Whole-file text with a map from offset back to (line, col); preprocessor
// directives blanked so `#include <unordered_map>` never matches.
struct FlatText {
  std::string text;
  std::vector<std::size_t> line_of;  // offset -> 1-based line
  std::vector<std::size_t> col_of;   // offset -> 0-based column
};

FlatText flatten(const SourceFile& f) {
  FlatText ft;
  for (const Line& l : f.lines) {
    std::string t = l.text;
    std::size_t first = t.find_first_not_of(" \t");
    if (first != std::string::npos && t[first] == '#')
      t.assign(t.size(), ' ');
    for (std::size_t c = 0; c < t.size(); ++c) {
      ft.text += t[c];
      ft.line_of.push_back(l.number);
      ft.col_of.push_back(c);
    }
    ft.text += '\n';
    ft.line_of.push_back(l.number);
    ft.col_of.push_back(t.size());
  }
  return ft;
}

std::size_t match_paren(const std::string& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i] == '(') ++depth;
    if (t[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

std::size_t match_brace(const std::string& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i] == '{') ++depth;
    if (t[i] == '}' && --depth == 0) return i;
  }
  return std::string::npos;
}

// The brace scopes open at offset `at`, outermost first: a class or struct
// body by its name, any other scope (namespace, function or lambda body,
// braced initializer) as "". One forward pass over the text.
std::vector<std::string> scopes_at(const std::string& t, std::size_t at) {
  std::vector<std::string> stack;
  std::string pending;
  for (std::size_t i = 0; i < at && i < t.size(); ++i) {
    const char c = t[i];
    if (c == '{') {
      stack.push_back(pending);
      pending.clear();
    } else if (c == '}') {
      if (!stack.empty()) stack.pop_back();
    } else if (c == ';' || c == '(') {
      pending.clear();  // forward declaration / function parameters
    } else if (word_at(t, i, "class") || word_at(t, i, "struct")) {
      std::size_t q = i + (word_at(t, i, "class") ? 5 : 6);
      while (q < t.size() &&
             std::isspace(static_cast<unsigned char>(t[q])) != 0)
        ++q;
      std::size_t b = q;
      while (q < t.size() && ident_char(t[q])) ++q;
      if (q > b) pending = t.substr(b, q - b);
      i = q - 1;
    }
  }
  return stack;
}

// ---------------------------------------------------------------------------
// rrtcp-hot-path-alloc
//
// Approximation: bodies lexically attached to an RRTCP_HOT (or raw
// [[clang::annotate("rrtcp::hot")]]) marker are scanned for a curated
// allocating surface; RRTCP_HOT declarations without bodies contribute the
// function name to a hot set, and `Qualifier::name(...) {` definitions of
// hot names (across all files of the run) are scanned too. No transitive
// call following and no type information — the plugin's precise domain.

struct HotAnalyzer {
  // Qualified "Class::name" entries, so an out-of-line definition is only
  // treated as hot when its class matches the annotated declaration —
  // `LegacyScheduler::run` must not inherit hotness from `Simulator::run`.
  std::set<std::string> hot_names;
  std::set<std::string> cold_names;

  static std::string decl_name(const std::string& t, std::size_t decl_begin,
                               std::size_t paren) {
    // Identifier immediately before the '(' of the parameter list.
    std::size_t e = paren;
    while (e > decl_begin &&
           std::isspace(static_cast<unsigned char>(t[e - 1])) != 0)
      --e;
    std::size_t b = e;
    while (b > decl_begin && ident_char(t[b - 1])) --b;
    return t.substr(b, e - b);
  }

  // Name of the class/struct whose body encloses offset `at` (innermost
  // named scope), or "" at namespace/function scope.
  static std::string enclosing_class(const std::string& t, std::size_t at) {
    const std::vector<std::string> stack = scopes_at(t, at);
    for (std::size_t i = stack.size(); i-- > 0;)
      if (!stack[i].empty()) return stack[i];
    return "";
  }

  // First pass over one file: collect hot/cold qualified names.
  void collect(const FlatText& ft) {
    for (const char* marker : {"RRTCP_HOT", "RRTCP_COLD"}) {
      const bool hot = std::strcmp(marker, "RRTCP_HOT") == 0;
      for (std::size_t p = find_word(ft.text, marker); p != std::string::npos;
           p = find_word(ft.text, marker, p + 1)) {
        if (p > 0 && ft.text[p - 1] == '#') continue;  // the #define itself
        const std::size_t paren = ft.text.find('(', p);
        if (paren == std::string::npos) continue;
        const std::string name = decl_name(ft.text, p, paren);
        if (name.empty()) continue;
        const std::string cls = enclosing_class(ft.text, p);
        if (cls.empty()) continue;  // free functions scan inline only
        (hot ? hot_names : cold_names).insert(cls + "::" + name);
      }
    }
  }

  // Scan `body` (text range [begin, end)) of hot root `root`.
  void scan_body(const SourceFile& f, const FlatText& ft, std::size_t begin,
                 std::size_t end, const std::string& root,
                 std::vector<Diagnostic>& diags) const {
    static const char* kMemberSurface[] = {"push_back", "emplace_back",
                                           "resize"};
    static const char* kCallSurface[] = {"make_unique", "make_shared",
                                         "malloc", "calloc", "realloc",
                                         "strdup"};
    for (std::size_t i = begin; i < end; ++i) {
      if (word_at(ft.text, i, "new")) {
        // Placement new ("new (addr) T") does not allocate; skip it.
        std::size_t q = i + 3;
        while (q < end && std::isspace(static_cast<unsigned char>(ft.text[q])))
          ++q;
        if (q < end && ft.text[q] == '(') continue;
        emit(diags, f, ft.line_of[i], ft.col_of[i], "rrtcp-hot-path-alloc",
             "operator new reachable in hot function '" + root + "'");
      }
      for (const char* m : kMemberSurface) {
        if (word_at(ft.text, i, m) && i > 0 &&
            (ft.text[i - 1] == '.' ||
             (i > 1 && ft.text[i - 2] == '-' && ft.text[i - 1] == '>'))) {
          emit(diags, f, ft.line_of[i], ft.col_of[i], "rrtcp-hot-path-alloc",
               std::string("allocating container call '") + m +
                   "' in hot function '" + root + "'");
        }
      }
      for (const char* m : kCallSurface) {
        if (word_at(ft.text, i, m)) {
          emit(diags, f, ft.line_of[i], ft.col_of[i], "rrtcp-hot-path-alloc",
               std::string("allocation '") + m + "' in hot function '" +
                   root + "'");
        }
      }
    }
  }

  void analyze(const SourceFile& f, const FlatText& ft,
               std::vector<Diagnostic>& diags) const {
    // Inline bodies behind an explicit marker.
    for (const char* marker :
         {"RRTCP_HOT", "[[clang::annotate(\"rrtcp::hot\")]]"}) {
      for (std::size_t p = find_word(ft.text, "RRTCP_HOT");
           p != std::string::npos;
           p = find_word(ft.text, "RRTCP_HOT", p + 1)) {
        (void)marker;
        if (p > 0 && ft.text[p - 1] == '#') continue;
        const std::size_t paren = ft.text.find('(', p);
        if (paren == std::string::npos) continue;
        const std::size_t close = match_paren(ft.text, paren);
        if (close == std::string::npos) continue;
        // Body or declaration? First of '{' / ';' after the param list.
        std::size_t q = close + 1;
        while (q < ft.text.size() && ft.text[q] != '{' && ft.text[q] != ';')
          ++q;
        if (q >= ft.text.size() || ft.text[q] == ';') continue;
        const std::size_t body_end = match_brace(ft.text, q);
        if (body_end == std::string::npos) continue;
        scan_body(f, ft, q, body_end, decl_name(ft.text, p, paren), diags);
      }
      break;  // the raw attribute spelling is folded into RRTCP_HOT here
    }
    // Out-of-line definitions of declarations annotated hot elsewhere:
    // `Class::name(...) {`, matched with the qualifier so an unrelated
    // class's same-named method is never swept in.
    for (const std::string& qualified : hot_names) {
      if (cold_names.count(qualified)) continue;
      for (std::size_t p = ft.text.find(qualified + "(");
           p != std::string::npos;
           p = ft.text.find(qualified + "(", p + 1)) {
        if (!word_at(ft.text, p, qualified.substr(0, qualified.find(':'))))
          continue;
        const std::size_t paren = p + qualified.size();
        const std::size_t close = match_paren(ft.text, paren);
        if (close == std::string::npos) continue;
        std::size_t q = close + 1;
        // Allow `const` / `noexcept` / `override` between ')' and '{'.
        while (q < ft.text.size() &&
               (std::isspace(static_cast<unsigned char>(ft.text[q])) != 0 ||
                ident_char(ft.text[q])))
          ++q;
        if (q >= ft.text.size() || ft.text[q] != '{') continue;
        const std::size_t body_end = match_brace(ft.text, q);
        if (body_end == std::string::npos) continue;
        scan_body(f, ft, q, body_end, qualified, diags);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// rrtcp-unnamed-rng
//
// Flags std::rand/srand/rand_r, std::random_device, and time()-seeding.
// The named-stream layer itself (sim/rng.hpp, sim/rng.cpp) is exempt.

void check_unnamed_rng(const SourceFile& f, const FlatText& ft,
                       std::vector<Diagnostic>& diags) {
  const bool rng_layer = f.path.find("sim/rng.") != std::string::npos;
  if (rng_layer) return;
  struct Banned {
    const char* word;
    const char* why;
  };
  static const Banned kBanned[] = {
      {"rand", "std::rand is not replayable from a scenario seed"},
      {"srand", "global srand seeding breaks named-stream isolation"},
      {"rand_r", "rand_r draws outside the named-stream RNG layer"},
      {"random_device",
       "std::random_device is nondeterministic; derive a named stream from "
       "the scenario seed instead"},
  };
  for (const Banned& b : kBanned) {
    for (std::size_t p = find_word(ft.text, b.word); p != std::string::npos;
         p = find_word(ft.text, b.word, p + 1)) {
      // Member access (x.rand / x->rand) is some other API, not libc.
      if (p > 0 && (ft.text[p - 1] == '.' ||
                    (p > 1 && ft.text[p - 2] == '-' && ft.text[p - 1] == '>')))
        continue;
      emit(diags, f, ft.line_of[p], ft.col_of[p], "rrtcp-unnamed-rng",
           b.why);
    }
  }
  // Time-seeded engines: time(...) used as a constructor/seed argument.
  for (std::size_t p = find_word(ft.text, "time"); p != std::string::npos;
       p = find_word(ft.text, "time", p + 1)) {
    std::size_t q = p + 4;
    while (q < ft.text.size() &&
           std::isspace(static_cast<unsigned char>(ft.text[q])))
      ++q;
    if (q >= ft.text.size() || ft.text[q] != '(') continue;
    // Only the seeding idiom: time(nullptr) / time(0) / time(NULL).
    const std::size_t close = match_paren(ft.text, q);
    if (close == std::string::npos) continue;
    std::string arg = ft.text.substr(q + 1, close - q - 1);
    arg.erase(std::remove_if(arg.begin(), arg.end(), ::isspace), arg.end());
    if (arg == "nullptr" || arg == "0" || arg == "NULL") {
      emit(diags, f, ft.line_of[p], ft.col_of[p], "rrtcp-unnamed-rng",
           "wall-clock seeding makes runs unreplayable; seed from the "
           "scenario seed via a named stream");
    }
  }
}

// ---------------------------------------------------------------------------
// rrtcp-nondeterministic-iteration
//
// Collects variables declared as unordered containers or pointer-keyed
// maps, then flags range-for loops over them and .begin() iteration.
// Applies everywhere the lite tool is pointed (the ctest sweep passes the
// trace-affecting directories).

void check_nondet_iteration(const SourceFile& f, const FlatText& ft,
                            std::vector<Diagnostic>& diags) {
  std::set<std::string> tainted;
  static const char* kUnordered[] = {"unordered_map", "unordered_set",
                                     "unordered_multimap",
                                     "unordered_multiset"};
  auto collect_after_template = [&](std::size_t p, const char* what) {
    // `unordered_map<K, V> name` — find the '>' closing the template
    // argument list, then the declared identifier.
    std::size_t i = ft.text.find('<', p);
    if (i == std::string::npos) return;
    int depth = 0;
    for (; i < ft.text.size(); ++i) {
      if (ft.text[i] == '<') ++depth;
      if (ft.text[i] == '>' && --depth == 0) break;
    }
    if (i >= ft.text.size()) return;
    std::size_t q = i + 1;
    while (q < ft.text.size() &&
           (std::isspace(static_cast<unsigned char>(ft.text[q])) ||
            ft.text[q] == '&'))
      ++q;
    std::size_t b = q;
    while (q < ft.text.size() && ident_char(ft.text[q])) ++q;
    if (q > b) {
      tainted.insert(ft.text.substr(b, q - b));
      (void)what;
    }
  };
  for (const char* u : kUnordered) {
    for (std::size_t p = find_word(ft.text, u); p != std::string::npos;
         p = find_word(ft.text, u, p + 1)) {
      collect_after_template(p, u);
    }
  }
  // Pointer-keyed std::map / std::set: `map<T*, ...>` / `set<T*>`.
  for (const char* m : {"map", "set", "multimap", "multiset"}) {
    for (std::size_t p = find_word(ft.text, m); p != std::string::npos;
         p = find_word(ft.text, m, p + 1)) {
      std::size_t i = p + std::strlen(m);
      if (i >= ft.text.size() || ft.text[i] != '<') continue;
      // First template argument, up to ',' or matching '>'.
      std::size_t j = i + 1;
      int depth = 0;
      std::string key;
      for (; j < ft.text.size(); ++j) {
        const char c = ft.text[j];
        if (c == '<') ++depth;
        if (c == '>' && depth-- == 0) break;
        if (c == ',' && depth == 0) break;
        key += c;
      }
      if (key.find('*') != std::string::npos) collect_after_template(p, m);
    }
  }
  if (tainted.empty()) return;
  // Range-for over a tainted variable: `for (... : name)`.
  for (std::size_t p = find_word(ft.text, "for"); p != std::string::npos;
       p = find_word(ft.text, "for", p + 1)) {
    std::size_t q = ft.text.find('(', p);
    if (q == std::string::npos) continue;
    const std::size_t close = match_paren(ft.text, q);
    if (close == std::string::npos) continue;
    const std::string head = ft.text.substr(q, close - q);
    // The range-for ':' — a single colon, not part of a '::' qualifier.
    std::size_t colon = std::string::npos;
    for (std::size_t c = 1; c + 1 < head.size(); ++c) {
      if (head[c] == ':' && head[c - 1] != ':' && head[c + 1] != ':') {
        colon = c;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    std::string range = head.substr(colon + 1);
    range.erase(std::remove_if(range.begin(), range.end(), ::isspace),
                range.end());
    if (tainted.count(range)) {
      emit(diags, f, ft.line_of[p], ft.col_of[p],
           "rrtcp-nondeterministic-iteration",
           "iteration order over '" + range +
               "' depends on hashing/pointer values and is not replayable");
    }
  }
  // Explicit iterator loops: name.begin().
  for (const std::string& name : tainted) {
    const std::string pat = name + ".begin";
    for (std::size_t p = ft.text.find(pat); p != std::string::npos;
         p = ft.text.find(pat, p + 1)) {
      if (!word_at(ft.text, p, name)) continue;
      emit(diags, f, ft.line_of[p], ft.col_of[p],
           "rrtcp-nondeterministic-iteration",
           "iteration order over '" + name +
               "' depends on hashing/pointer values and is not replayable");
    }
  }
}

// ---------------------------------------------------------------------------
// rrtcp-smallfn-inline
//
// At schedule_at/schedule_in/schedule_reserved call sites taking a
// lambda, estimate the by-value capture footprint from visible
// declarations (char arrays, and variables or parameters of type Packet,
// which no event may carry: a packet that waits on the clock belongs in a
// net::DelayLine); flag estimates above the scheduler's inline budget
// (sim::kEventInlineBytes). Packet-typed data members are collected over
// every file of the run, since a struct is often declared in a header and
// its member captured in a .cpp (`[dst, pkt = std::move(e.pkt)]`). Purely
// size-visible cases only — the plugin computes real sizeof.

// Adds the names of the Packet-typed data members declared directly in a
// class or struct body of `ft` (`net::Packet pkt;`, `Packet pkt{};`).
void collect_packet_members(const FlatText& ft, std::set<std::string>& out) {
  const std::string& t = ft.text;
  for (std::size_t p = find_word(t, "Packet"); p != std::string::npos;
       p = find_word(t, "Packet", p + 1)) {
    std::size_t q = p + 6;
    while (q < t.size() && std::isspace(static_cast<unsigned char>(t[q])))
      ++q;
    const std::size_t b = q;
    while (q < t.size() && ident_char(t[q])) ++q;
    if (q == b || t.compare(b, q - b, "const") == 0) continue;
    const std::string name = t.substr(b, q - b);
    while (q < t.size() && std::isspace(static_cast<unsigned char>(t[q])))
      ++q;
    if (q >= t.size() || (t[q] != ';' && t[q] != '=' && t[q] != '{'))
      continue;  // a function, a parameter, or no declaration at all
    const std::vector<std::string> scopes = scopes_at(t, p);
    if (!scopes.empty() && !scopes.back().empty()) out.insert(name);
  }
}

void check_smallfn_inline(const SourceFile& f, const FlatText& ft,
                          const std::set<std::string>& packet_members,
                          std::vector<Diagnostic>& diags) {
  constexpr std::size_t kInlineBytes = rrtcp::sim::kEventInlineBytes;
  // Visible fixed-size char buffers: name -> bytes.
  std::map<std::string, std::size_t> buffers;
  for (std::size_t p = find_word(ft.text, "char"); p != std::string::npos;
       p = find_word(ft.text, "char", p + 1)) {
    std::size_t q = p + 4;
    while (q < ft.text.size() &&
           std::isspace(static_cast<unsigned char>(ft.text[q])))
      ++q;
    std::size_t b = q;
    while (q < ft.text.size() && ident_char(ft.text[q])) ++q;
    if (q == b || q >= ft.text.size() || ft.text[q] != '[') continue;
    const std::string name = ft.text.substr(b, q - b);
    std::size_t bytes = 0;
    for (std::size_t j = q + 1; j < ft.text.size() && ft.text[j] != ']'; ++j)
      if (std::isdigit(static_cast<unsigned char>(ft.text[j])))
        bytes = bytes * 10 + static_cast<std::size_t>(ft.text[j] - '0');
    if (bytes > 0) buffers[name] = bytes;
  }
  // Visible Packet values and references (a by-value capture of either
  // copies the packet); pointers stay one word.
  for (std::size_t p = find_word(ft.text, "Packet"); p != std::string::npos;
       p = find_word(ft.text, "Packet", p + 1)) {
    std::size_t q = p + 6;
    while (q < ft.text.size() &&
           (std::isspace(static_cast<unsigned char>(ft.text[q])) ||
            ft.text[q] == '&'))
      ++q;
    const std::size_t b = q;
    while (q < ft.text.size() && ident_char(ft.text[q])) ++q;
    if (q == b || ft.text.compare(b, q - b, "const") == 0) continue;
    buffers[ft.text.substr(b, q - b)] = sizeof(rrtcp::net::Packet);
  }
  if (buffers.empty() && packet_members.empty()) return;
  for (const char* call : {"schedule_at", "schedule_in", "schedule_reserved"}) {
    for (std::size_t p = find_word(ft.text, call); p != std::string::npos;
         p = find_word(ft.text, call, p + 1)) {
      const std::size_t open = ft.text.find('(', p);
      if (open == std::string::npos) continue;
      const std::size_t close = match_paren(ft.text, open);
      if (close == std::string::npos) continue;
      std::string args = ft.text.substr(open, close - open);
      // Lambda capture list inside the argument text, or else in the
      // closest earlier `auto name = [...]` the last argument names
      // (`schedule_at(t, std::move(deliver))`).
      if (args.find('[') == std::string::npos) {
        std::size_t e = args.size();
        while (e > 0 && !ident_char(args[e - 1])) --e;
        std::size_t start = e;
        while (start > 0 && ident_char(args[start - 1])) --start;
        const std::string named = args.substr(start, e - start);
        if (named.empty()) continue;
        std::size_t decl = std::string::npos;  // the '[' after `named =`
        auto skip_space = [&](std::size_t q) {
          while (q < p && std::isspace(static_cast<unsigned char>(ft.text[q])))
            ++q;
          return q;
        };
        for (std::size_t d = find_word(ft.text, named);
             d != std::string::npos && d < p;
             d = find_word(ft.text, named, d + 1)) {
          std::size_t q = skip_space(d + named.size());
          if (q >= p || ft.text[q] != '=') continue;
          q = skip_space(q + 1);
          if (q < p && ft.text[q] == '[') decl = q;
        }
        if (decl == std::string::npos) continue;
        const std::size_t end = ft.text.find(']', decl);
        if (end == std::string::npos || end > p) continue;
        args = ft.text.substr(decl, end + 1 - decl);
      }
      const std::size_t lb = args.find('[');
      if (lb == std::string::npos) continue;
      const std::size_t rb = args.find(']', lb);
      if (rb == std::string::npos) continue;
      std::size_t estimate = 0;
      std::string captured_big;
      std::string item;
      std::stringstream caps(args.substr(lb + 1, rb - lb - 1));
      while (std::getline(caps, item, ',')) {
        item.erase(std::remove_if(item.begin(), item.end(), ::isspace),
                   item.end());
        if (item.empty() || item[0] == '&') continue;  // by-reference
        const std::size_t eq = item.find('=');
        auto it = buffers.find(item.substr(0, eq));
        std::size_t bytes = it == buffers.end() ? 0 : it->second;
        if (bytes == 0 && eq != std::string::npos) {
          // Init-capture: size it by the last name its initializer reads
          // (`pkt = std::move(p)` copies p). A Packet member read through
          // `.` or `->` (`pkt = std::move(e.pkt)`) copies a packet too,
          // unless its address is taken.
          std::size_t e = item.size();
          while (e > eq && !ident_char(item[e - 1])) --e;
          std::size_t start = e;
          while (start > eq + 1 && ident_char(item[start - 1])) --start;
          const std::string read = item.substr(start, e - start);
          it = buffers.find(read);
          const bool member_read =
              start > eq + 2 && (item[start - 1] == '.' ||
                                 (item[start - 2] == '-' &&
                                  item[start - 1] == '>'));
          if (it != buffers.end())
            bytes = it->second;
          else if (member_read && item[eq + 1] != '&' &&
                   packet_members.count(read) != 0)
            bytes = sizeof(rrtcp::net::Packet);
        }
        item = item.substr(0, eq);
        if (bytes != 0) {
          estimate += bytes;
          captured_big = item;
        }
      }
      if (estimate > kInlineBytes) {
        emit(diags, f, ft.line_of[p], ft.col_of[p], "rrtcp-smallfn-inline",
             "callable captures '" + captured_big + "' by value (~" +
                 std::to_string(estimate) + " bytes > " +
                 std::to_string(kInlineBytes) +
                 "-byte inline budget); the event will heap-allocate");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// rrtcp-wall-clock
//
// Transport/simulation code must never read wall time: the sim clock is
// Simulator::now() and the live clock is LiveEnvironment's rebased
// CLOCK_MONOTONIC. Bans gettimeofday, clock_gettime, std::chrono::
// system_clock, and the time(nullptr) idiom everywhere except src/live —
// the one translation layer allowed to touch a real (monotonic) clock.
// std::chrono::steady_clock stays legal: harness/bench measurement of
// host elapsed time is not simulated time.

void check_wall_clock(const SourceFile& f, const FlatText& ft,
                      std::vector<Diagnostic>& diags) {
  if (f.path.find("src/live") != std::string::npos) return;
  struct Banned {
    const char* word;
    const char* why;
  };
  static const Banned kBanned[] = {
      {"gettimeofday",
       "wall-clock syscall outside src/live; read the environment clock "
       "(env::Environment::now) instead"},
      {"clock_gettime",
       "raw clock syscall outside src/live; even CLOCK_MONOTONIC belongs "
       "behind the environment clock"},
      {"system_clock",
       "std::chrono::system_clock is wall time and not replayable; use the "
       "environment clock (or steady_clock for host-side measurement)"},
  };
  for (const Banned& b : kBanned) {
    for (std::size_t p = find_word(ft.text, b.word); p != std::string::npos;
         p = find_word(ft.text, b.word, p + 1)) {
      emit(diags, f, ft.line_of[p], ft.col_of[p], "rrtcp-wall-clock", b.why);
    }
  }
  // The time(nullptr) wall-clock read (same idiom rrtcp-unnamed-rng flags
  // as seeding; here it is banned as a clock regardless of what the value
  // feeds).
  for (std::size_t p = find_word(ft.text, "time"); p != std::string::npos;
       p = find_word(ft.text, "time", p + 1)) {
    if (p > 0 && (ft.text[p - 1] == '.' ||
                  (p > 1 && ft.text[p - 2] == '-' && ft.text[p - 1] == '>')))
      continue;  // member access: some other API
    std::size_t q = p + 4;
    while (q < ft.text.size() &&
           std::isspace(static_cast<unsigned char>(ft.text[q])))
      ++q;
    if (q >= ft.text.size() || ft.text[q] != '(') continue;
    const std::size_t close = match_paren(ft.text, q);
    if (close == std::string::npos) continue;
    std::string arg = ft.text.substr(q + 1, close - q - 1);
    arg.erase(std::remove_if(arg.begin(), arg.end(), ::isspace), arg.end());
    if (arg == "nullptr" || arg == "0" || arg == "NULL") {
      emit(diags, f, ft.line_of[p], ft.col_of[p], "rrtcp-wall-clock",
           "time() reads the wall clock; transport code takes its clock "
           "from env::Environment::now");
    }
  }
}

// ---------------------------------------------------------------------------
// rrtcp-sim-time-equality
//
// Flags == / != where either side of the operator (on the same logical
// statement) is a floating sim-time expression — recognized by a
// to_seconds()/to_double() call feeding the comparison.

void check_sim_time_equality(const SourceFile& f, const FlatText& ft,
                             std::vector<Diagnostic>& diags) {
  // Statement-granular scan: split on ';' and compare within fragments.
  std::size_t start = 0;
  for (std::size_t i = 0; i <= ft.text.size(); ++i) {
    if (i != ft.text.size() && ft.text[i] != ';') continue;
    const std::string stmt = ft.text.substr(start, i - start);
    const std::size_t stmt_off = start;
    start = i + 1;
    const std::size_t secs = stmt.find("to_seconds()");
    if (secs == std::string::npos) continue;
    for (std::size_t p = 0; p + 1 < stmt.size(); ++p) {
      const char a = stmt[p];
      const char b = stmt[p + 1];
      const bool eq = a == '=' && b == '=';
      const bool ne = a == '!' && b == '=';
      if (!eq && !ne) continue;
      if (p > 0 && (stmt[p - 1] == '<' || stmt[p - 1] == '>' ||
                    stmt[p - 1] == '=' || stmt[p - 1] == '!'))
        continue;
      if (p + 2 < stmt.size() && stmt[p + 2] == '=') continue;
      const std::size_t off = stmt_off + p;
      emit(diags, f, ft.line_of[off], ft.col_of[off],
           "rrtcp-sim-time-equality",
           "exact floating comparison of sim-time seconds; compare Time "
           "values (integer picoseconds) or use an explicit tolerance");
      break;  // one diagnostic per statement is enough
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: rrtcp_tidy_lite <file>...\n"
                   "Token-level fallback for the rrtcp clang-tidy checks.\n"
                   "Prints clang-tidy-style diagnostics; exit 1 if any.\n";
      return 0;
    }
    files.push_back(arg);
  }
  if (files.empty()) {
    std::cerr << "rrtcp_tidy_lite: no input files\n";
    return 2;
  }

  std::vector<SourceFile> sources;
  std::vector<FlatText> flats;
  HotAnalyzer hot;
  std::set<std::string> packet_members;
  for (const std::string& path : files) {
    sources.push_back(load(path));
    flats.push_back(flatten(sources.back()));
    hot.collect(flats.back());
    collect_packet_members(flats.back(), packet_members);
  }

  std::vector<Diagnostic> diags;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    hot.analyze(sources[i], flats[i], diags);
    check_unnamed_rng(sources[i], flats[i], diags);
    check_nondet_iteration(sources[i], flats[i], diags);
    check_smallfn_inline(sources[i], flats[i], packet_members, diags);
    check_wall_clock(sources[i], flats[i], diags);
    check_sim_time_equality(sources[i], flats[i], diags);
  }

  for (const Diagnostic& d : diags) {
    std::printf("%s:%zu:%zu: warning: %s [%s]\n", d.file.c_str(), d.line,
                d.col, d.message.c_str(), d.check.c_str());
  }
  return diags.empty() ? 0 : 1;
}
