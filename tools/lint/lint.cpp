#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "concurrency/thread_pool.hpp"
#include "lint/lock_order.hpp"
#include "lint/symbol_index.hpp"
#include "lint/taint.hpp"

namespace vgbl::lint {

namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool has_prefix(const std::string& path, const std::string& prefix) {
  if (path.size() < prefix.size() || path.compare(0, prefix.size(), prefix)) {
    return false;
  }
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}

/// Matches `pattern` at `pos` in `line`. A space in the pattern consumes
/// any run of spaces/tabs, so "using namespace std" matches regardless of
/// formatting. Returns the end position, or npos on mismatch.
size_t match_pattern_at(const std::string& line, size_t pos,
                        const std::string& pattern) {
  size_t i = pos;
  for (size_t p = 0; p < pattern.size(); ++p) {
    if (pattern[p] == ' ') {
      size_t start = i;
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      if (i == start) return std::string::npos;
      continue;
    }
    if (i >= line.size() || line[i] != pattern[p]) return std::string::npos;
    ++i;
  }
  return i;
}

}  // namespace

bool path_has_suffix(const std::string& path, const std::string& suffix) {
  if (path.size() < suffix.size()) return false;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix)) {
    return false;
  }
  // Suffix must start at a path-component boundary or cover the whole path.
  return path.size() == suffix.size() ||
         path[path.size() - suffix.size() - 1] == '/';
}

/// Boundary-aware search: an identifier-leading pattern must not be
/// preceded by an identifier char, an identifier-trailing pattern must not
/// be followed by one — so banning `rand(` does not flag `srand(` or
/// `operand(`.
bool text_has_pattern(const std::string& line, const std::string& pattern) {
  if (pattern.empty()) return false;
  for (size_t pos = 0; pos + 1 <= line.size(); ++pos) {
    const size_t end = match_pattern_at(line, pos, pattern);
    if (end == std::string::npos) continue;
    if (is_ident(pattern.front()) && pos > 0 && is_ident(line[pos - 1])) {
      continue;
    }
    if (is_ident(pattern.back()) && end < line.size() && is_ident(line[end])) {
      continue;
    }
    return true;
  }
  return false;
}

std::vector<std::string> split_source_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

namespace {

// --- builtin: metric-guard --------------------------------------------------

/// Identifiers declared as `obs::Counter&` / `obs::Gauge&` /
/// `obs::Histogram&` in this file — the metric struct fields and locals
/// whose mutations must go through the VGBL_* macros.
std::set<std::string> collect_metric_names(
    const std::vector<std::string>& lines) {
  std::set<std::string> names;
  static const std::string kTypes[] = {"obs::Counter", "obs::Gauge",
                                       "obs::Histogram"};
  for (const std::string& line : lines) {
    for (const std::string& type : kTypes) {
      for (size_t pos = line.find(type); pos != std::string::npos;
           pos = line.find(type, pos + 1)) {
        size_t i = pos + type.size();
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
        if (i >= line.size() || line[i] != '&') continue;
        ++i;
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
        size_t start = i;
        while (i < line.size() && is_ident(line[i])) ++i;
        if (i > start) names.insert(line.substr(start, i - start));
      }
    }
  }
  return names;
}

/// Flags raw mutations of collected metric names (`m.steps.add(…)`) and
/// chained mutations off a call (`reg.counter(…).increment()`). The VGBL_*
/// macros never produce these spellings — their arguments are the metric
/// expression without the method call — so zero findings means every
/// mutation site goes through a guard-baking macro.
void run_metric_guard(const Rule& rule, const std::string& path,
                      const std::vector<std::string>& lines,
                      std::vector<Finding>* out) {
  const std::set<std::string> metric_names = collect_metric_names(lines);
  static const std::string kOps[] = {".add(", ".set(", ".observe(",
                                     ".increment("};
  static const std::string kChainedOps[] = {".observe(", ".increment("};
  for (size_t n = 0; n < lines.size(); ++n) {
    const std::string& line = lines[n];
    for (const std::string& op : kOps) {
      for (size_t pos = line.find(op); pos != std::string::npos;
           pos = line.find(op, pos + op.size())) {
        bool flagged = false;
        if (pos > 0 && line[pos - 1] == ')') {
          // Chained off a call: only the unambiguous metric ops.
          flagged = std::count(std::begin(kChainedOps), std::end(kChainedOps),
                               op) > 0;
        } else {
          size_t start = pos;
          while (start > 0 && is_ident(line[start - 1])) --start;
          if (start < pos &&
              metric_names.count(line.substr(start, pos - start)) > 0) {
            flagged = true;
          }
        }
        if (flagged) {
          out->push_back({path, static_cast<int>(n + 1), rule.id,
                          "raw metric mutation '" + op.substr(1) +
                              "...)' bypasses the VGBL_* guard macros; " +
                              rule.message});
        }
      }
    }
  }
}

// --- builtin: include-hygiene -----------------------------------------------

bool is_header(const std::string& path) {
  return path.ends_with(".hpp") || path.ends_with(".h");
}

/// Runs on RAW source (not stripped): the `"../"` of a parent include is a
/// string literal and must survive inspection.
void run_include_hygiene(const Rule& rule, const std::string& path,
                         const std::string& raw, std::vector<Finding>* out) {
  const std::vector<std::string> lines = split_source_lines(raw);
  bool pragma_once = false;
  for (size_t n = 0; n < lines.size(); ++n) {
    const std::string& line = lines[n];
    size_t i = 0;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] != '#') continue;
    ++i;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (line.compare(i, 6, "pragma") == 0 &&
        line.find("once", i) != std::string::npos) {
      pragma_once = true;
    }
    if (line.compare(i, 7, "include") == 0 &&
        line.find("\"../", i) != std::string::npos) {
      out->push_back({path, static_cast<int>(n + 1), rule.id,
                      "parent-relative include escapes the include root; "
                      "include repo-rooted paths like \"util/types.hpp\""});
    }
  }
  if (is_header(path) && !pragma_once) {
    out->push_back(
        {path, 1, rule.id, "header is missing '#pragma once'"});
  }
}

// --- builtin: naked-new -----------------------------------------------------

/// Flags `new` / `delete` expressions on stripped lines. In the covered
/// layers allocation goes through std::make_unique/std::make_shared or the
/// arena allocators, so ownership is always typed; the rare
/// unique_ptr(new T) for a private constructor lives in allowlisted files.
/// Preprocessor lines are skipped (`#include <new>` names the header, not
/// the operator), and `= delete` declarations are exempt — that `delete`
/// deletes a function, not memory.
void run_naked_new(const Rule& rule, const std::string& path,
                   const std::vector<std::string>& lines,
                   std::vector<Finding>* out) {
  static const std::string kKeywords[] = {"new", "delete"};
  for (size_t n = 0; n < lines.size(); ++n) {
    const std::string& line = lines[n];
    const size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '#') continue;
    for (const std::string& kw : kKeywords) {
      for (size_t pos = line.find(kw); pos != std::string::npos;
           pos = line.find(kw, pos + 1)) {
        if (pos > 0 && is_ident(line[pos - 1])) continue;
        const size_t end = pos + kw.size();
        if (end < line.size() && is_ident(line[end])) continue;
        if (kw == "delete") {
          size_t prev = pos;
          while (prev > 0 &&
                 (line[prev - 1] == ' ' || line[prev - 1] == '\t')) {
            --prev;
          }
          if (prev > 0 && line[prev - 1] == '=') continue;  // = delete
        }
        out->push_back({path, static_cast<int>(n + 1), rule.id,
                        "naked '" + kw + "' expression: " + rule.message});
      }
    }
  }
}

}  // namespace

bool Rule::applies_to(const std::string& path) const {
  for (const std::string& suffix : allow) {
    if (path_has_suffix(path, suffix)) return false;
  }
  for (const std::string& prefix : skip) {
    if (has_prefix(path, prefix)) return false;
  }
  if (dirs.empty()) return true;
  return std::any_of(dirs.begin(), dirs.end(), [&](const std::string& d) {
    return has_prefix(path, d);
  });
}

std::optional<RuleSet> parse_rules(const std::string& text,
                                   std::string* error) {
  RuleSet set;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "lint_rules:" + std::to_string(line_no) + ": " + what;
    }
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++line_no;
    // Tokenize with double-quote support for multi-word ban patterns.
    std::vector<std::string> tokens;
    size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      if (i >= line.size() || line[i] == '#') break;
      std::string token;
      if (line[i] == '"') {
        const size_t close = line.find('"', i + 1);
        if (close == std::string::npos) return fail("unterminated quote");
        token = line.substr(i + 1, close - i - 1);
        i = close + 1;
      } else {
        while (i < line.size() && line[i] != ' ' && line[i] != '\t') {
          token.push_back(line[i++]);
        }
      }
      tokens.push_back(std::move(token));
    }
    if (tokens.empty()) continue;
    const std::string& directive = tokens.front();
    if (directive == "rule") {
      if (tokens.size() != 2) return fail("expected: rule <id>");
      set.rules.push_back(Rule{});
      set.rules.back().id = tokens[1];
      continue;
    }
    if (set.rules.empty()) {
      return fail("'" + directive + "' before any 'rule'");
    }
    Rule& rule = set.rules.back();
    if (directive == "message") {
      std::string msg;
      for (size_t t = 1; t < tokens.size(); ++t) {
        if (t > 1) msg += ' ';
        msg += tokens[t];
      }
      rule.message = msg;
    } else if (directive == "dirs") {
      rule.dirs.insert(rule.dirs.end(), tokens.begin() + 1, tokens.end());
    } else if (directive == "skip") {
      rule.skip.insert(rule.skip.end(), tokens.begin() + 1, tokens.end());
    } else if (directive == "ban") {
      rule.ban.insert(rule.ban.end(), tokens.begin() + 1, tokens.end());
    } else if (directive == "allow") {
      rule.allow.insert(rule.allow.end(), tokens.begin() + 1, tokens.end());
    } else if (directive == "sink") {
      rule.sinks.insert(rule.sinks.end(), tokens.begin() + 1, tokens.end());
    } else if (directive == "source") {
      rule.sources.insert(rule.sources.end(), tokens.begin() + 1,
                          tokens.end());
    } else if (directive == "allow-symbol") {
      rule.allow_symbols.insert(rule.allow_symbols.end(), tokens.begin() + 1,
                                tokens.end());
    } else if (directive == "order") {
      if (tokens.size() != 3) return fail("expected: order <before> <after>");
      rule.order.emplace_back(tokens[1], tokens[2]);
    } else if (directive == "builtin") {
      if (tokens.size() != 2) return fail("expected: builtin <name>");
      if (tokens[1] == "metric-guard") {
        rule.metric_guard = true;
      } else if (tokens[1] == "include-hygiene") {
        rule.include_hygiene = true;
      } else if (tokens[1] == "naked-new") {
        rule.naked_new = true;
      } else if (tokens[1] == "taint") {
        rule.taint = true;
      } else if (tokens[1] == "lock-order") {
        rule.lock_order = true;
      } else {
        return fail("unknown builtin '" + tokens[1] + "'");
      }
    } else {
      return fail("unknown directive '" + directive + "'");
    }
  }
  for (const Rule& rule : set.rules) {
    if (rule.message.empty()) {
      line_no = 0;
      return fail("rule '" + rule.id + "' has no message");
    }
  }
  return set;
}

std::string strip_code(const std::string& source) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  std::string out;
  out.reserve(source.size());
  State state = State::kCode;
  std::string raw_close;  // )delim" terminating the current raw string
  for (size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !is_ident(source[i - 1]))) {
          // R"delim( ... )delim"
          size_t open = source.find('(', i + 2);
          if (open == std::string::npos) {
            out += c;  // malformed; emit and move on
            break;
          }
          raw_close = ")";
          raw_close += source.substr(i + 2, open - i - 2);
          raw_close += '"';
          state = State::kRawString;
          for (size_t j = i; j <= open; ++j) {
            out += source[j] == '\n' ? '\n' : ' ';
          }
          i = open;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kRawString:
        if (source.compare(i, raw_close.size(), raw_close) == 0) {
          for (size_t j = 0; j < raw_close.size(); ++j) out += ' ';
          i += raw_close.size() - 1;
          state = State::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

namespace {

void sort_findings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
}

/// Per-file rules against precomputed stripped lines — shared by
/// lint_file (which strips lazily for one file) and the lint_tree scan
/// pass (which strips anyway to feed the symbol index).
void run_file_rules(const std::string& path, const std::string& source,
                    const std::vector<std::string>& stripped_lines,
                    const RuleSet& rules, std::vector<Finding>* findings) {
  for (const Rule& rule : rules.rules) {
    if (!rule.applies_to(path)) continue;
    for (size_t n = 0; n < stripped_lines.size(); ++n) {
      for (const std::string& pattern : rule.ban) {
        if (text_has_pattern(stripped_lines[n], pattern)) {
          findings->push_back({path, static_cast<int>(n + 1), rule.id,
                               "banned token '" + pattern + "': " +
                                   rule.message});
        }
      }
    }
    if (rule.metric_guard) {
      run_metric_guard(rule, path, stripped_lines, findings);
    }
    if (rule.naked_new) {
      run_naked_new(rule, path, stripped_lines, findings);
    }
    if (rule.include_hygiene) {
      run_include_hygiene(rule, path, source, findings);
    }
  }
}

}  // namespace

std::vector<Finding> lint_file(const std::string& path,
                               const std::string& source,
                               const RuleSet& rules) {
  std::vector<Finding> findings;
  const std::vector<std::string> stripped_lines =
      split_source_lines(strip_code(source));
  run_file_rules(path, source, stripped_lines, rules, &findings);
  sort_findings(&findings);
  return findings;
}

std::vector<Finding> lint_tree(const std::vector<SourceFile>& files,
                               const RuleSet& rules,
                               const CrossTuOptions& options) {
  const auto scan_start = std::chrono::steady_clock::now();
  const bool cross_tu =
      std::any_of(rules.rules.begin(), rules.rules.end(), [](const Rule& r) {
        return r.taint || r.lock_order;
      });

  // Deterministic path order, independent of input order and scan
  // parallelism.
  std::vector<size_t> order(files.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return files[a].path < files[b].path;
  });

  struct Slot {
    std::vector<Finding> findings;
    std::vector<std::string> stripped_lines;
    FileIndex index;
  };
  std::vector<Slot> slots(files.size());
  auto scan_one = [&](size_t k) {
    const SourceFile& file = files[order[k]];
    Slot& slot = slots[k];
    slot.stripped_lines = split_source_lines(strip_code(file.content));
    run_file_rules(file.path, file.content, slot.stripped_lines, rules,
                   &slot.findings);
    if (cross_tu) slot.index = index_file(file.path, slot.stripped_lines);
  };
  const unsigned jobs =
      options.jobs > 0 ? static_cast<unsigned>(options.jobs)
                       : std::max(1u, std::thread::hardware_concurrency());
  if (jobs > 1 && files.size() > 1) {
    ThreadPool pool(jobs);
    pool.parallel_for(0, static_cast<i64>(files.size()),
                      [&](i64 k) { scan_one(static_cast<size_t>(k)); });
  } else {
    for (size_t k = 0; k < files.size(); ++k) scan_one(k);
  }

  // Sequential path-ordered merge keeps findings and symbol attribution
  // identical across thread counts.
  std::vector<Finding> findings;
  SymbolIndex index;
  std::map<std::string, std::vector<std::string>> stripped;
  for (size_t k = 0; k < files.size(); ++k) {
    Slot& slot = slots[k];
    findings.insert(findings.end(),
                    std::make_move_iterator(slot.findings.begin()),
                    std::make_move_iterator(slot.findings.end()));
    if (cross_tu) {
      merge_index(std::move(slot.index), &index);
      stripped.emplace(files[order[k]].path, std::move(slot.stripped_lines));
    }
  }
  const auto scan_end = std::chrono::steady_clock::now();
  if (options.scan_seconds != nullptr) {
    *options.scan_seconds =
        std::chrono::duration<double>(scan_end - scan_start).count();
  }

  for (const Rule& rule : rules.rules) {
    if (rule.taint) {
      TaintConfig config;
      config.rule_id = rule.id;
      config.message = rule.message;
      config.sinks = rule.sinks;
      config.sources = rule.sources;
      config.allow_files = rule.allow;
      config.allow_symbols = rule.allow_symbols;
      config.require_sinks = options.require_facts;
      run_taint(index, stripped, config, &findings);
    }
    if (rule.lock_order) {
      LockOrderConfig config;
      config.rule_id = rule.id;
      config.message = rule.message;
      config.allow_files = rule.allow;
      config.order = rule.order;
      config.require_facts = options.require_facts;
      run_lock_order(index, config, &findings);
    }
  }
  if (options.analyze_seconds != nullptr) {
    *options.analyze_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      scan_end)
            .count();
  }
  sort_findings(&findings);
  return findings;
}

std::optional<std::vector<Finding>> lint_paths(
    const std::vector<std::string>& roots, const RuleSet& rules,
    std::string* error, const CrossTuOptions& options) {
  namespace fs = std::filesystem;
  static const std::string kExtensions[] = {".hpp", ".h", ".cpp", ".cc",
                                            ".cxx"};
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (std::count(std::begin(kExtensions), std::end(kExtensions), ext)) {
          files.push_back(it->path().generic_string());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(fs::path(root).generic_string());
    } else {
      if (error != nullptr) *error = "cannot read '" + root + "'";
      return std::nullopt;
    }
    if (ec) {
      if (error != nullptr) *error = "cannot walk '" + root + "'";
      return std::nullopt;
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      if (error != nullptr) *error = "cannot open '" + file + "'";
      return std::nullopt;
    }
    std::ostringstream content;
    content << in.rdbuf();
    // Normalize a leading "./" so rule prefixes match either spelling.
    std::string path = file;
    if (path.starts_with("./")) path = path.substr(2);
    sources.push_back({std::move(path), content.str()});
  }
  return lint_tree(sources, rules, options);
}

std::string format_finding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

}  // namespace vgbl::lint
