// vgbl-lint: a fast token-level checker for project invariants the compiler
// cannot see (DESIGN.md §5f). No libclang — rules work on comment- and
// string-stripped source text, so a full src/ + tools/ sweep is a few
// milliseconds and runs on every check.sh invocation.
//
// Rules live in the checked-in `lint_rules` config at the repo root. Each
// rule combines:
//   - a directory scope (`dirs` path prefixes, minus `skip` prefixes),
//   - banned token patterns (`ban`, matched on identifier boundaries with
//     flexible whitespace, so "using namespace std" matches any spacing),
//   - per-file allowlist entries (`allow` path suffixes, each requiring a
//     justification comment at the allowed site),
//   - optional built-in analyses (`builtin metric-guard`,
//     `builtin include-hygiene`, `builtin naked-new`) for checks that need
//     more than substring matching.
//
// The library half (this header + lint.cpp) is linked by both the
// `vgbl-lint` binary and tests/lint_test.cpp, which lints fixture content
// under virtual paths to prove each rule fires.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace vgbl::lint {

struct Finding {
  std::string file;     // repo-relative path, '/'-separated
  int line = 0;         // 1-based
  std::string rule;     // rule id, e.g. "determinism-wallclock"
  std::string message;  // human-readable explanation
};

struct Rule {
  std::string id;
  std::string message;
  std::vector<std::string> dirs;   // path prefixes; empty = everywhere
  std::vector<std::string> skip;   // path prefixes exempt from this rule
  std::vector<std::string> ban;    // boundary-aware token patterns
  std::vector<std::string> allow;  // path suffixes fully exempt
  bool metric_guard = false;       // builtin: unguarded metric mutations
  bool include_hygiene = false;    // builtin: pragma once + parent includes
  bool naked_new = false;          // builtin: naked new/delete expressions
  // Cross-TU builtins (run by lint_tree over the merged symbol index).
  bool taint = false;       // builtin: determinism taint propagation
  bool lock_order = false;  // builtin: acquired-before cycle check
  std::vector<std::string> sinks;          // `sink`: qualified suffixes
  std::vector<std::string> sources;        // `source`: taint token patterns
  std::vector<std::string> allow_symbols;  // `allow-symbol`: trusted symbols
  std::vector<std::pair<std::string, std::string>> order;  // `order A B`

  [[nodiscard]] bool applies_to(const std::string& path) const;
};

struct RuleSet {
  std::vector<Rule> rules;
};

/// Parses the `lint_rules` config text. On failure returns nullopt and
/// fills `error` with a line-numbered message.
std::optional<RuleSet> parse_rules(const std::string& text,
                                   std::string* error);

/// Replaces comments, string literals and char literals with spaces while
/// preserving line structure, so token matching never fires inside prose.
/// Handles //, /* */, escapes, and R"delim(...)delim" raw strings.
std::string strip_code(const std::string& source);

/// Lints one file's content as if it lived at `path` (repo-relative).
/// `path` drives rule scoping, which is what lets tests lint fixture
/// content under virtual paths like "src/core/bad.cpp". Per-file rules
/// only — the cross-TU builtins need lint_tree.
std::vector<Finding> lint_file(const std::string& path,
                               const std::string& source,
                               const RuleSet& rules);

/// One in-memory source file for lint_tree. `path` is virtual, exactly as
/// in lint_file, so multi-file fixture sets lint under src/-shaped paths.
struct SourceFile {
  std::string path;
  std::string content;
};

struct CrossTuOptions {
  /// Enforce config liveness: unresolved taint sinks and unobserved lock
  /// `order` facts become findings. On for the real tree, off for fixture
  /// sets (which legitimately contain only a slice of the code).
  bool require_facts = false;
  /// Worker threads for the per-file scan pass; <= 0 picks the hardware
  /// concurrency, 1 scans sequentially. Output order is independent of
  /// `jobs` — results merge in sorted path order.
  int jobs = 1;
  double* scan_seconds = nullptr;     ///< pass-1 wall time out-param
  double* analyze_seconds = nullptr;  ///< pass-2 wall time out-param
};

/// Full two-pass lint over a set of files: per-file rules plus the
/// cross-TU builtins (taint, lock-order) on the merged symbol index.
/// Findings come back sorted by (file, line, rule, message) regardless of
/// scan parallelism.
std::vector<Finding> lint_tree(const std::vector<SourceFile>& files,
                               const RuleSet& rules,
                               const CrossTuOptions& options = {});

/// Walks `roots` (files or directories, repo-relative) collecting C++
/// sources and runs lint_tree over them. Returns nullopt on I/O failure
/// (error filled).
std::optional<std::vector<Finding>> lint_paths(
    const std::vector<std::string>& roots, const RuleSet& rules,
    std::string* error, const CrossTuOptions& options = {});

/// Text/path helpers shared with the cross-TU passes.
/// Boundary-aware token search on one stripped line (a space in the
/// pattern matches any run of blanks).
[[nodiscard]] bool text_has_pattern(const std::string& line,
                                    const std::string& pattern);
/// Path-component-boundary suffix match ("sim_clock.hpp" matches
/// "src/util/sim_clock.hpp" but not "x_sim_clock.hpp").
[[nodiscard]] bool path_has_suffix(const std::string& path,
                                   const std::string& suffix);
/// Splits text on '\n' (keeps a trailing empty line, 1-based indexing).
[[nodiscard]] std::vector<std::string> split_source_lines(
    const std::string& text);

/// Renders one finding as "file:line: [rule] message".
std::string format_finding(const Finding& finding);

}  // namespace vgbl::lint
