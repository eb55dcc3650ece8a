// Pass 1 of the cross-TU analyzer (DESIGN.md §5k): a lightweight symbol
// index over comment/string-stripped C++ sources. No libclang — a
// token-level structural parser tracks namespace/class scopes, function
// definitions and declarations, the call sites inside each body, and the
// mutex operations (MutexLock / UniqueLock / std::lock_guard /
// std::scoped_lock sites plus VGBL_REQUIRES / VGBL_ACQUIRE annotations)
// that feed the whole-program passes in taint.hpp and lock_order.hpp.
//
// The parser is deliberately approximate: it must never reject a file, so
// on any construct it does not understand it skips tokens and keeps going.
// The consequences are one-sided by design — a missed call edge weakens
// the analysis (documented limitation), while the structures it does
// extract are reliable enough that the whole-program rules hold the live
// tree to zero findings.
//
// Files are indexed independently (index_file) so the scan parallelizes
// over the ThreadPool; merging into the cross-file SymbolIndex is a
// deterministic, path-ordered fold.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace vgbl::lint {

/// One call site inside a function body.
struct CallSite {
  std::string spelled;  ///< as written: "helper", "obs::wall_now_us"
  bool member = false;  ///< preceded by `.` or `->` (resolved by last name)
  std::string file;     ///< merged symbols span .hpp/.cpp bodies
  int line = 0;
  /// Canonical names of the locks held when the call is made (RAII locks
  /// whose scope is still open, plus the function's VGBL_REQUIRES set).
  std::vector<std::string> held_locks;
};

/// One direct mutex acquisition inside a function body.
struct LockAcquire {
  std::string lock;  ///< canonical lock name, e.g. "BadgeStore::journal_mutex_"
  std::string file;
  int line = 0;
  std::vector<std::string> held_locks;  ///< locks already held at this site
};

/// Contiguous body lines of one function definition (1-based, inclusive).
struct BodyRange {
  std::string file;
  int begin_line = 0;
  int end_line = 0;
};

/// A function, with every overload and every redeclaration merged under
/// one qualified name — the unit of the cross-TU call graph.
struct Symbol {
  std::string qualified;  ///< e.g. "vgbl::rewards::BadgeStore::commit"
  std::string file;       ///< file of the first definition (or declaration)
  int line = 0;
  bool has_definition = false;
  std::vector<CallSite> calls;        ///< call sites across all bodies
  std::vector<LockAcquire> acquires;  ///< direct acquisitions across bodies
  std::vector<std::string> requires_locks;  ///< VGBL_REQUIRES at any decl
  std::vector<BodyRange> bodies;      ///< for taint-token scanning
};

/// Everything pass 1 extracted from one file. Standalone so files can be
/// indexed concurrently and merged in path order afterwards.
struct FileIndex {
  std::string path;
  /// Raw function records in source order; merge() folds them by name.
  std::vector<Symbol> functions;
};

/// The merged cross-file index. `symbols` is keyed by qualified name;
/// `by_last` maps a final name component ("commit") to every qualified
/// name ending in it, for member-call and suffix resolution.
struct SymbolIndex {
  std::map<std::string, Symbol> symbols;
  std::map<std::string, std::vector<std::string>> by_last;

  [[nodiscard]] const Symbol* find(const std::string& qualified) const;

  /// Resolves one call site made from `caller` to zero or more symbols.
  /// Free/qualified calls walk the caller's enclosing scopes looking for
  /// an exact qualified match, then fall back to a unique-suffix match.
  /// Member calls resolve only when the final component names exactly one
  /// symbol in the whole index (a deliberate under-approximation: an
  /// ambiguous method name drops the edge rather than inventing one).
  [[nodiscard]] std::vector<const Symbol*> resolve(
      const Symbol& caller, const CallSite& call) const;

  /// Symbols whose qualified name equals `name` or ends in "::" + name.
  [[nodiscard]] std::vector<const Symbol*> match_suffix(
      const std::string& name) const;
};

/// Extracts the symbol structure of one file. `path` is the repo-relative
/// (virtual) path; `stripped_lines` is the comment/string-stripped source
/// split into lines (see strip_code / split_lines in lint.cpp).
[[nodiscard]] FileIndex index_file(const std::string& path,
                                   const std::vector<std::string>& stripped_lines);

/// Folds one file's records into the cross-file index. Call in sorted
/// path order for deterministic symbol attribution.
void merge_index(FileIndex&& file, SymbolIndex* index);

/// The final "::"-separated component of a qualified name.
[[nodiscard]] std::string last_component(const std::string& qualified);

/// True when `qualified` equals `suffix` or ends in "::" + suffix — the
/// matching used for sinks and allow-symbol entries, so config can say
/// "sim::Scheduler::run" without spelling the full namespace chain.
[[nodiscard]] bool qualified_matches(const std::string& qualified,
                                     const std::string& suffix);

}  // namespace vgbl::lint
