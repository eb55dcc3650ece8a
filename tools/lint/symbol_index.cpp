#include "lint/symbol_index.hpp"

#include <algorithm>
#include <cctype>
#include <set>

namespace vgbl::lint {

namespace {

// --- tokens -----------------------------------------------------------------

struct Tok {
  std::string text;
  int line = 0;
  bool ident = false;  ///< identifier (or keyword); numbers are not idents
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool all_caps_macro(const std::string& s) {
  // Macro-name convention: letters all uppercase, at least one letter.
  bool has_alpha = false;
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
    if (std::isalpha(static_cast<unsigned char>(c)) != 0) has_alpha = true;
  }
  return has_alpha;
}

/// Tokenizes stripped source lines. Preprocessor lines (and their
/// backslash continuations — multi-line macro definitions) are dropped:
/// `#include <new>` names a header and a macro body is not reachable code
/// at its definition site.
std::vector<Tok> tokenize(const std::vector<std::string>& lines) {
  std::vector<Tok> out;
  bool continued = false;
  for (size_t n = 0; n < lines.size(); ++n) {
    const std::string& line = lines[n];
    const size_t first = line.find_first_not_of(" \t");
    const bool preprocessor =
        continued || (first != std::string::npos && line[first] == '#');
    continued = preprocessor && !line.empty() && line.back() == '\\';
    if (preprocessor) continue;
    size_t i = 0;
    const int line_no = static_cast<int>(n + 1);
    while (i < line.size()) {
      const char c = line[i];
      if (c == ' ' || c == '\t' || c == '\r' || c == '\\') {
        ++i;
        continue;
      }
      if (ident_char(c)) {
        size_t start = i;
        while (i < line.size() && ident_char(line[i])) ++i;
        const bool is_ident = std::isdigit(static_cast<unsigned char>(c)) == 0;
        out.push_back({line.substr(start, i - start), line_no, is_ident});
        continue;
      }
      if (c == ':' && i + 1 < line.size() && line[i + 1] == ':') {
        out.push_back({"::", line_no, false});
        i += 2;
        continue;
      }
      if (c == '-' && i + 1 < line.size() && line[i + 1] == '>') {
        out.push_back({"->", line_no, false});
        i += 2;
        continue;
      }
      out.push_back({std::string(1, c), line_no, false});
      ++i;
    }
  }
  return out;
}

// --- parser -----------------------------------------------------------------

const char* const kBodyKeywords[] = {
    // Control flow / expression keywords that look like calls but are not.
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "throw", "new", "delete", "case", "goto", "do", "else", "assert",
    "decltype", "typeid", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "static_assert", "noexcept", "requires", "co_await",
    "co_return", "co_yield",
    // Builtin types used as function-style casts.
    "int", "char", "bool", "float", "double", "unsigned", "signed", "long",
    "short", "void", "auto"};

bool body_keyword(const std::string& s) {
  return std::count(std::begin(kBodyKeywords), std::end(kBodyKeywords), s) > 0;
}

const char* const kLockClasses[] = {"MutexLock", "UniqueLock", "lock_guard",
                                    "scoped_lock", "unique_lock"};

bool lock_class(const std::string& s) {
  return std::count(std::begin(kLockClasses), std::end(kLockClasses), s) > 0;
}

class Parser {
 public:
  Parser(std::string path, std::vector<Tok> toks)
      : path_(std::move(path)), t_(std::move(toks)) {
    out_.path = path_;
  }

  FileIndex run() {
    parse_scope();
    return std::move(out_);
  }

 private:
  struct Scope {
    bool is_class = false;
    std::string name;
  };

  [[nodiscard]] bool at_end() const { return i_ >= t_.size(); }
  [[nodiscard]] const Tok& tok(size_t off = 0) const {
    static const Tok kEof{"", 0, false};
    return i_ + off < t_.size() ? t_[i_ + off] : kEof;
  }
  [[nodiscard]] bool is(const char* s, size_t off = 0) const {
    return tok(off).text == s;
  }

  /// Index just past the matching close for the open bracket at `i`.
  size_t skip_matched(size_t i, char open, char close) const {
    int depth = 0;
    for (; i < t_.size(); ++i) {
      if (t_[i].text.size() == 1) {
        if (t_[i].text[0] == open) ++depth;
        if (t_[i].text[0] == close && --depth == 0) return i + 1;
      }
    }
    return t_.size();
  }

  /// Attempts to match a template-argument list starting at `i` (a '<').
  /// Conservative: gives up at tokens that suggest a comparison instead.
  bool match_angles(size_t i, size_t* end) const {
    int depth = 0;
    size_t guard = 0;
    for (; i < t_.size() && guard < 220; ++i, ++guard) {
      const std::string& s = t_[i].text;
      if (s == ";" || s == "{" || s == "}" || s == "?" || s == "&&" ||
          s == "||") {
        return false;
      }
      if (s == "(") {
        i = skip_matched(i, '(', ')') - 1;
        continue;
      }
      if (s == "<") ++depth;
      if (s == ">" && --depth == 0) {
        *end = i + 1;
        return true;
      }
    }
    return false;
  }

  /// Reads a (possibly qualified) name chain at i_: `A::B::name`,
  /// `~Dtor`, `operator==`. Returns the components; i_ advances past the
  /// chain only when a chain was read.
  std::vector<std::string> read_chain() {
    std::vector<std::string> parts;
    while (!at_end()) {
      std::string comp;
      if (is("~") && tok(1).ident) {
        comp = "~" + tok(1).text;
        i_ += 2;
      } else if (tok().ident && tok().text == "operator") {
        comp = "operator";
        ++i_;
        if (is("(") && is(")", 1)) {
          comp += "()";
          i_ += 2;
        } else {
          while (!at_end() && !is("(") && !is(";") && !is("{")) {
            comp += tok().text;
            ++i_;
          }
        }
      } else if (tok().ident) {
        comp = tok().text;
        ++i_;
      } else {
        break;
      }
      parts.push_back(std::move(comp));
      if (is("::") && (tok(1).ident || is("~", 1))) {
        ++i_;
        continue;
      }
      break;
    }
    return parts;
  }

  [[nodiscard]] std::string scope_prefix() const {
    std::string out;
    for (const Scope& s : scopes_) {
      if (!out.empty()) out += "::";
      out += s.name;
    }
    return out;
  }

  [[nodiscard]] std::string enclosing_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->is_class) return it->name;
    }
    return "";
  }

  /// Canonical lock-node name for a mutex expression captured as tokens:
  /// whitespace-free, `->` folded to `.`, leading `*`/`&`/`this.`
  /// stripped, prefixed with the owning class so `journal_mutex_` in
  /// BadgeStore::commit becomes "BadgeStore::journal_mutex_".
  std::string canonical_lock(size_t begin, size_t end,
                             const std::string& cls) const {
    std::string s;
    for (size_t i = begin; i < end; ++i) {
      s += t_[i].text == "->" ? "." : t_[i].text;
    }
    while (!s.empty() && (s.front() == '*' || s.front() == '&')) s.erase(0, 1);
    if (s.rfind("this.", 0) == 0) s.erase(0, 5);
    if (s.empty()) return s;
    return cls.empty() ? s : cls + "::" + s;
  }

  /// Splits the args of a VGBL_REQUIRES/VGBL_ACQUIRE(...) at `paren` into
  /// canonical lock names (comma-separated at top level).
  std::vector<std::string> annotation_locks(size_t paren,
                                            const std::string& cls) const {
    std::vector<std::string> locks;
    const size_t close = skip_matched(paren, '(', ')') - 1;
    size_t start = paren + 1;
    int depth = 0;
    for (size_t i = paren + 1; i <= close && i < t_.size(); ++i) {
      const std::string& s = t_[i].text;
      if (s == "(") ++depth;
      if (s == ")" && i != close) --depth;
      if ((s == "," && depth == 0) || i == close) {
        if (i > start) {
          std::string lock = canonical_lock(start, i, cls);
          if (!lock.empty()) locks.push_back(std::move(lock));
        }
        start = i + 1;
      }
    }
    return locks;
  }

  // --- top-level (namespace / class body) parsing ---------------------------

  void parse_scope() {
    while (!at_end()) {
      if (is("}")) {
        ++i_;
        return;
      }
      if (is(";")) {
        ++i_;
        continue;
      }
      if (is("{")) {
        // Brace at declaration scope: aggregate initializer or stray
        // block; consume it blind.
        i_ = skip_matched(i_, '{', '}');
        continue;
      }
      if (!tok().ident) {
        ++i_;
        continue;
      }
      const std::string& word = tok().text;
      if (word == "namespace") {
        parse_namespace();
        continue;
      }
      if (word == "class" || word == "struct" || word == "union" ||
          word == "enum") {
        if (parse_class_like()) continue;
        // `struct X* p` / elaborated type in a declaration: fall through.
      }
      if (word == "template") {
        ++i_;
        size_t end = 0;
        if (is("<") && match_angles(i_, &end)) i_ = end;
        continue;
      }
      if (word == "using" || word == "typedef" || word == "static_assert") {
        while (!at_end() && !is(";")) {
          if (is("(")) {
            i_ = skip_matched(i_, '(', ')');
            continue;
          }
          if (is("{")) {
            i_ = skip_matched(i_, '{', '}');
            continue;
          }
          ++i_;
        }
        continue;  // ';' handled above
      }
      if ((word == "public" || word == "private" || word == "protected") &&
          is(":", 1)) {
        i_ += 2;
        continue;
      }
      if (try_function()) continue;
      ++i_;
    }
  }

  void parse_namespace() {
    ++i_;  // past 'namespace'
    std::string name;
    while (tok().ident) {
      if (!name.empty()) name += "::";
      name += tok().text;
      ++i_;
      if (is("::") && tok(1).ident) {
        ++i_;
        continue;
      }
      break;
    }
    if (is("=")) {  // namespace alias
      while (!at_end() && !is(";")) ++i_;
      return;
    }
    if (!is("{")) return;
    ++i_;
    if (name.empty()) name = "{anon:" + path_ + "}";
    scopes_.push_back({false, name});
    parse_scope();
    scopes_.pop_back();
  }

  /// Parses a class/struct/union/enum definition head at i_. Returns
  /// false when this is not a definition (elaborated type specifier in a
  /// declaration) — the caller falls through to normal handling.
  bool parse_class_like() {
    const size_t start = i_;
    const bool is_enum = is("enum");
    ++i_;
    if (is_enum && (is("class") || is("struct"))) ++i_;
    std::string name;
    while (!at_end()) {
      if (is(";")) {  // forward declaration
        return true;  // consumed up to (not incl.) ';'; outer loop eats it
      }
      if (is("{")) break;
      if (is(":") ) {
        // base-class list / enum underlying type: scan to the body.
        while (!at_end() && !is("{") && !is(";")) {
          if (is("(")) {
            i_ = skip_matched(i_, '(', ')');
            continue;
          }
          ++i_;
        }
        continue;
      }
      if (tok().ident) {
        if (is("(", 1)) {  // attribute macro, e.g. VGBL_CAPABILITY("mutex")
          i_ = skip_matched(i_ + 1, '(', ')');
          continue;
        }
        if (tok().text != "final" && tok().text != "alignas") name = tok().text;
        ++i_;
        if (is("::") && tok(1).ident) {  // out-of-scope nested name
          name += "::";
          ++i_;
          continue;
        }
        continue;
      }
      if (is("<")) {  // template-id in a specialization head
        size_t end = 0;
        if (match_angles(i_, &end)) {
          i_ = end;
          continue;
        }
      }
      // Unexpected token (e.g. `struct X* p`): not a definition head.
      if (is("*") || is("&") || is(")") || is(",") || is("=")) {
        i_ = start + 1;
        return false;
      }
      ++i_;
    }
    if (at_end()) return true;
    if (is_enum) {
      i_ = skip_matched(i_, '{', '}');
      return true;
    }
    ++i_;  // past '{'
    scopes_.push_back({true, name.empty() ? "{anon-class}" : name});
    parse_scope();
    scopes_.pop_back();
    return true;
  }

  /// Attempts to parse a function declaration or definition whose name
  /// chain starts at i_. Returns true when tokens were consumed (function
  /// recorded, macro skipped, or a non-function construct stepped over).
  bool try_function() {
    const size_t start = i_;
    std::vector<std::string> chain = read_chain();
    if (chain.empty()) return false;
    // Template-id call-ish name at declaration scope: skip specializations.
    if (!is("(")) {
      i_ = start;
      return false;
    }
    if (chain.size() == 1 && all_caps_macro(chain[0])) {
      // Attribute/annotation macro at declaration scope.
      i_ = skip_matched(i_, '(', ')');
      return true;
    }
    const size_t args_open = i_;
    const size_t args_end = skip_matched(args_open, '(', ')');
    // Most-vexing-parse guard: `Foo x(1);` is direct-init, not a function.
    // Only the FIRST token inside the parens decides — a parameter type
    // cannot start with a literal or a sign, while later literals are
    // legitimate default arguments (`u64 seed = 42`).
    if (args_open + 1 < args_end - 1) {
      const Tok& first_arg = t_[args_open + 1];
      const bool literal =
          !first_arg.ident && !first_arg.text.empty() &&
          (std::isdigit(static_cast<unsigned char>(first_arg.text[0])) != 0 ||
           first_arg.text == "-" || first_arg.text == "+");
      if (literal) {
        i_ = args_end;
        return true;
      }
    }

    const std::string cls = chain.size() > 1
                                ? [&] {
                                    std::string c;
                                    for (size_t k = 0; k + 1 < chain.size();
                                         ++k) {
                                      if (!c.empty()) c += "::";
                                      c += chain[k];
                                    }
                                    return c;
                                  }()
                                : enclosing_class();

    std::vector<std::string> requires_locks;
    std::vector<LockAcquire> annot_acquires;

    size_t j = args_end;
    bool is_definition = false;
    bool bail = false;
    while (j < t_.size()) {
      const Tok& pt = t_[j];
      if (pt.text == ";") break;  // declaration
      if (pt.text == "{") {
        is_definition = true;
        break;
      }
      if (pt.text == "const" || pt.text == "override" || pt.text == "final" ||
          pt.text == "&" || pt.text == "&&" || pt.text == "mutable" ||
          pt.text == "try") {
        ++j;
        continue;
      }
      if (pt.text == "noexcept") {
        ++j;
        if (j < t_.size() && t_[j].text == "(") j = skip_matched(j, '(', ')');
        continue;
      }
      if (pt.text == "->") {
        // Trailing return type: step over it to the body or `;`.
        ++j;
        while (j < t_.size() && t_[j].text != "{" && t_[j].text != ";" &&
               t_[j].text != "=") {
          if (t_[j].text == "(") {
            j = skip_matched(j, '(', ')');
            continue;
          }
          ++j;
        }
        continue;
      }
      if (pt.text == "=") {
        const std::string& next = j + 1 < t_.size() ? t_[j + 1].text : "";
        if (next == "default" || next == "delete" || next == "0") {
          j += 2;
          continue;
        }
        bail = true;  // variable initializer
        break;
      }
      if (pt.text == ":") {
        // Constructor initializer list: entries `name(...)` / `name{...}`
        // separated by commas, then the body brace.
        ++j;
        while (j < t_.size()) {
          if (t_[j].text == "{" &&
              (j == 0 || t_[j - 1].text == ")" || t_[j - 1].text == "}" ||
               t_[j - 1].text == ":" || t_[j - 1].text == ",")) {
            // `{` directly after an entry separator would be brace-init of
            // the next member only when preceded by an identifier; here it
            // is the function body.
          }
          if (t_[j].ident || t_[j].text == "::") {
            ++j;
            if (j < t_.size() && t_[j].text == "<") {
              size_t end = 0;
              if (match_angles(j, &end)) j = end;
            }
            if (j < t_.size() && t_[j].text == "(") {
              j = skip_matched(j, '(', ')');
            } else if (j < t_.size() && t_[j].text == "{") {
              j = skip_matched(j, '{', '}');
            }
            if (j < t_.size() && t_[j].text == ",") {
              ++j;
              continue;
            }
            continue;
          }
          if (t_[j].text == "{") break;  // body
          if (t_[j].text == ";") break;  // confusion; treat as declaration
          ++j;
        }
        continue;
      }
      if (pt.ident && all_caps_macro(pt.text)) {
        const bool has_args = j + 1 < t_.size() && t_[j + 1].text == "(";
        if (has_args) {
          if (pt.text == "VGBL_REQUIRES" || pt.text == "VGBL_REQUIRES_SHARED") {
            for (std::string& lock : annotation_locks(j + 1, cls)) {
              requires_locks.push_back(std::move(lock));
            }
          } else if (pt.text == "VGBL_ACQUIRE" ||
                     pt.text == "VGBL_TRY_ACQUIRE") {
            for (std::string& lock : annotation_locks(j + 1, cls)) {
              annot_acquires.push_back({std::move(lock), path_, pt.line, {}});
            }
          }
          j = skip_matched(j + 1, '(', ')');
        } else {
          ++j;
        }
        continue;
      }
      bail = true;  // `,`, `)`, `[`, plain ident... not a function
      break;
    }
    if (bail || j >= t_.size()) {
      i_ = args_end;  // step past the parens; not a function
      return true;
    }

    Symbol rec;
    {
      std::string name;
      for (size_t k = 0; k < chain.size(); ++k) {
        if (!name.empty()) name += "::";
        name += chain[k];
      }
      const std::string prefix = scope_prefix();
      rec.qualified = prefix.empty() ? name : prefix + "::" + name;
    }
    rec.file = path_;
    rec.line = t_[start].line;
    rec.requires_locks = requires_locks;
    rec.acquires = std::move(annot_acquires);

    if (!is_definition) {
      i_ = j + 1;  // past ';'
      out_.functions.push_back(std::move(rec));
      return true;
    }
    rec.has_definition = true;
    i_ = j;  // at '{'
    parse_body(&rec, cls);
    out_.functions.push_back(std::move(rec));
    return true;
  }

  // --- function-body parsing ------------------------------------------------

  void parse_body(Symbol* fn, const std::string& cls) {
    const int body_begin = tok().line;
    ++i_;  // past '{'
    int depth = 1;
    struct ActiveLock {
      std::string lock;
      std::string var;
      int depth = 0;
      bool engaged = true;  ///< false after var.unlock()
    };
    std::vector<ActiveLock> active;
    auto held = [&]() {
      std::vector<std::string> h = fn->requires_locks;
      for (const ActiveLock& a : active) {
        if (a.engaged) h.push_back(a.lock);
      }
      return h;
    };

    int last_line = body_begin;
    while (!at_end() && depth > 0) {
      last_line = tok().line;
      if (is("{")) {
        ++depth;
        ++i_;
        continue;
      }
      if (is("}")) {
        --depth;
        ++i_;
        while (!active.empty() && active.back().depth > depth) {
          active.pop_back();
        }
        continue;
      }
      if (!tok().ident) {
        ++i_;
        continue;
      }

      // RAII lock acquisition: [std::] LockClass [<...>] var ( expr ) ;
      {
        size_t k = i_;
        if (t_[k].text == "std" && k + 2 < t_.size() &&
            t_[k + 1].text == "::") {
          k += 2;
        }
        if (k < t_.size() && t_[k].ident && lock_class(t_[k].text)) {
          size_t v = k + 1;
          if (v < t_.size() && t_[v].text == "<") {
            size_t end = 0;
            if (match_angles(v, &end)) v = end;
          }
          if (v + 1 < t_.size() && t_[v].ident && t_[v + 1].text == "(") {
            const size_t close = skip_matched(v + 1, '(', ')');
            std::string lock = canonical_lock(v + 2, close - 1, cls);
            if (!lock.empty()) {
              fn->acquires.push_back({lock, path_, t_[v].line, held()});
              active.push_back({std::move(lock), t_[v].text, depth, true});
            }
            i_ = close;
            continue;
          }
        }
      }

      const bool member = i_ > 0 && (t_[i_ - 1].text == "." ||
                                     t_[i_ - 1].text == "->");
      const size_t chain_start = i_;
      std::vector<std::string> chain = read_chain();
      if (chain.empty()) {
        ++i_;
        continue;
      }
      // lock.unlock() / lock.lock() on a tracked RAII lock variable.
      if (member && chain.size() == 1 &&
          (chain[0] == "unlock" || chain[0] == "lock") && is("(") &&
          chain_start >= 2) {
        const std::string& base = t_[chain_start - 2].text;
        bool matched = false;
        for (auto it = active.rbegin(); it != active.rend(); ++it) {
          if (it->var == base) {
            it->engaged = chain[0] == "lock";
            matched = true;
            break;
          }
        }
        if (matched) {
          i_ = skip_matched(i_, '(', ')');
          continue;
        }
      }
      if (chain.size() == 1 &&
          (body_keyword(chain[0]) || all_caps_macro(chain[0]))) {
        continue;  // keyword or macro; its arguments are scanned normally
      }
      bool call = is("(");
      if (!call && is("<")) {
        size_t end = 0;
        if (match_angles(i_, &end) && end < t_.size() &&
            t_[end].text == "(") {
          i_ = end;
          call = true;
        }
      }
      if (call) {
        std::string spelled;
        for (size_t k = 0; k < chain.size(); ++k) {
          if (!spelled.empty()) spelled += "::";
          spelled += chain[k];
        }
        fn->calls.push_back(
            {std::move(spelled), member, path_, t_[chain_start].line, held()});
        ++i_;  // step into the args so nested calls are recorded too
      }
    }
    fn->bodies.push_back({path_, body_begin, last_line});
  }

  std::string path_;
  std::vector<Tok> t_;
  size_t i_ = 0;
  std::vector<Scope> scopes_;
  FileIndex out_;
};

}  // namespace

FileIndex index_file(const std::string& path,
                     const std::vector<std::string>& stripped_lines) {
  return Parser(path, tokenize(stripped_lines)).run();
}

std::string last_component(const std::string& qualified) {
  const size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

void merge_index(FileIndex&& file, SymbolIndex* index) {
  for (Symbol& rec : file.functions) {
    auto [it, inserted] = index->symbols.emplace(rec.qualified, Symbol{});
    Symbol& sym = it->second;
    if (inserted) {
      sym.qualified = rec.qualified;
      sym.file = rec.file;
      sym.line = rec.line;
      index->by_last[last_component(rec.qualified)].push_back(rec.qualified);
    }
    if (rec.has_definition && !sym.has_definition) {
      sym.has_definition = true;
      sym.file = rec.file;
      sym.line = rec.line;
    }
    sym.calls.insert(sym.calls.end(),
                     std::make_move_iterator(rec.calls.begin()),
                     std::make_move_iterator(rec.calls.end()));
    sym.acquires.insert(sym.acquires.end(),
                        std::make_move_iterator(rec.acquires.begin()),
                        std::make_move_iterator(rec.acquires.end()));
    for (std::string& lock : rec.requires_locks) {
      if (std::count(sym.requires_locks.begin(), sym.requires_locks.end(),
                     lock) == 0) {
        sym.requires_locks.push_back(std::move(lock));
      }
    }
    sym.bodies.insert(sym.bodies.end(),
                      std::make_move_iterator(rec.bodies.begin()),
                      std::make_move_iterator(rec.bodies.end()));
  }
}

const Symbol* SymbolIndex::find(const std::string& qualified) const {
  const auto it = symbols.find(qualified);
  return it == symbols.end() ? nullptr : &it->second;
}

namespace {

/// Anonymous-namespace symbols are file-local: they may only resolve from
/// call sites in the same file.
bool anon_visible(const Symbol& sym, const Symbol& caller) {
  if (sym.qualified.find("{anon:") == std::string::npos) return true;
  return sym.file == caller.file;
}

/// Member-call names that overwhelmingly mean a standard container /
/// smart-pointer / atomic operation. Without receiver types,
/// `ring->events.clear()` would resolve to any project method that happens
/// to be called `clear` — so these names never resolve as member calls
/// (one more deliberate under-approximation).
bool stl_member_name(const std::string& name) {
  static const std::set<std::string> kNames = {
      "append",   "assign",     "at",          "back",       "begin",
      "bytes",    "c_str",      "capacity",    "cbegin",     "cend",
      "clear",    "compare",    "contains",    "count",      "data",
      "emplace",  "emplace_back", "emplace_front", "emplace_hint",
      "empty",    "end",        "ends_with",   "equal_range", "erase",
      "error",    "exchange",   "extract",     "fetch_add",  "fetch_sub",
      "find",     "first",      "front",       "get",        "has_value",
      "insert",   "join",       "joinable",    "length",     "load",
      "lock",     "lower_bound", "merge",      "notify_all", "notify_one",
      "ok",       "pop",        "pop_back",    "pop_front",  "push",
      "push_back", "push_front", "rbegin",     "release",    "rend",
      "reserve",  "reset",      "resize",      "second",     "size",
      "starts_with", "store",   "str",         "substr",     "swap",
      "top",      "try_lock",   "unlock",      "upper_bound", "value",
      "value_or", "wait",       "wait_for",    "wait_until"};
  return kNames.count(name) > 0;
}

}  // namespace

bool qualified_matches(const std::string& qualified,
                       const std::string& suffix) {
  if (qualified == suffix) return true;
  if (qualified.size() <= suffix.size() + 2) return false;
  return qualified.compare(qualified.size() - suffix.size(), suffix.size(),
                           suffix) == 0 &&
         qualified.compare(qualified.size() - suffix.size() - 2, 2, "::") == 0;
}

std::vector<const Symbol*> SymbolIndex::match_suffix(
    const std::string& name) const {
  std::vector<const Symbol*> out;
  const auto it = by_last.find(last_component(name));
  if (it == by_last.end()) return out;
  for (const std::string& qualified : it->second) {
    if (qualified_matches(qualified, name)) out.push_back(find(qualified));
  }
  return out;
}

std::vector<const Symbol*> SymbolIndex::resolve(const Symbol& caller,
                                                const CallSite& call) const {
  std::vector<const Symbol*> out;
  if (call.member) {
    if (stl_member_name(call.spelled)) return out;
    // Prefer a method on the caller's own class.
    const size_t cut = caller.qualified.rfind("::");
    if (cut != std::string::npos) {
      const Symbol* own =
          find(caller.qualified.substr(0, cut) + "::" + call.spelled);
      if (own != nullptr) return {own};
    }
    const auto it = by_last.find(call.spelled);
    if (it == by_last.end()) return out;
    for (const std::string& qualified : it->second) {
      const Symbol* sym = find(qualified);
      if (sym != nullptr && anon_visible(*sym, caller)) out.push_back(sym);
    }
    // Deliberate under-approximation: an ambiguous method name drops the
    // edge instead of linking to every class that happens to share it.
    if (out.size() != 1) out.clear();
    return out;
  }
  // Walk the caller's enclosing scopes from innermost to global looking
  // for an exact qualified match (mirrors unqualified lookup).
  std::string prefix = caller.qualified;
  while (true) {
    const size_t cut = prefix.rfind("::");
    if (cut == std::string::npos) break;
    prefix.resize(cut);
    const Symbol* sym = find(prefix + "::" + call.spelled);
    if (sym != nullptr && anon_visible(*sym, caller)) return {sym};
  }
  if (const Symbol* sym = find(call.spelled);
      sym != nullptr && anon_visible(*sym, caller)) {
    return {sym};
  }
  // Unique-suffix fallback for partially qualified spellings
  // (`obs::wall_now_us` from inside namespace vgbl).
  for (const Symbol* sym : match_suffix(call.spelled)) {
    if (sym != nullptr && anon_visible(*sym, caller)) out.push_back(sym);
  }
  if (out.size() != 1) out.clear();
  return out;
}

}  // namespace vgbl::lint
