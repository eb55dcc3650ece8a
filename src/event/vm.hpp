// Compiled condition evaluation: a stack-based bytecode VM. Conditions are
// compiled once at bundle load; per-event evaluation then runs a flat
// instruction array with no recursion, no string compares (flags are
// interned) and short-circuit jumps. E6 ablates this against the AST
// interpreter; a property test pins exact equivalence.
#pragma once

#include <string>
#include <vector>

#include "event/condition.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace vgbl {

enum class OpCode : u8 {
  kPushTrue = 0,
  kPushFalse,
  kHasItem,         // operand a = item id
  kItemCountGe,     // a = item id, b = threshold
  kFlag,            // a = interned flag index
  kScoreGe,         // b = threshold
  kVisited,         // a = scenario id
  kNot,
  kAnd,             // pops two, pushes conjunction
  kOr,
  kJumpIfFalse,     // a = target pc; peeks (does not pop) — short-circuit &&
  kJumpIfTrue,      // a = target pc; peeks — short-circuit ||
  kPop,
};

struct Instruction {
  OpCode op = OpCode::kPushTrue;
  u32 a = 0;
  i64 b = 0;

  bool operator==(const Instruction&) const = default;
};

/// A compiled condition. Flag names are interned into `flag_names`; the
/// VM resolves them to the state view once per program run.
struct Program {
  std::vector<Instruction> code;
  std::vector<std::string> flag_names;

  [[nodiscard]] size_t size() const { return code.size(); }
};

/// Compiles an AST into a short-circuiting program. Never fails for trees
/// produced by the Condition builders; malformed trees (kNot without a
/// child) compile to a constant, matching the interpreter's behaviour.
[[nodiscard]] Program compile_condition(const Condition& condition);

/// Runs a program against a state view. Corrupt programs (stack underflow,
/// bad jump target) return an error rather than UB.
Result<bool> run_program(const Program& program, const GameStateView& state);

/// Convenience wrapper owning a compiled program.
class CompiledCondition {
 public:
  CompiledCondition() : program_(compile_condition(Condition::always())) {}
  explicit CompiledCondition(const Condition& condition)
      : program_(compile_condition(condition)) {}

  /// Evaluates; corrupt-program errors surface as `false` plus a sticky
  /// error flag (cannot happen for compiler-produced programs).
  [[nodiscard]] bool evaluate(const GameStateView& state) const {
    auto r = run_program(program_, state);
    return r.ok() && r.value();
  }

  [[nodiscard]] const Program& program() const { return program_; }

 private:
  Program program_;
};

}  // namespace vgbl
