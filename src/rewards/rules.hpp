// Reward rules: the designer-configured unlock conditions behind the
// paper's §3.3 Rewarding ("players get scores, badges and feedback as
// they solve problems"). A RewardRuleSet is an immutable, validated
// collection of rules indexed by trigger kind; the RewardEvaluator
// (evaluator.hpp) walks only the rules subscribed to each event kind and
// caches unlocked rules in a per-session bitset, so the hot path is O(1)
// once a rule has fired.
//
// Determinism: rules are pure data evaluated against sim-time events.
// Nothing here reads a clock or RNG — matching the same event stream
// always produces the same unlock stream (DESIGN.md §5g).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "util/result.hpp"
#include "util/sim_clock.hpp"
#include "util/types.hpp"

namespace vgbl::rewards {

/// What kind of session event a rule subscribes to.
enum class TriggerKind : u8 {
  kScenarioEntered = 0,   ///< entered a scenario; target = scenario name
  kScenariosExplored,     ///< visited `threshold` *distinct* scenarios
  kGameCompleted,         ///< finished the game successfully
  kObjectInteracted,      ///< target = object name or interaction kind
  kItemCollected,         ///< target = item name
  kItemUsed,              ///< used an inventory item; target = item name
  kDialogueDecision,      ///< target = chosen reply text
  kQuizPassed,            ///< target = quiz name
  kScoreReached,          ///< ledger total >= threshold
  kInteractionStreak,     ///< `threshold` interactions, gaps <= window
};

inline constexpr size_t kTriggerKindCount =
    static_cast<size_t>(TriggerKind::kInteractionStreak) + 1;

[[nodiscard]] const char* trigger_kind_name(TriggerKind kind);

/// One designer-configured unlock condition. `target` filters which events
/// count (empty = any); `threshold` is how many matching events (or, for
/// kScoreReached, how many points) are required. `window` only matters for
/// streak rules: the maximum sim-time gap between consecutive events.
struct RewardRule {
  u32 id = 0;                 ///< stable id, unique within a rule set
  std::string badge;          ///< badge identifier granted on unlock
  TriggerKind trigger = TriggerKind::kObjectInteracted;
  std::string target;         ///< event filter; empty matches any event
  i64 threshold = 1;          ///< matching events (or points) required
  MicroTime window = 0;       ///< streak rules: max gap between events
  i64 bonus_points = 0;       ///< score awarded through the ledger on unlock
  std::string description;    ///< shown in CLI / leaderboard output
};

/// Immutable, validated rule collection. Rules are stored sorted by id (a
/// canonical order, so evaluator state vectors and the unlock stream are
/// independent of authoring order) and indexed per trigger kind.
class RewardRuleSet {
 public:
  /// Validates and adopts `rules`. Fails on duplicate/zero ids, empty
  /// badges, non-positive thresholds, or streak rules without a window.
  static Result<RewardRuleSet> create(std::vector<RewardRule> rules);

  /// The built-in rule set exercised by the demo bundles and the
  /// `vgbl classroom --rewards` CLI: one badge per §3.3 reward archetype.
  [[nodiscard]] static const RewardRuleSet& standard();

  [[nodiscard]] size_t size() const { return rules_.size(); }
  [[nodiscard]] const RewardRule& at(size_t index) const {
    return rules_[index];
  }
  [[nodiscard]] const std::vector<RewardRule>& rules() const {
    return rules_;
  }
  /// Indices (into rules()) of the rules subscribed to `kind`.
  [[nodiscard]] const std::vector<u32>& subscribed(TriggerKind kind) const {
    return by_kind_[static_cast<size_t>(kind)];
  }
  /// Rule with `rule_id`, or nullptr.
  [[nodiscard]] const RewardRule* find(u32 rule_id) const;

 private:
  std::vector<RewardRule> rules_;  // sorted by id
  std::array<std::vector<u32>, kTriggerKindCount> by_kind_;
};

}  // namespace vgbl::rewards
