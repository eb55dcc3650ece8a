// Procedural course generator (DESIGN.md §5h): emits structurally diverse,
// guaranteed-completable projects from a (seed, params) pair. The generator
// is the correctness amplifier behind the property-fuzz corpus — every
// course carries its own completability witness (a solver InputScript built
// alongside the structure), so downstream harnesses can assert round-trip,
// completability, split-resume and parallel-fingerprint invariants over
// hundreds of shapes instead of the three hand-authored demos.
//
// Determinism contract: everything is derived from vgbl::Rng streams forked
// off the course seed. No wall clock, no ambient randomness — the
// `gen-generator-determinism` lint rule holds src/gen to the same bar as
// the replay layers, and `generate_corpus` is a pure function of
// (seed, count) regardless of how many worker threads build it.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "author/project.hpp"
#include "rewards/rules.hpp"
#include "runtime/script.hpp"
#include "util/json.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace vgbl::gen {

/// Structural knobs for one generated course. All counts are hard shape
/// parameters (not hints): `validate()` rejects combinations that cannot
/// produce a completable course (e.g. more puzzle gates than path edges).
struct GenParams {
  /// Total scenarios (solver path + side branches). >= 2.
  int scenario_count = 6;
  /// Side-branch scenarios hanging off the solver path (each gets a
  /// visit/return transition pair so the graph has no dead ends).
  int branch_count = 2;
  /// Item-gated transitions along the solver path ("collect the key in
  /// scene A before the door in scene C opens"). Gates may resolve to a
  /// direct item, a combined item (two parts + combine rule), a
  /// skill-gated dialogue flag, or a passed-quiz flag.
  int puzzle_chain = 2;
  /// NPC dialogue trees with a skill-gated reply (the "good" choice fires
  /// an action tag that sets a flag and awards score).
  int dialogue_count = 1;
  /// Quiz boards; the solver answers every question correctly.
  int quiz_count = 1;
  /// Reward rules drawn across all 10 trigger kinds (cycled, then random).
  int reward_rule_count = 10;
  /// Inert clickable/examinable objects per scenario (hit-test noise and
  /// PropertyBag round-trip fodder).
  int decoy_objects = 2;
  /// Synthetic video sizing — stresses the codec and bundle container.
  int frames_per_scene = 8;
  int frame_width = 160;
  int frame_height = 120;

  /// Shape sanity: every valid parameter set generates successfully.
  Status validate() const;

  [[nodiscard]] Json to_json() const;
  static Result<GenParams> from_json(const Json& json);

  bool operator==(const GenParams&) const = default;
};

/// One generated course plus its completability witness and reward rules.
/// `solver` drives the session from start to a successful game-over; the
/// reward rule set references generated entities by name so unlock-stream
/// properties run against realistic rules, not the demo standard() set.
struct GeneratedCourse {
  GenParams params;
  u64 seed = 0;
  std::string title;
  Project project;
  InputScript solver;
  rewards::RewardRuleSet reward_rules;
};

/// Builds one course. Pure in (params, seed); fails only on invalid params
/// or an internal construction bug (the generated project is lint-checked
/// before returning, so callers can always bundle it).
Result<GeneratedCourse> generate_course(const GenParams& params, u64 seed);

/// Draws a heterogeneous-but-valid parameter set from `rng` — the corpus
/// distribution used by `generate_corpus`, fuzz harnesses and benches.
[[nodiscard]] GenParams random_params(Rng& rng);

/// Seed + params for corpus entry `index` of corpus `seed` — exposed so
/// harnesses can regenerate any single corpus member without building the
/// rest. generate_corpus(seed, n)[i] == generate_course over these values.
[[nodiscard]] u64 corpus_course_seed(u64 corpus_seed, int index);
[[nodiscard]] GenParams corpus_course_params(u64 corpus_seed, int index);

/// Generates `count` heterogeneous courses. Each course is a pure function
/// of (seed, index): the result is bit-identical across reruns and across
/// `worker_threads` values (0 = sequential, N = thread pool fan-out into
/// pre-allocated slots).
Result<std::vector<GeneratedCourse>> generate_corpus(
    u64 seed, int count, int worker_threads = 0);

/// Shrinking: given a failing (params, seed) and a predicate that re-runs
/// the failing property, bisects every structural knob toward its minimum
/// while the failure reproduces. Returns the smallest still-failing params.
/// `still_fails` must be deterministic (it gets candidate params + the
/// original seed).
[[nodiscard]] GenParams shrink_params(
    const GenParams& failing, u64 seed,
    const std::function<bool(const GenParams&, u64)>& still_fails);

/// Writes a one-command-reproducible failure dump (params + seed + failing
/// property + serialized project text) to `dir/<property>_<seed>.json`.
/// Returns the path written. Repro: `vgbl gen --repro <path>`.
Result<std::string> write_failure_dump(
    const std::string& dir, const GeneratedCourse& course,
    const std::string& property);

/// Parsed failure dump, for `vgbl gen --repro` and harness round-trips.
struct FailureDump {
  GenParams params;
  u64 seed = 0;
  std::string property;
  std::string project_text;
};
Result<FailureDump> read_failure_dump(const std::string& path);

}  // namespace vgbl::gen
