// Ready-made demonstration games, authored through the public Editor API.
// `classroom_repair` is the paper's §3.2 worked example implemented
// verbatim; `treasure_hunt` is a larger branching adventure exercising
// combining, rewards and weighted transitions. Shared by the examples, the
// integration tests and the benchmarks.
#pragma once

#include "author/project.hpp"
#include "util/result.hpp"

namespace vgbl {

/// The paper's worked example (§3.2): an NPC teacher reports a broken
/// classroom computer; the player examines it, discovers the dead power
/// supply, travels to the market scenario, buys the part, returns and
/// installs it, earning a reward. Scenarios: classroom ⇄ market.
Result<Project> build_classroom_repair_project(u64 seed = 42);

/// A four-scenario adventure (beach → cave/library → vault): find the map
/// and the key, combine them into a marked map, unlock the vault, reach
/// the terminal treasure scenario. Exercises combine rules, weighted
/// transitions, hidden objects and score bonuses.
Result<Project> build_treasure_hunt_project(u64 seed = 1337);

/// Minimal two-scenario game used by the quickstart example and smoke
/// tests: one button switches scenes, one collectable ends the game.
Result<Project> build_quickstart_project(u64 seed = 7);

/// A one-scenario science class: the teacher NPC offers a knowledge-check
/// quiz; passing it (≥2/3 correct) earns the scholar badge and ends the
/// game. Failing lets the player retake it. Exercises the quiz subsystem
/// end to end (§3.2 knowledge delivery made measurable).
Result<Project> build_science_quiz_project(u64 seed = 77);

/// A synthetic project with `scenario_count` scenarios in a chain and
/// `objects_per_scenario` clickable objects each — the scalable workload
/// for authoring/serialization benchmarks (E1, E10).
Result<Project> build_scaled_project(int scenario_count,
                                     int objects_per_scenario,
                                     int rules_per_object = 1, u64 seed = 5);

}  // namespace vgbl
