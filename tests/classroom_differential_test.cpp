// Golden classroom gate (DESIGN.md §5i): pins one classroom_fingerprint —
// per-student results, encoded unlock logs, ranked leaderboard — per
// checked-in gen-corpus seed, plus the store-backed (suspend/checkpoint/
// resume) run of the first seed and a full-budget class on the §3.2
// classroom-repair bundle (the district workload's game). Every cell of the shard × thread grid
// must reproduce the pin bit for bit, so neither the event-queue sharding
// nor the worker pool can leak into the lecturer-facing summary, and any
// change to what a simulated student does flips a pin.
//
// The pins were captured while a thread-per-student engine still ran
// beside the DES scheduler, with both agreeing on every cell; they took
// over that differential test's gate. Regenerating after an *intentional*
// behaviour change:
//   VGBL_GOLDEN_PRINT=1 ./build/tests/classroom_differential_test
// prints the replacement kGolden table and the other pins; paste them
// below and say why in the commit message.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/classroom.hpp"
#include "core/demo_games.hpp"
#include "core/platform.hpp"
#include "gen/generator.hpp"

namespace vgbl {
namespace {

std::vector<u64> corpus_seeds() {
  std::vector<u64> seeds;
  std::ifstream in(VGBL_GEN_SEEDS_PATH);
  EXPECT_TRUE(in.good()) << "missing " << VGBL_GEN_SEEDS_PATH;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream row(line);
    u64 seed = 0;
    if (row >> seed) seeds.push_back(seed);
  }
  EXPECT_GE(seeds.size(), 8u);
  return seeds;
}

struct CorpusCourse {
  std::shared_ptr<const GameBundle> bundle;
  gen::GeneratedCourse course;
};

CorpusCourse load_course(u64 seed) {
  auto course = gen::generate_course(gen::corpus_course_params(seed, 0),
                                     gen::corpus_course_seed(seed, 0));
  EXPECT_TRUE(course.ok()) << "seed " << seed;
  auto bundle = publish(course.value().project);
  EXPECT_TRUE(bundle.ok()) << "seed " << seed;
  return {bundle.value(), std::move(course).value()};
}

ClassroomOptions base_options(u64 seed,
                              const rewards::RewardRuleSet* rules) {
  ClassroomOptions options;
  options.student_count = 6;
  options.max_steps_per_student = 200;
  options.seed = seed;
  options.reward_rules = rules;
  return options;
}

/// The shard/thread grid every run must reproduce the pin on: shards
/// {1, 2, 8} cross the event-queue partitioning, threads {0, 2} the serial
/// and worker-pool execution paths.
struct Grid {
  int shards;
  int threads;
};
constexpr Grid kGrid[] = {{1, 0}, {2, 0}, {8, 0}, {1, 2}, {2, 2}, {8, 2}};

// One storeless-run fingerprint per checked-in gen-corpus seed.
struct GoldenRow {
  u64 seed;
  u64 fingerprint;
};

constexpr GoldenRow kGolden[] = {
    // clang-format off
    {7ULL, 0x25b39827a67b22ebULL},
    {99ULL, 0xc84a8dc9478b1d31ULL},
    {1234ULL, 0x3e1e5b6d1b8c386cULL},
    {31337ULL, 0x25712390d417a6a5ULL},
    {424242ULL, 0x0e473d6d789f6fb9ULL},
    {987654321ULL, 0x6d3b4656199b909cULL},
    {2718281828ULL, 0x72d4fd525a6f4656ULL},
    {18446744073709551557ULL, 0x34af3c7deb8568b4ULL},
    // clang-format on
};

// The store-backed run of the first corpus seed.
constexpr u64 kStoreBackedGolden = 0xd6498c692f42205fULL;

// The §3.2 classroom-repair bundle (DCT q16) under the standard reward
// rules, an explorer/random class at the district's 400-step budget.
constexpr u64 kClassroomRepairGolden = 0x2434ed6042dad17dULL;

bool golden_print() { return std::getenv("VGBL_GOLDEN_PRINT") != nullptr; }

TEST(ClassroomGolden, EveryCorpusSeedMatchesItsPinOnEveryGridCell) {
  const bool print = golden_print();
  std::map<u64, u64> expected;
  for (const GoldenRow& row : kGolden) expected[row.seed] = row.fingerprint;
  if (!print) {
    ASSERT_FALSE(expected.empty())
        << "kGolden is empty — regenerate with VGBL_GOLDEN_PRINT=1";
  }

  for (u64 seed : corpus_seeds()) {
    const CorpusCourse corpus = load_course(seed);
    if (!corpus.bundle) continue;  // load already failed the test
    if (print) {
      const u64 got = classroom_fingerprint(simulate_classroom(
          corpus.bundle, base_options(seed, &corpus.course.reward_rules)));
      std::printf("    {%lluULL, 0x%016llxULL},\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(got));
      continue;
    }
    const auto it = expected.find(seed);
    ASSERT_NE(it, expected.end())
        << "no golden fingerprint for seed " << seed
        << " — new corpus seed? regenerate with VGBL_GOLDEN_PRINT=1";

    for (const Grid& g : kGrid) {
      ClassroomOptions options =
          base_options(seed, &corpus.course.reward_rules);
      options.des_shards = g.shards;
      options.worker_threads = g.threads;
      EXPECT_EQ(
          classroom_fingerprint(simulate_classroom(corpus.bundle, options)),
          it->second)
          << "seed " << seed << ", " << g.shards << " shards, " << g.threads
          << " threads";
    }
  }
}

TEST(ClassroomGolden, StoreBackedRunMatchesItsPin) {
  // The suspend/checkpoint/resume path: one corpus seed over the same
  // grid, each run against its own fresh store so no run sees another's
  // snapshots.
  namespace fs = std::filesystem;
  const u64 seed = corpus_seeds().front();
  const CorpusCourse corpus = load_course(seed);
  ASSERT_TRUE(corpus.bundle);

  const fs::path root =
      fs::temp_directory_path() /
      ("vgbl-golden-store-" +
       std::to_string(static_cast<unsigned>(::getpid())));
  fs::remove_all(root);

  auto run = [&](ClassroomOptions options, const std::string& tag) {
    SessionStoreOptions store_options;
    store_options.directory = (root / tag).string();
    store_options.session.reward_rules = &corpus.course.reward_rules;
    SessionStore store(store_options);
    options.store = &store;
    return classroom_fingerprint(simulate_classroom(corpus.bundle, options));
  };
  auto grid_cell = [&](int shards, int threads) {
    ClassroomOptions options = base_options(seed, &corpus.course.reward_rules);
    options.des_shards = shards;
    options.worker_threads = threads;
    return options;
  };

  if (golden_print()) {
    std::printf("store-backed pin: 0x%016llxULL\n",
                static_cast<unsigned long long>(run(grid_cell(1, 0), "print")));
    fs::remove_all(root);
    return;
  }
  for (const Grid& g : kGrid) {
    const std::string tag =
        std::to_string(g.shards) + "x" + std::to_string(g.threads);
    EXPECT_EQ(run(grid_cell(g.shards, g.threads), tag), kStoreBackedGolden)
        << g.shards << " shards, " << g.threads << " threads";
  }
  fs::remove_all(root);
}

TEST(ClassroomGolden, ClassroomRepairMatchesItsPinOnEveryGridCell) {
  auto bundle = publish(build_classroom_repair_project().value());
  ASSERT_TRUE(bundle.ok());
  auto options_for = [](int shards, int threads) {
    ClassroomOptions options;
    options.student_count = 8;
    options.max_steps_per_student = 400;
    options.policies = {BotPolicy::kExplorer, BotPolicy::kRandom};
    options.seed = 1;
    options.reward_rules = &rewards::RewardRuleSet::standard();
    options.des_shards = shards;
    options.worker_threads = threads;
    return options;
  };

  if (golden_print()) {
    std::printf("classroom-repair pin: 0x%016llxULL\n",
                static_cast<unsigned long long>(classroom_fingerprint(
                    simulate_classroom(bundle.value(), options_for(1, 0)))));
    return;
  }
  for (const Grid& g : kGrid) {
    EXPECT_EQ(classroom_fingerprint(simulate_classroom(
                  bundle.value(), options_for(g.shards, g.threads))),
              kClassroomRepairGolden)
        << g.shards << " shards, " << g.threads << " threads";
  }
}

}  // namespace
}  // namespace vgbl
