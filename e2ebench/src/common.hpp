// Shared plumbing for the end-to-end benchmark: arguments, the result
// record every workload fills, provenance, the §3.2 classroom bundle, obs
// counter deltas and small timing helpers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace e2ebench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for stores, span files and the
  /// provenance-stamped result file.
  std::string out_dir = ".bench_out";
  /// Commit id when the caller knows it (the checkout may not be a git
  /// repository); "unknown" otherwise.
  std::string git_sha = "unknown";
  /// Digest of the platform sources the binary was built from.
  std::string source_digest = "unknown";
};

/// What one run prints. `e2e` is the untraced metric set (every workload
/// fills all of it), `layer` the traced one; `info` holds the per-workload
/// figures under their own names (students_per_s, frame_p99_us, ...) for
/// the human-readable part of the output and the result file.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  struct Info {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Info> info;
  std::vector<std::string> errors;
  /// Provenance entries beyond the common ones (e.g. the store's
  /// filesystem).
  std::map<std::string, std::string> provenance;

  /// Records an output check that failed: the run is not correct.
  void check_failed(const std::string& what);
  /// Counts `attempted` operations of which `failed` failed, described by
  /// `what_failed` when any did.
  void operations(uint64_t attempted, uint64_t failed, const std::string& what_failed);
  void put_info(const std::string& name, double value, const std::string& unit) {
    info[name] = Info{value, unit};
  }
};

/// The metric names and units BENCHMARK.json declares, in print order.
struct MetricDecl {
  const char* name;
  const char* unit;
};
const std::vector<MetricDecl>& end_to_end_metrics();
const std::vector<MetricDecl>& per_layer_metrics();

int workload_district(const Args& args, Report& report);
int workload_lesson(const Args& args, Report& report);
int workload_live_play(const Args& args, Report& report);
int workload_author_publish(const Args& args, Report& report);

// --- helpers ----------------------------------------------------------------

inline double ns_to_ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double ns_to_us(int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double ns_to_s(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Logical CPUs the process may use.
unsigned host_cpus();

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Name of the filesystem holding `path` (statfs magic), e.g. "tmpfs".
std::string filesystem_of(const std::string& path);

/// Fresh, empty directory (removed first if present). False on failure.
bool make_fresh_dir(const std::string& path);
void remove_tree(const std::string& path);

/// The §3.2 classroom-repair bundle: project built through the Editor,
/// published with the default codec (DCT, quality 16) and loaded.
vgbl::Result<std::shared_ptr<const vgbl::GameBundle>> build_classroom_bundle();

/// The §3.2 walkthrough as a script (teacher → computer → market → fix).
vgbl::InputScript classroom_solver_script();

/// One course of the mix the live-play and author-publish workloads use:
/// the authored project, the script that solves it and its reward rules.
struct Course {
  std::string title;
  vgbl::Project project;
  vgbl::InputScript solver;
  std::shared_ptr<const vgbl::rewards::RewardRuleSet> rules;
};

/// Gen corpus whose course shapes (GenParams) every course mix reuses.
inline constexpr uint64_t kShapeCorpusSeed = 7;

/// The course mix: `generated` generated courses with the shapes of corpus
/// kShapeCorpusSeed and course seeds of corpus `seed`, followed by the
/// §3.2 classroom-repair course.
vgbl::Result<std::vector<Course>> course_mix(uint64_t seed, int generated);

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// The fast end of repeated timings of the same work (the same cohort, the
/// same course played or published again): their 10th percentile. The
/// gated times and rates are built from it. On a shared host the same work
/// runs at two speeds, in bursts of a second or so, depending on what
/// else the machine does (a district cohort took 80 or 150 ms); a median
/// lands in either mode from one run to the next, the fast end stays put,
/// and a change to the program moves both.
inline double fast_time(std::vector<double> times) {
  return percentile(std::move(times), 10.0);
}

/// Runs `setup` `repeats` times (at least once), returns the last result
/// and stores the median wall time in seconds in `setup_s`.
template <typename F>
auto timed_setup(int repeats, double& setup_s, F&& setup) {
  std::vector<double> times;
  std::optional<decltype(setup())> result;
  for (int i = 0; i < std::max(1, repeats); ++i) {
    result.reset();
    const int64_t t0 = now_ns();
    result.emplace(setup());
    times.push_back(ns_to_s(now_ns() - t0));
  }
  setup_s = median(times);
  return std::move(*result);
}

/// Host-speed probe. On a shared host the program runs up to half again
/// slower for minutes at a time, while other tenants load the memory
/// system, and a pure arithmetic loop hardly notices. The probe does
/// allocation-heavy, hashing work like the program's (a hash map of short
/// strings: insert, look up, free) and is run between the timed
/// operations; the gated figures scale the program's fast times by
/// kNominalMs / the probe's fast time, which gives them at one nominal
/// host speed. Over eight 20 s runs of one district cohort the raw fast
/// time spread 0.25 (IQR/median) and the scaled one 0.045. The raw figures
/// are printed too.
class HostProbe {
 public:
  /// The probe's fast time on the host the benchmark was tuned on
  /// (4-vCPU Xeon VM at 2.0 GHz).
  static constexpr double kNominalMs = 7.0;

  /// Runs the probe once and records its time. Thread-safe.
  void sample();
  /// Fast time (fast_time) of the samples so far, in ms.
  [[nodiscard]] double fast_ms() const;
  /// kNominalMs / fast_ms(): multiply a time by it, divide a rate by it.
  [[nodiscard]] double scale() const { return kNominalMs / fast_ms(); }

 private:
  mutable std::mutex mutex_;
  std::vector<double> ms_;
  uint64_t sink_ = 0;
};

/// Counter and histogram deltas of the global obs registry between two
/// scrapes.
class ObsDelta {
 public:
  ObsDelta();
  /// Takes the "after" scrape.
  void finish();
  [[nodiscard]] double counter(const std::string& name) const;
  /// Quantile of the observations made between the two scrapes.
  [[nodiscard]] double histogram_quantile(const std::string& name, double q) const;

 private:
  vgbl::obs::MetricsSnapshot before_;
  vgbl::obs::MetricsSnapshot after_;
};

/// FNV-1a over bytes, for pinning published bundles.
uint64_t fnv1a(const uint8_t* data, size_t size, uint64_t h = 14695981039346656037ULL);
std::string hex64(uint64_t v);

}  // namespace e2ebench
