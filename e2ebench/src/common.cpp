#include "common.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <sched.h>

#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "gen/generator.hpp"

namespace e2ebench {

using namespace vgbl;

const std::vector<MetricDecl>& end_to_end_metrics() {
  static const std::vector<MetricDecl> decls{
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"throughput_per_s", "1/s"},
      {"latency_ms", "ms"},
  };
  return decls;
}

const std::vector<MetricDecl>& per_layer_metrics() {
  static const std::vector<MetricDecl> decls{
      {"sim.events", "count"},
      {"sim.epochs", "count"},
      {"sim.mails", "count"},
      {"sim.max_queue_depth", "count"},
      {"sim.actor_event_us_p50", "us"},
      {"sim.actor_event_us_p99", "us"},
      {"sim.overhead_ms", "ms"},
      {"sim.self_share", "ratio"},
      {"runtime.session_open_us", "us"},
      {"runtime.bot_step_us", "us"},
      {"runtime.allocs_per_step", "allocs/step"},
      {"runtime.dispatch_us", "us"},
      {"runtime.composite_us", "us"},
      {"runtime.self_share", "ratio"},
      {"object.hit_test_ns", "ns"},
      {"rewards.rule_evals", "count"},
      {"rewards.unlocks", "count"},
      {"rewards.store_commit_ms", "ms"},
      {"media.frame_fetch_us_p50", "us"},
      {"media.frame_fetch_us_p99", "us"},
      {"media.decoded_per_presented", "ratio"},
      {"media.frames_decoded", "count"},
      {"media.self_share", "ratio"},
      {"video.synth_ms", "ms"},
      {"video.scene_detect_ms", "ms"},
      {"video.encode_ms", "ms"},
      {"video.mux_ms", "ms"},
      {"video.bytes_per_frame", "B/frame"},
      {"video.self_share", "ratio"},
      {"author.serialize_ms", "ms"},
      {"author.load_bundle_ms", "ms"},
      {"author.self_share", "ratio"},
      {"persist.checkpoints", "count"},
      {"persist.journal_appends", "count"},
      {"persist.journal_bytes", "B"},
      {"persist.snapshot_bytes", "B"},
      {"persist.checkpoint_ms_p50", "ms"},
      {"net.packets_sent", "count"},
      {"net.retransmits", "count"},
      {"net.goodput_ratio", "ratio"},
      {"net.replay_ms", "ms"},
      {"net.self_share", "ratio"},
      {"concurrency.pool_idle_us", "us"},
      {"concurrency.pool_tasks", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.unattributed_share", "ratio"},
  };
  return decls;
}

void Report::check_failed(const std::string& what) {
  correct = false;
  errors.push_back(what);
}

void Report::operations(uint64_t n, uint64_t n_failed, const std::string& what_failed) {
  attempted += n;
  failed += n_failed;
  if (n_failed > 0 && errors.size() < 20) errors.push_back("failed: " + what_failed);
}

unsigned host_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string filesystem_of(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x01021997UL: return "v9fs";
    case 0x65735546UL: return "fuse";
    case 0x2FC12FC1UL: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

bool make_fresh_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

Result<std::shared_ptr<const GameBundle>> build_classroom_bundle() {
  auto project = build_classroom_repair_project();
  if (!project.ok()) return project.error();
  return publish(project.value());
}

InputScript classroom_solver_script() {
  return {
      ScriptStep::click("teacher"),
      ScriptStep::choose(0),
      ScriptStep::advance(),
      ScriptStep::examine("computer"),
      ScriptStep::click("PSU INFO"),
      ScriptStep::click("GO MARKET"),
      ScriptStep::wait(milliseconds(800)),
      ScriptStep::click("psu_box"),
      ScriptStep::click("BACK TO CLASS"),
      ScriptStep::use_item("psu_part", "computer"),
  };
}

Result<std::vector<Course>> course_mix(uint64_t seed, int generated) {
  std::vector<Course> mix;
  for (int i = 0; i < generated; ++i) {
    // Shape (scene count, frame size, puzzle depth, ...) from a fixed
    // corpus, content from the workload seed: every seed gets the same size
    // mix, so a seed changes what is played, not how much work it is.
    const gen::GenParams params = gen::corpus_course_params(kShapeCorpusSeed, i);
    auto course = gen::generate_course(params, gen::corpus_course_seed(seed, i));
    if (!course.ok()) return course.error();
    gen::GeneratedCourse& g = course.value();
    mix.push_back({g.title, std::move(g.project), std::move(g.solver),
                   std::make_shared<const rewards::RewardRuleSet>(
                       std::move(g.reward_rules))});
  }
  auto classroom = build_classroom_repair_project();
  if (!classroom.ok()) return classroom.error();
  // The standard rule set is a process-lifetime singleton: no ownership.
  mix.push_back({"classroom-repair", std::move(classroom.value()),
                 classroom_solver_script(),
                 std::shared_ptr<const rewards::RewardRuleSet>(
                     &rewards::RewardRuleSet::standard(),
                     [](const rewards::RewardRuleSet*) {})});
  return mix;
}

void HostProbe::sample() {
  const int64_t t0 = now_ns();
  uint64_t hits = 0;
  {
    std::unordered_map<uint64_t, std::string> map;
    for (uint64_t i = 0; i < 40000; ++i) {
      map.emplace(i * 0x9E3779B97F4A7C15ULL, std::string(20 + i % 17, 'a'));
    }
    for (uint64_t i = 0; i < 80000; ++i) hits += map.count(i * 0x9E3779B97F4A7C15ULL);
  }
  const double ms = ns_to_ms(now_ns() - t0);
  std::lock_guard<std::mutex> lock(mutex_);
  ms_.push_back(ms);
  sink_ += hits;
}

double HostProbe::fast_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fast_time(ms_);
}

ObsDelta::ObsDelta() : before_(obs::MetricsRegistry::global().scrape()) {}

void ObsDelta::finish() { after_ = obs::MetricsRegistry::global().scrape(); }

double ObsDelta::counter(const std::string& name) const {
  const auto* a = after_.find_counter(name);
  const auto* b = before_.find_counter(name);
  const u64 after = a != nullptr ? a->value : 0;
  const u64 before = b != nullptr ? b->value : 0;
  return static_cast<double>(after - before);
}

double ObsDelta::histogram_quantile(const std::string& name, double q) const {
  const auto* a = after_.find_histogram(name);
  if (a == nullptr) return 0.0;
  obs::HistogramSample delta = *a;
  if (const auto* b = before_.find_histogram(name); b != nullptr) {
    for (size_t i = 0; i < delta.counts.size() && i < b->counts.size(); ++i) {
      delta.counts[i] -= b->counts[i];
    }
    delta.count -= b->count;
    delta.sum -= b->sum;
  }
  return delta.count > 0 ? delta.quantile(q) : 0.0;
}

uint64_t fnv1a(const uint8_t* data, size_t size, uint64_t h) {
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace e2ebench
