// district-classroom and lesson-persist-stream: the lecturer's view.
//
// Both run sim::run_district on the §3.2 classroom-repair bundle with
// reward rules on and the full 400-step budget, 25 bot students per
// classroom. district-classroom times its cohort on the calling thread,
// run after run, and checks that every classroom's fingerprint is the same
// in every run. No run uses scheduler worker threads: with workers,
// sim::Scheduler calls ThreadPool::parallel_for once per epoch, which can
// crash (see "Known defect" in README.md). lesson-persist-stream makes
// every classroom store-backed (suspend, checkpoint and resume through a
// SessionStore; unlocks committed to a BadgeStore) and gives it a streaming
// cohort under the iid2 fault profile, on the calling thread.
//
// The traced run alternates untraced runs of the cohort with replays on a
// benchmark-built sim::Scheduler laid out exactly as run_district lays it
// out (room c on shard c), with every sim::StudentActor and
// sim::StreamActor wrapped in a timing actor. The replica's per-classroom
// fingerprints, taken through classroom_engine::aggregate_classroom_results
// and classroom_fingerprint, must equal the untraced run's. Session open,
// bot steps and the standalone stream replay are probed directly.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "common.hpp"
#include "core/classroom_engine.hpp"
#include "obs/metrics.hpp"
#include "sim/classroom_des.hpp"
#include "sim/district.hpp"
#include "sim/stream_actor.hpp"

namespace e2ebench {
namespace {

using namespace vgbl;

constexpr int kStudentsPerClassroom = 25;
constexpr int kMaxSteps = 400;
/// Both workloads run districts of 2 x 25 students. A run cycles through
/// kCohorts such districts, each with its own seed drawn from the workload
/// seed; the scheduler events of a cycle (the work) differ by a few
/// percent from seed to seed. Small districts keep each timing short and
/// the working set small. On a shared host the same work runs slower in
/// bursts of a second or so; fast_time needs timings shorter than a burst
/// (a store-backed district of 8 x 25 took 1.1 to 1.6 s, and its fast end
/// still moved by a fifth between runs). One district of 1000 students ran
/// at 700 to 1100 students/s from one process to the next, with the same
/// seed.
constexpr int kClassrooms = 2;
constexpr int kCohorts = 4;
constexpr int kStreamMaxHops = 12;
constexpr MicroTime kStreamDeadline = seconds(600);

/// Seed of cohort `j` of a run: distinct for every (seed, j).
uint64_t cohort_seed(uint64_t seed, int j) {
  return seed * kCohorts + static_cast<uint64_t>(j);
}

/// The sim::DistrictSummary::fingerprint values of a cycle's cohorts, mixed
/// in order, for the default seed and one held-out seed.
struct PinnedFingerprint {
  uint64_t seed;
  uint64_t fingerprint;
};
constexpr PinnedFingerprint kPinnedDistrict[] = {
    {1, 0x766f71966c7328f7ULL},
    {2, 0x1bc7ff00c6ad935bULL},
};

const rewards::RewardRuleSet* rules() {
  return &rewards::RewardRuleSet::standard();
}

sim::DistrictOptions district_options(uint64_t seed, int classrooms, bool lesson) {
  sim::DistrictOptions o;
  o.classrooms = classrooms;
  o.students_per_classroom = kStudentsPerClassroom;
  o.max_steps_per_student = kMaxSteps;
  o.seed = seed;
  o.reward_rules = rules();
  if (lesson) {
    o.stream = true;
    o.fault_profile = "iid2";
    o.stream_max_hops = kStreamMaxHops;
    o.stream_deadline = kStreamDeadline;
  }
  return o;
}

/// The link run_district gives each classroom under the iid2 profile.
StreamingConfig iid2_link() {
  StreamingConfig config = StreamReplayOptions::classroom_link_defaults();
  config.faults = FaultSchedule::profile("iid2");
  config.network.loss_rate = std::max(config.network.loss_rate, 0.02);
  return config;
}

/// Counts every student (and stream client) of a district result as an
/// operation: skipped students and unfinished or abandoned clients fail.
void count_district(Report& report, const sim::DistrictSummary& d, int classrooms) {
  for (int c = 0; c < classrooms; ++c) {
    const auto& room = d.classrooms[static_cast<size_t>(c)];
    const auto skipped = static_cast<uint64_t>(kStudentsPerClassroom) -
                         room.summary.students.size();
    report.operations(kStudentsPerClassroom, skipped,
                      "classroom " + std::to_string(c + 1) + ": student skipped at start");
    if (room.stream) {
      const auto bad = static_cast<uint64_t>(room.stream->aggregate.unfinished_clients) +
                       room.stream->arq.abandoned;
      report.operations(kStudentsPerClassroom, bad,
                        "classroom " + std::to_string(c + 1) +
                            ": stream client unfinished or abandoned");
    }
  }
}

/// Wraps an actor so each firing is one span: a StudentActor firing is one
/// BotDriver iteration (plus session open or checkpoint at its edges), a
/// StreamActor firing one 2 ms delivery step.
class TimedActor : public sim::Actor {
 public:
  TimedActor(sim::Actor* inner, SpanLog* log, const char* name, uint64_t group)
      : inner_(inner), log_(log), name_(name), group_(group) {}
  void on_event(sim::Context& ctx) override {
    ScopedSpan span(log_, name_, group_);
    inner_->on_event(ctx);
  }

 private:
  sim::Actor* inner_;
  SpanLog* log_;
  const char* name_;
  uint64_t group_;
};

/// Per-classroom state of the replica, mirroring run_district's.
struct ReplicaRoom {
  ClassroomOptions options;
  std::unique_ptr<SessionStore> sessions;
  std::unique_ptr<rewards::BadgeStore> badges;
  std::vector<std::optional<StudentResult>> slots;
  std::unique_ptr<StreamServer> server;
  std::unique_ptr<sim::StreamActor> stream;
};

struct ReplicaResult {
  std::vector<uint64_t> fingerprints;
  std::vector<double> startup_p95_ms;  // per streamed classroom
  uint64_t packets_sent = 0;
  uint64_t retransmits = 0;
  uint64_t abandoned = 0;
  sim::SchedulerStats stats;
  int64_t wall_ns = 0;
  bool ok = true;
};

/// run_district rebuilt from its public parts. `log` null: bare actors.
ReplicaResult run_replica(const std::shared_ptr<const GameBundle>& bundle,
                          const sim::DistrictOptions& district,
                          const std::string& persist_dir, SpanLog* log) {
  ReplicaResult out;
  const int classrooms = district.classrooms;
  std::vector<ReplicaRoom> rooms(static_cast<size_t>(classrooms));
  for (int c = 0; c < classrooms; ++c) {
    ReplicaRoom& room = rooms[static_cast<size_t>(c)];
    const uint64_t room_seed = classroom_student_seed(district.seed, c + 1);
    room.options.student_count = district.students_per_classroom;
    room.options.max_steps_per_student = district.max_steps_per_student;
    room.options.policies = district.policies;
    room.options.seed = room_seed;
    room.options.reward_rules = district.reward_rules;
    if (!persist_dir.empty()) {
      const std::string dir = persist_dir + "/classroom-" + std::to_string(c + 1);
      SessionStoreOptions store_options;
      store_options.directory = dir + "/sessions";
      store_options.session.reward_rules = district.reward_rules;
      store_options.session.decode_threads = 0;
      room.sessions = std::make_unique<SessionStore>(store_options);
      room.options.store = room.sessions.get();
      auto badges = rewards::BadgeStore::open({.directory = dir + "/badges"});
      if (!badges.ok()) {
        out.ok = false;
        return out;
      }
      room.badges = std::move(badges.value());
      room.options.badge_store = room.badges.get();
    }
    room.slots.resize(static_cast<size_t>(district.students_per_classroom));
    if (district.stream) {
      room.server = std::make_unique<StreamServer>(bundle->video.get(), iid2_link(),
                                                   room_seed);
      for (int i = 0; i < district.students_per_classroom; ++i) {
        Rng rng(classroom_student_seed(room_seed, i + 1));
        room.server->add_client(
            random_student_path(bundle->graph, district.stream_max_hops, rng));
      }
      room.stream = std::make_unique<sim::StreamActor>(room.server.get(),
                                                       district.stream_deadline);
    }
  }

  sim::SchedulerOptions sched;
  sched.shards = static_cast<u32>(classrooms);
  sched.worker_threads = district.worker_threads;
  sched.epoch_width = district.epoch_width;
  sim::Scheduler scheduler(sched);
  std::vector<std::unique_ptr<sim::StudentActor>> students;
  std::vector<std::unique_ptr<TimedActor>> wrappers;
  auto add = [&](sim::Actor* actor, u32 shard, const char* name, uint64_t group) {
    if (log != nullptr) {
      wrappers.push_back(std::make_unique<TimedActor>(actor, log, name, group));
      actor = wrappers.back().get();
    }
    scheduler.schedule(scheduler.add_actor(actor, shard), 0);
  };
  for (int c = 0; c < classrooms; ++c) {
    ReplicaRoom& room = rooms[static_cast<size_t>(c)];
    const u32 shard = static_cast<u32>(c) % scheduler.shard_count();
    for (int i = 0; i < district.students_per_classroom; ++i) {
      students.push_back(std::make_unique<sim::StudentActor>(
          bundle, room.options, i, &room.slots[static_cast<size_t>(i)]));
      add(students.back().get(), shard, "runtime.student_event",
          static_cast<uint64_t>(c) * 1000 + static_cast<uint64_t>(i));
    }
    if (room.stream != nullptr) {
      add(room.stream.get(), shard, "net.stream_step", static_cast<uint64_t>(c) * 1000 + 999);
    }
  }

  const int64_t t0 = now_ns();
  {
    ScopedSpan span(log, "sim.scheduler_run");
    out.stats = scheduler.run();
  }
  out.wall_ns = now_ns() - t0;

  for (int c = 0; c < classrooms; ++c) {
    ReplicaRoom& room = rooms[static_cast<size_t>(c)];
    const ClassroomSummary summary = classroom_engine::aggregate_classroom_results(
        std::move(room.slots), room.options, 0);
    out.fingerprints.push_back(classroom_fingerprint(summary));
    if (room.server != nullptr) {
      out.startup_p95_ms.push_back(room.server->aggregate().p95_startup_ms);
      out.packets_sent += room.server->network().stats().packets_sent;
      out.retransmits += room.server->aggregate().retransmits;
      out.abandoned += room.server->arq_stats().abandoned;
    }
  }
  return out;
}

/// runtime probes: GameSession open (constructor + start) configured as a
/// simulated student's, and BotDriver::run_iteration with allocation
/// counting, over the first classroom's students.
void probe_runtime(const std::shared_ptr<const GameBundle>& bundle,
                   uint64_t district_seed, Report& report) {
  SessionOptions session_options;
  session_options.reward_rules = rules();
  session_options.decode_threads = 0;
  ClassroomOptions room;
  room.seed = classroom_student_seed(district_seed, 1);
  std::vector<double> open_us;
  std::vector<double> step_us;
  uint64_t steps = 0;
  uint64_t allocs = 0;
  for (int i = 0; i < kStudentsPerClassroom; ++i) {
    SimClock clock;
    const int64_t t0 = now_ns();
    GameSession session(bundle, &clock, session_options);
    const bool started = session.start().ok();
    open_us.push_back(ns_to_us(now_ns() - t0));
    if (!started) {
      report.check_failed("runtime probe: session failed to start");
      continue;
    }
    BotDriver driver(session, clock, classroom_engine::student_policy(room, i),
                     kMaxSteps, classroom_student_seed(room.seed, i + 1));
    alloc::set_counting(true);
    while (!driver.done()) {
      const uint64_t a0 = alloc::thread_count();
      const int64_t s0 = now_ns();
      driver.run_iteration();
      step_us.push_back(ns_to_us(now_ns() - s0));
      allocs += alloc::thread_count() - a0;
      ++steps;
    }
    alloc::set_counting(false);
  }
  report.layer["runtime.session_open_us"] = median(open_us);
  report.layer["runtime.bot_step_us"] = median(step_us);
  report.layer["runtime.allocs_per_step"] =
      steps > 0 ? static_cast<double>(allocs) / static_cast<double>(steps) : 0.0;
}

void span_layer_metrics(const std::vector<Span>& spans, Report& report) {
  std::vector<double> event_us;
  int64_t event_ns = 0;
  int64_t scheduler_ns = 0;
  for (const Span& s : spans) {
    const std::string name = s.name;
    if (name == "runtime.student_event" || name == "net.stream_step") {
      if (name == "runtime.student_event") event_us.push_back(ns_to_us(s.duration_ns()));
      event_ns += s.duration_ns();
    } else if (name == "sim.scheduler_run") {
      scheduler_ns += s.duration_ns();
    }
  }
  report.layer["sim.actor_event_us_p50"] = percentile(event_us, 50);
  report.layer["sim.actor_event_us_p99"] = percentile(event_us, 99);
  report.layer["sim.overhead_ms"] = ns_to_ms(scheduler_ns - event_ns);
  const LayerLedger ledger = layer_ledger(spans);
  for (const char* layer : {"sim", "runtime", "net"}) {
    report.layer[std::string(layer) + ".self_share"] = ledger.share(layer);
  }
  report.layer["trace.unattributed_share"] = ledger.unattributed_share();
  report.put_info("trace.spans", static_cast<double>(spans.size()), "count");
}

struct DistrictRun {
  std::optional<sim::DistrictSummary> summary;
  int64_t wall_ns = 0;
};

int district_like(const Args& args, Report& report, bool lesson) {
  const uint64_t seed = args.seed;
  const std::string store_root = args.out_dir + "/tmp-" + args.workload;
  if (lesson) report.provenance["persist_fs"] = filesystem_of(store_root);

  double setup_s = 0;
  auto built = timed_setup(args.trace ? 1 : kSetupRepeats, setup_s,
                           [] { return build_classroom_bundle(); });
  if (!built.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", built.error().to_string().c_str());
    return 1;
  }
  const std::shared_ptr<const GameBundle> bundle = built.value();
  report.e2e["setup_s"] = setup_s;

  // One run_district call, timed; store-backed runs get a fresh directory
  // that is removed afterwards, outside the timing.
  uint64_t dirs = 0;
  auto run = [&](sim::DistrictOptions options) {
    DistrictRun out;
    if (lesson) {
      options.persist_dir = store_root + "/district-" + std::to_string(dirs++);
      if (!make_fresh_dir(options.persist_dir)) {
        report.check_failed("cannot create " + options.persist_dir);
        return out;
      }
    }
    const int64_t t0 = now_ns();
    auto summary = sim::run_district(bundle, options);
    out.wall_ns = now_ns() - t0;
    if (lesson) remove_tree(options.persist_dir);
    if (!summary.ok()) {
      report.check_failed("run_district: " + summary.error().to_string());
      return out;
    }
    count_district(report, summary.value(), options.classrooms);
    out.summary = std::move(summary.value());
    return out;
  };
  auto fingerprints_of = [](const sim::DistrictSummary& d) {
    std::vector<uint64_t> fps;
    for (const auto& room : d.classrooms) fps.push_back(room.fingerprint);
    return fps;
  };

  if (args.trace) {
    // Alternate untraced run_district and traced replica of the same cohort
    // until most of the time is used; the overhead is the median ratio.
    // Both workloads trace the first cohort of a cycle. Every pair traces
    // into a fresh log; the ledger and the span file keep the first
    // replica's spans, which bounds their count.
    const int classrooms = kClassrooms;
    const uint64_t traced_seed = cohort_seed(seed, 0);
    sim::DistrictOptions options = district_options(traced_seed, classrooms, lesson);
    const int64_t deadline = now_ns() + static_cast<int64_t>(args.seconds * 0.6e9);
    std::vector<Span> spans;
    std::vector<double> ratios;
    std::vector<uint64_t> expected;
    std::vector<double> expected_p95;
    ReplicaResult first;
    std::optional<ObsDelta> obs_delta;
    do {
      const DistrictRun reference = run(options);
      if (!reference.summary) return 0;
      if (expected.empty()) {
        expected = fingerprints_of(*reference.summary);
        for (const auto& room : reference.summary->classrooms) {
          if (room.stream) expected_p95.push_back(room.stream->aggregate.p95_startup_ms);
        }
      }
      const std::string persist =
          lesson ? store_root + "/traced-" + std::to_string(ratios.size()) : "";
      if (lesson && !make_fresh_dir(persist)) report.check_failed("cannot create " + persist);
      ReplicaResult traced;
      {
        SpanLog log;
        obs::ScopedEnable metrics_on;
        if (ratios.empty()) obs_delta.emplace();
        {
          ScopedSpan root(&log, "run.district", traced_seed);
          traced = run_replica(bundle, options, persist, &log);
        }
        if (ratios.empty()) spans = log.merged();
      }
      if (ratios.empty()) obs_delta->finish();
      if (lesson) remove_tree(persist);
      if (!traced.ok) report.check_failed("replica could not open its stores");
      if (traced.fingerprints != expected) {
        report.check_failed("traced replica fingerprints differ from run_district's");
      }
      if (traced.startup_p95_ms != expected_p95) {
        report.check_failed("traced replica stream startup differs from run_district's");
      }
      if (ratios.empty()) {
        first = traced;
      } else if (traced.stats.events != first.stats.events ||
                 traced.stats.epochs != first.stats.epochs ||
                 traced.packets_sent != first.packets_sent) {
        report.check_failed(
            "scheduler or delivery counts differ between traced replicas: events " +
            std::to_string(traced.stats.events) + " vs " + std::to_string(first.stats.events) +
            ", epochs " + std::to_string(traced.stats.epochs) + " vs " +
            std::to_string(first.stats.epochs) + ", packets " +
            std::to_string(traced.packets_sent) + " vs " + std::to_string(first.packets_sent));
      }
      ratios.push_back(static_cast<double>(traced.wall_ns) /
                       static_cast<double>(reference.wall_ns));
    } while (now_ns() < deadline);
    report.put_info("trace.pairs", static_cast<double>(ratios.size()), "count");
    report.layer["trace.overhead_pct"] = (median(ratios) - 1.0) * 100.0;
    // Counts of one traced replica: they repeat exactly for a seed.
    report.layer["sim.events"] = static_cast<double>(first.stats.events);
    report.layer["sim.epochs"] = static_cast<double>(first.stats.epochs);
    report.layer["sim.mails"] = static_cast<double>(first.stats.mails_delivered);
    report.layer["sim.max_queue_depth"] = static_cast<double>(first.stats.max_queue_depth);
    report.layer["rewards.rule_evals"] = obs_delta->counter("rewards_rule_evals_total");
    report.layer["rewards.unlocks"] = obs_delta->counter("rewards_unlocks_total");
    report.layer["rewards.store_commit_ms"] =
        obs_delta->histogram_quantile("rewards_store_commit_ms", 0.5);
    report.layer["media.frames_decoded"] = obs_delta->counter("media_frames_decoded_total");
    report.layer["persist.checkpoints"] = obs_delta->counter("persist_checkpoints_total");
    report.layer["persist.journal_appends"] = obs_delta->counter("persist_journal_appends_total");
    report.layer["persist.journal_bytes"] = obs_delta->counter("persist_journal_bytes_total");
    report.layer["persist.snapshot_bytes"] = obs_delta->counter("persist_snapshot_bytes_total");
    report.layer["persist.checkpoint_ms_p50"] =
        obs_delta->histogram_quantile("persist_checkpoint_ms", 0.5);
    if (lesson) {
      report.layer["net.packets_sent"] = static_cast<double>(first.packets_sent);
      report.layer["net.retransmits"] = static_cast<double>(first.retransmits);
      // Each original packet is sent once and re-sent until acknowledged
      // or abandoned: unique deliveries = sent - retransmits - abandoned.
      report.layer["net.goodput_ratio"] =
          first.packets_sent > 0
              ? static_cast<double>(first.packets_sent - first.retransmits - first.abandoned) /
                    static_cast<double>(first.packets_sent)
              : 0.0;
      // The standalone delivery path for one classroom.
      std::vector<double> replay_ms;
      for (int c = 0; c < classrooms; ++c) {
        StreamReplayOptions replay;
        replay.client_count = kStudentsPerClassroom;
        replay.seed = classroom_student_seed(traced_seed, c + 1);
        replay.max_hops = kStreamMaxHops;
        replay.fault_profile = "iid2";
        replay.deadline = kStreamDeadline;
        const int64_t t0 = now_ns();
        const StreamReplaySummary s = replay_classroom_stream(*bundle, replay);
        replay_ms.push_back(ns_to_ms(now_ns() - t0));
        if (s.aggregate.unfinished_clients != 0 || s.arq.abandoned != 0) {
          report.check_failed("stream replay left clients unfinished");
        }
      }
      report.layer["net.replay_ms"] = median(replay_ms);
    }
    span_layer_metrics(spans, report);
    if (!write_spans_json(args.out_dir + "/spans-" + args.workload + "-seed" +
                              std::to_string(seed) + ".json",
                          spans, 200000)) {
      report.check_failed("cannot write the span file");
    }

    probe_runtime(bundle, traced_seed, report);
    return 0;
  }

  // Untraced: cycles of kCohorts districts on the calling thread until the
  // time is up. The first cycle warms up and is not timed; a cohort's time
  // is the fast end (fast_time) of its timed runs.
  const int64_t deadline = now_ns() + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<std::vector<uint64_t>> expected(kCohorts);
  std::vector<uint64_t> district_fps;
  std::vector<std::vector<double>> cohort_ms(kCohorts);
  double cycle_students = 0;
  uint64_t cycle_events = 0;
  std::vector<double> startup_p95;
  HostProbe probe;
  for (int cycle = 0; cycle < 2 || now_ns() < deadline; ++cycle) {
    for (int j = 0; j < kCohorts; ++j) {
      const DistrictRun r = run(district_options(cohort_seed(seed, j), kClassrooms, lesson));
      if (!r.summary) return 0;
      auto& want = expected[static_cast<size_t>(j)];
      if (cycle == 0) {
        want = fingerprints_of(*r.summary);
        district_fps.push_back(r.summary->fingerprint);
        cycle_students += r.summary->total_students();
        cycle_events += r.summary->scheduler.events;
        for (const auto& room : r.summary->classrooms) {
          if (room.stream) startup_p95.push_back(room.stream->aggregate.p95_startup_ms);
        }
        continue;
      }
      if (fingerprints_of(*r.summary) != want) {
        report.check_failed("classroom fingerprints differ between runs of a cohort");
      }
      cohort_ms[static_cast<size_t>(j)].push_back(ns_to_ms(r.wall_ns));
      probe.sample();
    }
  }
  const uint64_t cycle_fp = fnv1a(reinterpret_cast<const uint8_t*>(district_fps.data()),
                                  district_fps.size() * sizeof(uint64_t));
  double cycle_ms = 0;
  for (const auto& times : cohort_ms) cycle_ms += fast_time(times);
  const double students_per_s = cycle_students / (cycle_ms / 1e3);
  report.e2e["throughput_per_s"] = students_per_s / probe.scale();
  // The report a lecturer waits for: one district, computed on one core.
  report.e2e["latency_ms"] = cycle_ms / kCohorts * probe.scale();
  report.put_info("students_per_s", students_per_s, "students/s");
  report.put_info("report_ms", cycle_ms / kCohorts, "ms");
  report.put_info("host_probe_ms", probe.fast_ms(), "ms");
  // Scheduler events of a cycle: the work done, the same for every run of a seed.
  report.put_info("events_per_cycle", static_cast<double>(cycle_events), "count");
  report.put_info("timed_runs_per_cohort", static_cast<double>(cohort_ms[0].size()), "count");
  std::printf("fingerprint %s (%d districts of %d classrooms x %d students, seed %llu)\n",
              hex64(cycle_fp).c_str(), kCohorts, kClassrooms, kStudentsPerClassroom,
              static_cast<unsigned long long>(seed));
  if (lesson) {
    // Simulated time: the same for every run of a seed.
    report.put_info("stream_startup_p95_ms", percentile(startup_p95, 50), "ms");
    return 0;
  }

  for (const auto& pin : kPinnedDistrict) {
    if (pin.seed == seed && pin.fingerprint != cycle_fp) {
      report.check_failed("district fingerprint " + hex64(cycle_fp) +
                          " differs from the pinned " + hex64(pin.fingerprint));
    }
  }
  return 0;
}

}  // namespace

int workload_district(const Args& args, Report& report) {
  return district_like(args, report, /*lesson=*/false);
}

int workload_lesson(const Args& args, Report& report) {
  return district_like(args, report, /*lesson=*/true);
}

}  // namespace e2ebench
