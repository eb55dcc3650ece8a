#include "sim/district.hpp"

#include <algorithm>
#include <utility>

#include "core/classroom_engine.hpp"
#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/wall_clock.hpp"
#include "sim/classroom_des.hpp"
#include "sim/stream_actor.hpp"
#include "util/text.hpp"

namespace vgbl::sim {

namespace {

/// District-level metrics. Updated once per run, after the scheduler's
/// final barrier, on the calling thread — same observe-only discipline as
/// the classroom aggregation.
struct DistrictMetrics {
  obs::Counter& runs;
  obs::Gauge& students;
  obs::Gauge& students_per_sec;

  static DistrictMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static DistrictMetrics m{
        reg.counter("district_runs_total", "district simulations executed"),
        reg.gauge("district_students",
                  "students simulated by the latest district run"),
        reg.gauge("district_students_per_sec",
                  "student throughput of the latest district run")};
    return m;
  }
};

std::string hex64(u64 v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

/// Per-classroom durable + streaming state owned for the duration of the
/// run. Sessions and badge grants land in the classroom's own directory
/// shard, so classrooms never contend on files either.
struct ClassroomState {
  ClassroomOptions options;
  std::unique_ptr<SessionStore> session_store;
  std::unique_ptr<rewards::BadgeStore> badge_store;
  std::vector<std::optional<StudentResult>> results;
  std::unique_ptr<StreamServer> stream_server;
  std::unique_ptr<StreamActor> stream_actor;
};

}  // namespace

int DistrictSummary::total_students() const {
  int n = 0;
  for (const auto& c : classrooms) {
    n += static_cast<int>(c.summary.students.size());
  }
  return n;
}

Result<DistrictSummary> run_district(std::shared_ptr<const GameBundle> bundle,
                                     const DistrictOptions& options) {
  if (options.classrooms < 1) {
    return invalid_argument("district needs at least one classroom");
  }
  if (options.students_per_classroom < 1) {
    return invalid_argument("district needs at least one student per room");
  }
  const i64 run_started_us = obs::wall_now_us();
  const int classrooms = options.classrooms;
  const int per_room = options.students_per_classroom;

  // Per-classroom state first, so every pointer handed to an actor is
  // stable for the whole run.
  std::vector<ClassroomState> rooms(static_cast<size_t>(classrooms));
  for (int c = 0; c < classrooms; ++c) {
    ClassroomState& room = rooms[static_cast<size_t>(c)];
    // The classroom seed is derived exactly like a student seed, one level
    // up the hierarchy — pure in (district seed, classroom id), so rooms
    // are independent of each other and of execution order.
    const u64 room_seed = classroom_student_seed(options.seed, c + 1);
    room.options.student_count = per_room;
    room.options.max_steps_per_student = options.max_steps_per_student;
    room.options.policies = options.policies;
    room.options.seed = room_seed;
    room.options.reward_rules = options.reward_rules;

    if (!options.persist_dir.empty()) {
      const std::string room_dir =
          options.persist_dir + "/classroom-" + std::to_string(c + 1);
      SessionStoreOptions store_options;
      store_options.directory = room_dir + "/sessions";
      store_options.session.reward_rules = options.reward_rules;
      // Store-opened sessions live as long as their student actor; keep
      // them poolless too or a persisted district would leak one decode
      // thread per live student.
      store_options.session.decode_threads = 0;
      room.session_store = std::make_unique<SessionStore>(store_options);
      room.options.store = room.session_store.get();

      auto badges =
          rewards::BadgeStore::open({.directory = room_dir + "/badges"});
      if (!badges.ok()) return badges.error();
      room.badge_store = std::move(badges.value());
      room.options.badge_store = room.badge_store.get();
    }
    room.results.resize(static_cast<size_t>(per_room));

    if (options.stream) {
      room.stream_server = std::make_unique<StreamServer>(
          bundle->video.get(),
          apply_fault_profile(StreamReplayOptions::classroom_link_defaults(),
                              options.fault_profile),
          room_seed);
      const int clients =
          options.stream_clients > 0 ? options.stream_clients : per_room;
      for (int i = 0; i < clients; ++i) {
        Rng rng(classroom_student_seed(room_seed, i + 1));
        room.stream_server->add_client(
            random_student_path(bundle->graph, options.stream_max_hops, rng));
      }
      room.stream_actor = std::make_unique<StreamActor>(
          room.stream_server.get(), options.stream_deadline);
    }
  }

  SchedulerOptions sched;
  sched.shards = options.shards > 0 ? static_cast<u32>(options.shards)
                                    : static_cast<u32>(classrooms);
  sched.worker_threads = options.worker_threads;
  sched.epoch_width = options.epoch_width;
  Scheduler scheduler(sched);

  // Whole classrooms pin to shards: students of one room share its stores,
  // so keeping the room on one shard keeps store access single-threaded
  // within an epoch while rooms run in parallel.
  std::vector<std::unique_ptr<StudentActor>> students;
  students.reserve(static_cast<size_t>(classrooms) *
                   static_cast<size_t>(per_room));
  for (int c = 0; c < classrooms; ++c) {
    ClassroomState& room = rooms[static_cast<size_t>(c)];
    const u32 shard = static_cast<u32>(c) % scheduler.shard_count();
    for (int i = 0; i < per_room; ++i) {
      students.push_back(std::make_unique<StudentActor>(
          bundle, room.options, i, &room.results[static_cast<size_t>(i)]));
      const ActorId id = scheduler.add_actor(students.back().get(), shard);
      scheduler.schedule(id, 0);
    }
    if (room.stream_actor != nullptr) {
      const ActorId id = scheduler.add_actor(room.stream_actor.get(), shard);
      scheduler.schedule(id, 0);
    }
  }

  DistrictSummary out;
  out.scheduler = scheduler.run();

  // Post-barrier aggregation, classroom by classroom in index order — the
  // district-level mirror of the classroom contract.
  for (int c = 0; c < classrooms; ++c) {
    ClassroomState& room = rooms[static_cast<size_t>(c)];
    DistrictClassroomResult result;
    result.summary = classroom_engine::aggregate_classroom_results(
        std::move(room.results), room.options, run_started_us);
    result.fingerprint = classroom_fingerprint(result.summary);
    if (room.stream_server != nullptr) {
      StreamReplaySummary stream;
      stream.end_time = room.stream_actor->finished()
                            ? room.stream_actor->end_time()
                            : options.stream_deadline;
      stream.aggregate = room.stream_server->aggregate();
      stream.arq = room.stream_server->arq_stats();
      stream.packets_sent = room.stream_server->network().stats().packets_sent;
      stream.packets_lost = room.stream_server->network().stats().packets_lost;
      result.stream = std::move(stream);
    }
    out.classrooms.push_back(std::move(result));
  }

  if (options.reward_rules != nullptr) {
    std::vector<rewards::LeaderboardRow> district_rows;
    for (int c = 0; c < classrooms; ++c) {
      const ClassroomSummary& summary =
          out.classrooms[static_cast<size_t>(c)].summary;
      for (const StudentResult& s : summary.students) {
        district_rows.push_back(classroom_engine::leaderboard_row(
            "c" + std::to_string(c + 1) + "/student-" +
                std::to_string(s.student_id),
            s));
      }
    }
    out.leaderboard = rewards::build_leaderboard(std::move(district_rows));
    rewards::export_leaderboard_metrics(out.leaderboard);
  }

  // Combined fingerprint: classroom fingerprints in order, then the
  // district leaderboard — the one artifact bench_district and the CLI
  // compare across shard counts and reruns.
  {
    u64 h = 14695981039346656037ULL;
    auto mix = [&h](u64 v) {
      for (int i = 0; i < 8; ++i) {
        h ^= static_cast<u8>(v >> (i * 8));
        h *= 1099511628211ULL;
      }
    };
    mix(out.classrooms.size());
    for (const auto& room : out.classrooms) mix(room.fingerprint);
    mix(out.leaderboard.rows.size());
    for (const auto& row : out.leaderboard.rows) {
      mix(static_cast<u64>(row.rank));
      mix(row.student_id.size());
      for (char ch : row.student_id) mix(static_cast<u8>(ch));
      mix(static_cast<u64>(row.badges));
      mix(static_cast<u64>(row.badge_points));
      mix(static_cast<u64>(row.score));
    }
    out.fingerprint = h;
  }

  out.wall_ms =
      static_cast<f64>(obs::wall_now_us() - run_started_us) / 1000.0;
  if (obs::enabled()) {
    DistrictMetrics& metrics = DistrictMetrics::get();
    VGBL_COUNT(metrics.runs);
    const int n = out.total_students();
    VGBL_GAUGE_SET(metrics.students, static_cast<f64>(n));
    VGBL_GAUGE_SET(metrics.students_per_sec,
                   out.wall_ms > 0 ? static_cast<f64>(n) / (out.wall_ms / 1000.0)
                                   : 0);
  }
  return out;
}

std::string DistrictSummary::report() const {
  std::string out;
  out += "=== District summary (" + std::to_string(classrooms.size()) +
         " classrooms, " + std::to_string(total_students()) +
         " students) ===\n";
  out += "timeline: " + std::to_string(scheduler.events) + " events in " +
         std::to_string(scheduler.epochs) + " epochs, " +
         std::to_string(scheduler.mails_delivered) +
         " cross-shard mails, peak queue depth " +
         std::to_string(scheduler.max_queue_depth) + "\n";
  out += "fingerprint: " + hex64(fingerprint) + "\n";
  out += pad_right("room", 6) + pad_right("students", 10) +
         pad_right("complete", 10) + pad_right("mean score", 12) +
         "fingerprint\n";
  for (size_t c = 0; c < classrooms.size(); ++c) {
    const auto& room = classrooms[c];
    out += pad_right("#" + std::to_string(c + 1), 6) +
           pad_right(std::to_string(room.summary.students.size()), 10) +
           pad_right(format_double(room.summary.completion_rate * 100, 1) + "%",
                     10) +
           pad_right(format_double(room.summary.mean_score, 1), 12) +
           hex64(room.fingerprint) + "\n";
    if (room.stream.has_value()) {
      out += "      streaming: " + room.stream->report();
    }
  }
  if (!leaderboard.rows.empty()) {
    out += "=== District leaderboard ===\n";
    out += leaderboard.report();
  }
  return out;
}

}  // namespace vgbl::sim
