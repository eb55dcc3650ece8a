// live-play: the student's view.
//
// Two interactive sessions, one client thread each; every session keeps
// the default decode_threads = 1, so the workload uses four threads. A
// session starts from the course's bundle bytes (load_bundle, GameSession
// construction, start, first composited frame) and then runs frame by
// frame: each frame period is 1/24 s of sim clock, advanced, ticked and
// composited. Every kFramesPerInput frames the next step of the course's
// solver script is dispatched through ScriptRunner::run_step (a scripted
// wait is played out as frames instead); the input-to-frame latency runs
// from the dispatch call to the end of the next presented frame. Every
// script must end in a succeeded game-over. Sessions cycle through the
// course mix (gen corpus plus classroom-repair) until the time is up.
//
// The traced run plays the same loop untraced for half its time and
// traced for the other half, with spans around each call into a layer and
// the obs counters on.
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "runtime/compositor.hpp"

namespace e2ebench {
namespace {

using namespace vgbl;

constexpr int kGeneratedCourses = 16;
constexpr int kSessions = 2;
constexpr int kFramesPerInput = 8;
constexpr MicroTime kFramePeriod = 1'000'000 / 24;

struct PlayCourse {
  Course course;
  Bytes bytes;
};

/// One play of a course start to finish: host time and frames presented.
struct Play {
  double ms = 0;
  uint64_t frames = 0;
};

struct Samples {
  std::vector<double> frame_us;
  std::vector<double> input_to_frame_us;
  std::vector<double> session_start_ms;
  // Traced only.
  std::vector<double> fetch_us;
  std::vector<double> composite_us;
  std::vector<double> dispatch_us;
  std::vector<double> hit_test_ns;
  std::vector<double> load_ms;
  std::vector<double> open_us;
  /// Course index -> (summed frame time in us, frames), for pairing the
  /// untraced and traced plays of one course.
  std::map<size_t, std::pair<double, uint64_t>> per_course;
  /// Course index -> every play of it.
  std::map<size_t, std::vector<Play>> plays;
  uint64_t frames = 0;
  uint64_t scripts = 0;
  uint64_t scripts_failed = 0;
  std::vector<std::string> failures;

  void merge(Samples& o) {
    auto append = [](std::vector<double>& a, std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(frame_us, o.frame_us);
    append(input_to_frame_us, o.input_to_frame_us);
    append(session_start_ms, o.session_start_ms);
    append(fetch_us, o.fetch_us);
    append(composite_us, o.composite_us);
    append(dispatch_us, o.dispatch_us);
    append(hit_test_ns, o.hit_test_ns);
    append(load_ms, o.load_ms);
    append(open_us, o.open_us);
    for (const auto& [course, sum] : o.per_course) {
      per_course[course].first += sum.first;
      per_course[course].second += sum.second;
    }
    for (auto& [course, p] : o.plays) {
      plays[course].insert(plays[course].end(), p.begin(), p.end());
    }
    frames += o.frames;
    scripts += o.scripts;
    scripts_failed += o.scripts_failed;
    failures.insert(failures.end(), o.failures.begin(), o.failures.end());
  }
};

/// Canvas point a script step aims at (ScriptRunner's own rule: centre of
/// the named visible object, offset by the video area), if it aims at one.
std::optional<Point> input_point(const GameSession& session, const ScriptStep& step) {
  if (step.op == ScriptStep::Op::kClickPoint) return step.point;
  if (step.object_name.empty()) return std::nullopt;
  for (const InteractiveObject* o : session.visible_objects()) {
    if (o->name == step.object_name) {
      const Point c = o->placement.rect.center();
      const Point origin = session.ui().layout().video_area.origin();
      return Point{c.x + origin.x, c.y + origin.y};
    }
  }
  return std::nullopt;
}

/// Plays one course start to finish on the calling thread.
void play_course(const PlayCourse& pc, uint64_t group, SpanLog* log, Samples& out) {
  ScopedSpan root(log, "run.session", group);
  const int64_t t0 = now_ns();
  std::shared_ptr<const GameBundle> bundle;
  {
    ScopedSpan span(log, "author.load_bundle", group);
    auto loaded = load_bundle(pc.bytes);
    if (!loaded.ok()) {
      ++out.scripts;
      ++out.scripts_failed;
      out.failures.push_back(pc.course.title + ": load_bundle failed");
      return;
    }
    bundle = std::make_shared<const GameBundle>(std::move(loaded.value()));
  }
  if (log != nullptr) out.load_ms.push_back(ns_to_ms(now_ns() - t0));
  SimClock clock;
  SessionOptions options;
  options.reward_rules = pc.course.rules.get();
  const int64_t open0 = now_ns();
  std::optional<GameSession> session;
  Status started;
  {
    ScopedSpan span(log, "runtime.session_open", group);
    session.emplace(bundle, &clock, options);
    started = session->start();
  }
  if (log != nullptr) out.open_us.push_back(ns_to_us(now_ns() - open0));
  ++out.scripts;
  if (!started.ok()) {
    ++out.scripts_failed;
    out.failures.push_back(pc.course.title + ": session failed to start");
    return;
  }
  Compositor compositor;
  ScriptRunner runner(&*session, &clock);

  // One presented frame; returns its end time.
  auto present = [&]() {
    const int64_t f0 = now_ns();
    ScopedSpan span(log, "runtime.frame", group);
    clock.advance(kFramePeriod);
    session->tick();
    if (log != nullptr) {
      const int64_t a = now_ns();
      {
        ScopedSpan fetch(log, "media.frame_fetch", group);
        (void)session->current_video_frame();
      }
      const int64_t b = now_ns();
      {
        ScopedSpan composite(log, "runtime.composite", group);
        (void)compositor.render(*session);
      }
      const int64_t c = now_ns();
      out.fetch_us.push_back(ns_to_us(b - a));
      out.composite_us.push_back(ns_to_us(c - b));
    } else {
      (void)compositor.render(*session);
    }
    const int64_t f1 = now_ns();
    out.frame_us.push_back(ns_to_us(f1 - f0));
    ++out.frames;
    return f1;
  };

  {
    ScopedSpan span(log, "runtime.first_frame", group);
    (void)compositor.render(*session);
  }
  out.session_start_ms.push_back(ns_to_ms(now_ns() - t0));

  for (const ScriptStep& step : pc.course.solver) {
    if (session->game_over()) break;
    if (step.op == ScriptStep::Op::kWait) {
      // The student waits while the video plays.
      for (MicroTime waited = 0; waited < step.wait_time; waited += kFramePeriod) present();
      continue;
    }
    for (int f = 1; f < kFramesPerInput; ++f) present();
    if (log != nullptr) {
      if (const auto p = input_point(*session, step)) {
        ScopedSpan span(log, "object.hit_test", group);
        const int64_t h0 = now_ns();
        (void)session->object_at(*p);
        out.hit_test_ns.push_back(static_cast<double>(now_ns() - h0));
      }
    }
    const int64_t in0 = now_ns();
    Status st;
    {
      ScopedSpan span(log, "runtime.dispatch", group);
      st = runner.run_step(step);
    }
    if (log != nullptr) out.dispatch_us.push_back(ns_to_us(now_ns() - in0));
    if (!st.ok()) {
      ++out.scripts_failed;
      out.failures.push_back(pc.course.title + ": " + st.error().to_string());
      return;
    }
    out.input_to_frame_us.push_back(ns_to_us(present() - in0));
  }
  if (!session->game_over() || !session->succeeded()) {
    ++out.scripts_failed;
    out.failures.push_back(pc.course.title + ": solver did not end in a succeeded game-over");
  }
}

/// kSessions client threads cycle through the mix until `deadline`; each
/// finishes the course it is playing. Returns the wall time taken.
int64_t play_phase(const std::vector<PlayCourse>& mix, int64_t deadline, SpanLog* log,
                   Samples& merged, HostProbe* probe = nullptr) {
  std::vector<Samples> per(kSessions);
  const int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      for (size_t k = static_cast<size_t>(s); now_ns() < deadline; k += kSessions) {
        Samples& out = per[static_cast<size_t>(s)];
        const size_t first_frame = out.frame_us.size();
        const int64_t p0 = now_ns();
        play_course(mix[k % mix.size()], k, log, out);
        const int64_t p1 = now_ns();
        auto& [sum_us, frames] = out.per_course[k % mix.size()];
        for (size_t i = first_frame; i < out.frame_us.size(); ++i) sum_us += out.frame_us[i];
        frames += out.frame_us.size() - first_frame;
        out.plays[k % mix.size()].push_back(
            {ns_to_ms(p1 - p0), out.frame_us.size() - first_frame});
        if (probe != nullptr) probe->sample();
      }
    });
  }
  for (auto& t : threads) t.join();
  const int64_t wall = now_ns() - t0;
  for (auto& p : per) merged.merge(p);
  return wall;
}

void count(Report& report, const Samples& s) {
  report.operations(s.scripts, s.scripts_failed, s.failures.empty() ? "" : s.failures.front());
}

}  // namespace

int workload_live_play(const Args& args, Report& report) {
  double setup_s = 0;
  auto mix = timed_setup(args.trace ? 1 : kSetupRepeats, setup_s,
                         [&]() -> Result<std::vector<PlayCourse>> {
                           auto courses = course_mix(args.seed, kGeneratedCourses);
                           if (!courses.ok()) return courses.error();
                           // Publish the mix on every core.
                           std::vector<PlayCourse> out(courses.value().size());
                           std::vector<Status> built(out.size());
                           std::atomic<size_t> next{0};
                           auto worker = [&] {
                             for (size_t k; (k = next.fetch_add(1)) < out.size();) {
                               out[k].course = std::move(courses.value()[k]);
                               auto bytes = build_bundle(out[k].course.project);
                               if (bytes.ok()) {
                                 out[k].bytes = std::move(bytes.value());
                               } else {
                                 built[k] = bytes.error();
                               }
                             }
                           };
                           std::vector<std::thread> threads;
                           for (unsigned t = 0; t < host_cpus(); ++t) threads.emplace_back(worker);
                           for (auto& t : threads) t.join();
                           for (const Status& st : built) {
                             if (!st.ok()) return st.error();
                           }
                           return out;
                         });
  if (!mix.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", mix.error().to_string().c_str());
    return 1;
  }
  report.e2e["setup_s"] = setup_s;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);

  if (args.trace) {
    Samples untraced;
    (void)play_phase(mix.value(), now_ns() + budget_ns / 2, nullptr, untraced);
    SpanLog log;
    Samples traced;
    ObsDelta obs_delta;
    {
      vgbl::obs::ScopedEnable metrics_on;
      (void)play_phase(mix.value(), now_ns() + budget_ns / 2, &log, traced);
    }
    obs_delta.finish();
    count(report, untraced);
    count(report, traced);
    // Per course played in both halves: traced over untraced time per frame.
    std::vector<double> ratios;
    for (const auto& [course, t] : traced.per_course) {
      const auto u = untraced.per_course.find(course);
      if (u == untraced.per_course.end() || u->second.second == 0 || t.second == 0) continue;
      ratios.push_back((t.first / static_cast<double>(t.second)) /
                       (u->second.first / static_cast<double>(u->second.second)));
    }
    report.layer["trace.overhead_pct"] = (median(ratios) - 1.0) * 100.0;
    report.layer["media.frame_fetch_us_p50"] = percentile(traced.fetch_us, 50);
    report.layer["media.frame_fetch_us_p99"] = percentile(traced.fetch_us, 99);
    const double decoded = obs_delta.counter("media_frames_decoded_total");
    report.layer["media.frames_decoded"] = decoded;
    report.layer["media.decoded_per_presented"] =
        traced.frames > 0 ? decoded / static_cast<double>(traced.frames) : 0.0;
    report.layer["runtime.composite_us"] = percentile(traced.composite_us, 50);
    report.layer["runtime.dispatch_us"] = percentile(traced.dispatch_us, 50);
    report.layer["runtime.session_open_us"] = percentile(traced.open_us, 50);
    report.layer["object.hit_test_ns"] = percentile(traced.hit_test_ns, 50);
    report.layer["author.load_bundle_ms"] = percentile(traced.load_ms, 50);
    report.layer["rewards.rule_evals"] = obs_delta.counter("rewards_rule_evals_total");
    report.layer["rewards.unlocks"] = obs_delta.counter("rewards_unlocks_total");
    report.layer["persist.checkpoints"] = obs_delta.counter("persist_checkpoints_total");
    report.layer["persist.journal_appends"] = obs_delta.counter("persist_journal_appends_total");
    report.layer["concurrency.pool_idle_us"] = obs_delta.counter("pool_idle_us_total");
    report.layer["concurrency.pool_tasks"] = obs_delta.counter("pool_tasks_total");
    const std::vector<Span> spans = log.merged();
    const LayerLedger ledger = layer_ledger(spans);
    for (const char* layer : {"runtime", "media", "author", "object"}) {
      report.layer[std::string(layer) + ".self_share"] = ledger.share(layer);
    }
    report.layer["trace.unattributed_share"] = ledger.unattributed_share();
    report.put_info("trace.spans", static_cast<double>(spans.size()), "count");
    if (!write_spans_json(args.out_dir + "/spans-" + args.workload + "-seed" +
                              std::to_string(args.seed) + ".json",
                          spans, 200000)) {
      report.check_failed("cannot write the span file");
    }
    return 0;
  }

  Samples s;
  HostProbe probe;
  const int64_t wall = play_phase(mix.value(), now_ns() + budget_ns, nullptr, s, &probe);
  count(report, s);
  // Gated: the frame rate over both sessions from each course's fast play
  // time (fast_time over its plays), scaled by the host probe, and the
  // median input-to-frame latency over every input of the run, unscaled.
  // Each play has only a few inputs, too few for a per-play median. The
  // latency is decode and compositing arithmetic, which the host's slow
  // spells hardly touch: over three sweeps of ten seeds it spread 0.05 to
  // 0.07 (IQR/median) unscaled and 0.08 to 0.11 scaled.
  double mix_frames = 0;
  double mix_ms = 0;
  for (const auto& [course, plays] : s.plays) {
    std::vector<double> ms;
    for (const Play& p : plays) {
      if (p.frames != plays.front().frames) {
        report.check_failed(mix.value()[course].course.title +
                            ": plays of the course presented different frame counts");
      }
      ms.push_back(p.ms);
    }
    mix_frames += static_cast<double>(plays.front().frames);
    mix_ms += fast_time(ms);
  }
  if (s.plays.size() != mix.value().size()) {
    report.check_failed("the run did not play every course of the mix");
  }
  report.e2e["throughput_per_s"] = kSessions * mix_frames / (mix_ms / 1e3) / probe.scale();
  report.e2e["latency_ms"] = percentile(s.input_to_frame_us, 50) / 1000.0;
  report.put_info("fast_frames_per_s", kSessions * mix_frames / (mix_ms / 1e3), "1/s");
  report.put_info("host_probe_ms", probe.fast_ms(), "ms");
  const double frames_per_s = static_cast<double>(s.frames) / ns_to_s(wall);
  report.put_info("frames_per_s", frames_per_s, "1/s");
  report.put_info("frame_p50_us", percentile(s.frame_us, 50), "us");
  report.put_info("frame_p99_us", percentile(s.frame_us, 99), "us");
  report.put_info("frame_samples", static_cast<double>(s.frame_us.size()), "count");
  report.put_info("input_to_frame_p50_us", percentile(s.input_to_frame_us, 50), "us");
  report.put_info("input_to_frame_p99_us", percentile(s.input_to_frame_us, 99), "us");
  report.put_info("input_samples", static_cast<double>(s.input_to_frame_us.size()), "count");
  if (s.input_to_frame_us.size() < 1000) {
    report.check_failed("fewer than 1000 inputs: p99 has under ten samples beyond it");
  }
  report.put_info("session_start_p50_ms", percentile(s.session_start_ms, 50), "ms");
  report.put_info("session_starts", static_cast<double>(s.session_start_ms.size()), "count");
  // Simulated seconds presented per host second, summed over sessions.
  report.put_info("play_speed_x",
                  static_cast<double>(s.frames) * ns_to_s(kFramePeriod * 1000) / ns_to_s(wall),
                  "x");
  return 0;
}

}  // namespace e2ebench
