// author-publish: the course designer's view.
//
// One publisher thread takes each course of the mix (gen corpus plus
// classroom-repair) in turn: import_clip of the course's footage into a
// fresh project (synthesis and scene detection), build_bundle of the
// authored course (synthesis, encode, mux, serialisation) and a
// load_bundle round-trip, which must succeed and give back the course's
// scenarios, objects and frame count. No runtime runs. Repeated builds of
// a course must be byte-identical, and the bundles of the default and one
// held-out seed are pinned.
//
// The traced run publishes untraced, then with spans, then takes one pass
// in which build_bundle's stages are called one by one through their
// public functions (render_project_clip, segment_scenarios, encode_stream,
// mux_container, project_to_json) to split the build between video and
// author.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "author/serialize.hpp"
#include "common.hpp"
#include "video/codec.hpp"
#include "video/container.hpp"
#include "video/scene_detect.hpp"
#include "video/synthetic.hpp"

namespace e2ebench {
namespace {

using namespace vgbl;

constexpr int kGeneratedCourses = 16;

/// For the default seed and one held-out seed: FNV-1a over every bundle of
/// the mix in mix order, and the mix's encoded video size in bytes and
/// frames (video.bytes_per_frame of the traced run).
struct PinnedMix {
  uint64_t seed;
  uint64_t digest;
  uint64_t video_bytes;
  uint64_t frames;
};
constexpr PinnedMix kPinnedMixes[] = {
    {1, 0x0179a90dd8c3491eULL, 3497120, 1218},
    {2, 0x8bd372ee39e2420bULL, 3579428, 1227},
};

struct Publish {
  int64_t wall_ns = 0;
  uint64_t digest = 0;
  bool ok = false;
  std::string error;
};

int total_frames(const Project& project) {
  int n = 0;
  for (const auto& seg : project.segments) n += seg.frame_count;
  return n;
}

/// import → build → load, with the round-trip checks.
Publish publish(const Course& course, uint64_t group, SpanLog* log) {
  Publish out;
  ScopedSpan root(log, "run.publish", group);
  const int64_t t0 = now_ns();
  {
    ScopedSpan span(log, "author.import", group);
    Project fresh;
    auto imported = import_clip(fresh, *course.project.clip_spec);
    if (!imported.ok() || imported.value().segment_count < 1) {
      out.error = course.title + ": import_clip failed";
      return out;
    }
  }
  Bytes bytes;
  {
    ScopedSpan span(log, "author.build_bundle", group);
    auto built = build_bundle(course.project);
    if (!built.ok()) {
      out.error = course.title + ": build_bundle: " + built.error().to_string();
      return out;
    }
    bytes = std::move(built.value());
  }
  Result<GameBundle> loaded = internal_error("not loaded");
  {
    ScopedSpan span(log, "author.load_bundle", group);
    loaded = load_bundle(bytes);
  }
  out.wall_ns = now_ns() - t0;
  if (!loaded.ok()) {
    out.error = course.title + ": load_bundle: " + loaded.error().to_string();
    return out;
  }
  const GameBundle& b = loaded.value();
  if (b.graph.scenarios().size() != course.project.graph.scenarios().size() ||
      b.objects.size() != course.project.objects.size() || b.video == nullptr ||
      b.video->frame_count() != total_frames(course.project)) {
    out.error = course.title + ": bundle does not round-trip";
    return out;
  }
  out.digest = fnv1a(bytes.data(), bytes.size());
  out.ok = true;
  return out;
}

/// build_bundle's stages one by one, each in its own span.
struct Stages {
  double synth_ms = 0;
  double detect_ms = 0;
  double encode_ms = 0;
  double mux_ms = 0;
  double serialize_ms = 0;
  uint64_t video_bytes = 0;
  uint64_t frames = 0;
};

bool decompose(const Course& course, uint64_t group, SpanLog* log, Stages& s) {
  ScopedSpan root(log, "run.decompose", group);
  const Project& project = course.project;
  int64_t t = now_ns();
  auto lap = [&t]() {
    const int64_t now = now_ns();
    const double ms = ns_to_ms(now - t);
    t = now;
    return ms;
  };
  Result<Clip> clip = internal_error("not rendered");
  {
    ScopedSpan span(log, "video.synth", group);
    clip = render_project_clip(project);
  }
  s.synth_ms += lap();
  if (!clip.ok()) return false;
  {
    ScopedSpan span(log, "video.scene_detect", group);
    (void)segment_scenarios(clip.value().frames);
  }
  s.detect_ms += lap();
  std::vector<int> starts;
  std::vector<ContainerSegment> segments;
  for (size_t i = 0; i < project.segments.size(); ++i) {
    starts.push_back(project.segments[i].first_frame);
    segments.push_back({project.segment_ids[i], project.segments[i].suggested_name,
                        project.segments[i].first_frame, project.segments[i].frame_count});
  }
  std::sort(starts.begin(), starts.end());
  lap();
  Result<EncodedStream> stream = internal_error("not encoded");
  {
    ScopedSpan span(log, "video.encode", group);
    stream = encode_stream(clip.value().frames, CodecConfig{}, clip.value().fps, starts);
  }
  s.encode_ms += lap();
  if (!stream.ok()) return false;
  {
    ScopedSpan span(log, "video.mux", group);
    (void)mux_container(stream.value(), segments, &clip.value().audio);
  }
  s.mux_ms += lap();
  {
    ScopedSpan span(log, "author.serialize", group);
    (void)project_to_json(project).dump(-1);
  }
  s.serialize_ms += lap();
  s.video_bytes += stream.value().total_bytes();
  s.frames += stream.value().frames.size();
  return true;
}

/// Publishes courses round-robin until `deadline` (at least one full pass)
/// and checks every build against the first build of the same course.
/// With `log` set, each publish is followed by a traced publish of the same
/// course, and the pair's time ratio is kept: alternating keeps slow spells
/// of the host out of the tracing overhead.
struct PhaseResult {
  std::vector<double> publish_ms;
  std::vector<std::vector<double>> publish_ms_by_course;
  std::vector<double> trace_ratios;
  int64_t wall_ns = 0;
  uint64_t mix_digest = 0;  // over the first pass, in mix order
};

PhaseResult publish_phase(const std::vector<Course>& mix, int64_t deadline, SpanLog* log,
                          std::vector<uint64_t>& first_digest, Report& report,
                          HostProbe* probe = nullptr) {
  PhaseResult out;
  out.publish_ms_by_course.resize(mix.size());
  out.mix_digest = 14695981039346656037ULL;
  auto check = [&](const Publish& p, size_t c) {
    report.operations(1, p.ok ? 0 : 1, p.error);
    if (!p.ok) return false;
    if (first_digest[c] == 0) {
      first_digest[c] = p.digest;
    } else if (first_digest[c] != p.digest) {
      report.check_failed(mix[c].title + ": rebuilt bundle differs from the first build");
    }
    return true;
  };
  const int64_t t0 = now_ns();
  for (size_t k = 0;; ++k) {
    const size_t c = k % mix.size();
    const Publish p = publish(mix[c], k, nullptr);
    if (check(p, c)) {
      out.publish_ms.push_back(ns_to_ms(p.wall_ns));
      out.publish_ms_by_course[c].push_back(ns_to_ms(p.wall_ns));
    }
    if (probe != nullptr) probe->sample();
    if (log != nullptr) {
      const Publish traced = publish(mix[c], k, log);
      if (check(traced, c) && p.ok) {
        out.trace_ratios.push_back(static_cast<double>(traced.wall_ns) /
                                   static_cast<double>(p.wall_ns));
      }
    }
    if (k < mix.size()) {
      const uint64_t d = first_digest[c];
      out.mix_digest = fnv1a(reinterpret_cast<const uint8_t*>(&d), sizeof d, out.mix_digest);
    }
    if (k + 1 >= mix.size() && now_ns() >= deadline) break;
  }
  out.wall_ns = now_ns() - t0;
  return out;
}

}  // namespace

int workload_author_publish(const Args& args, Report& report) {
  double setup_s = 0;
  auto mix = timed_setup(args.trace ? 1 : kSetupRepeats, setup_s,
                         [&] { return course_mix(args.seed, kGeneratedCourses); });
  if (!mix.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", mix.error().to_string().c_str());
    return 1;
  }
  const std::vector<Course>& courses = mix.value();
  report.e2e["setup_s"] = setup_s;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  std::vector<uint64_t> first_digest(courses.size(), 0);

  if (args.trace) {
    SpanLog log;
    const PhaseResult paired =
        publish_phase(courses, now_ns() + budget_ns * 4 / 5, &log, first_digest, report);
    report.layer["trace.overhead_pct"] = (median(paired.trace_ratios) - 1.0) * 100.0;
    Stages stages;
    for (size_t c = 0; c < courses.size(); ++c) {
      if (!decompose(courses[c], c, &log, stages)) {
        report.check_failed(courses[c].title + ": a build stage failed");
      }
    }
    const double n = static_cast<double>(courses.size());
    report.layer["video.synth_ms"] = stages.synth_ms / n;
    report.layer["video.scene_detect_ms"] = stages.detect_ms / n;
    report.layer["video.encode_ms"] = stages.encode_ms / n;
    report.layer["video.mux_ms"] = stages.mux_ms / n;
    report.layer["author.serialize_ms"] = stages.serialize_ms / n;
    std::printf("video %llu bytes, %llu frames (seed %llu)\n",
                static_cast<unsigned long long>(stages.video_bytes),
                static_cast<unsigned long long>(stages.frames),
                static_cast<unsigned long long>(args.seed));
    for (const auto& pin : kPinnedMixes) {
      if (pin.seed == args.seed &&
          (pin.video_bytes != stages.video_bytes || pin.frames != stages.frames)) {
        report.check_failed("encoded video size differs from the pinned one");
      }
    }
    report.layer["video.bytes_per_frame"] =
        stages.frames > 0 ? static_cast<double>(stages.video_bytes) /
                                static_cast<double>(stages.frames)
                          : 0.0;
    const std::vector<Span> spans = log.merged();
    std::vector<double> load_ms;
    for (const Span& s : spans) {
      if (std::string(s.name) == "author.load_bundle") load_ms.push_back(ns_to_ms(s.duration_ns()));
    }
    report.layer["author.load_bundle_ms"] = median(load_ms);
    const LayerLedger ledger = layer_ledger(spans);
    for (const char* layer : {"author", "video"}) {
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

  HostProbe probe;
  const PhaseResult r =
      publish_phase(courses, now_ns() + budget_ns, nullptr, first_digest, report, &probe);
  std::printf("bundle digest %s (%zu courses, seed %llu)\n", hex64(r.mix_digest).c_str(),
              courses.size(), static_cast<unsigned long long>(args.seed));
  for (const auto& pin : kPinnedMixes) {
    if (pin.seed == args.seed && pin.digest != r.mix_digest) {
      report.check_failed("bundle digest " + hex64(r.mix_digest) + " differs from the pinned " +
                          hex64(pin.digest));
    }
  }
  // Gated, both scaled by the host probe: the mix's publish rate from each
  // course's fast publish time (fast_time over its passes), and the median
  // publish time over every publish of the run. The median course's fast
  // time alone moved by a fifth from run to run: one course, a few passes.
  std::vector<double> fast_ms;
  for (const auto& times : r.publish_ms_by_course) fast_ms.push_back(fast_time(times));
  double mix_ms = 0;
  for (double t : fast_ms) mix_ms += t;
  report.e2e["throughput_per_s"] =
      static_cast<double>(fast_ms.size()) / (mix_ms / 1e3) / probe.scale();
  report.e2e["latency_ms"] = percentile(r.publish_ms, 50) * probe.scale();
  report.put_info("fast_courses_per_s", static_cast<double>(fast_ms.size()) / (mix_ms / 1e3),
                  "courses/s");
  report.put_info("host_probe_ms", probe.fast_ms(), "ms");
  const double courses_per_s = static_cast<double>(r.publish_ms.size()) / ns_to_s(r.wall_ns);
  report.put_info("publish_p50_ms", percentile(r.publish_ms, 50), "ms");
  report.put_info("publish_p90_ms", percentile(r.publish_ms, 90), "ms");
  report.put_info("publish_samples", static_cast<double>(r.publish_ms.size()), "count");
  report.put_info("courses_per_s", courses_per_s, "courses/s");
  report.put_info("passes", static_cast<double>(r.publish_ms.size() / courses.size()), "count");
  return 0;
}

}  // namespace e2ebench
