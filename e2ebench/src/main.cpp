// e2ebench: the platform's end-to-end benchmark.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>] [--git-sha <sha>] [--source-digest <hex>]
//
// Workloads (see e2ebench/README.md for why each exists):
//   district-classroom     §3.2 bundle, district of bot students (sim)
//   lesson-persist-stream  the same, store-backed and streamed (persist, net)
//   live-play              interactive sessions, frame by frame (media, video)
//   author-publish         import → build → load of every course (author)
//
// Human-readable lines go first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"} whose metrics are the
// end-to-end set with --trace 0 and the per-layer set with --trace 1. A
// provenance-stamped copy of everything lands in <out>/result-*.json.
// Exit status is 0 only when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

using e2ebench::Args;
using e2ebench::Report;

void usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <district-classroom|"
               "lesson-persist-stream|live-play|author-publish> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--git-sha <sha>] "
               "[--source-digest <hex>]\n");
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v);
    } else if (a == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--out") {
      args.out_dir = v;
    } else if (a == "--git-sha") {
      args.git_sha = v;
    } else if (a == "--source-digest") {
      args.source_digest = v;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// {"name": {"value": v, "unit": u}, ...} over the declared metric list.
std::string metrics_json(const std::vector<e2ebench::MetricDecl>& decls,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < decls.size(); ++i) {
    const auto it = values.find(decls[i].name);
    const double v = it != values.end() ? it->second : 0.0;
    out += std::string(i ? ", " : "") + "\"" + decls[i].name +
           "\": {\"value\": " + number(v) + ", \"unit\": \"" + decls[i].unit +
           "\"}";
  }
  return out + "}";
}

void write_result_file(const Args& args, const Report& report,
                       const std::string& provenance_json,
                       const std::string& metrics) {
  const std::string path = args.out_dir + "/result-" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::string info = "{";
  bool first = true;
  for (const auto& [name, entry] : report.info) {
    info += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + number(entry.value) + ", \"unit\": \"" +
            entry.unit + "\"}";
    first = false;
  }
  info += "}";
  std::string errors = "[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    errors += std::string(i ? ", " : "") + "\"" + json_escape(report.errors[i]) + "\"";
  }
  errors += "]";
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
               "\"provenance\": %s, \"metrics\": %s, \"workload_metrics\": %s, "
               "\"errors\": %s}\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, provenance_json.c_str(), metrics.c_str(),
               info.c_str(), errors.c_str());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 64;
  }
  if (!e2ebench::make_fresh_dir(args.out_dir + "/tmp-" + args.workload)) {
    std::fprintf(stderr, "cannot create %s\n", args.out_dir.c_str());
    return 1;
  }

  Report report;
  int status = 0;
  if (args.workload == "district-classroom") {
    status = e2ebench::workload_district(args, report);
  } else if (args.workload == "lesson-persist-stream") {
    status = e2ebench::workload_lesson(args, report);
  } else if (args.workload == "live-play") {
    status = e2ebench::workload_live_play(args, report);
  } else if (args.workload == "author-publish") {
    status = e2ebench::workload_author_publish(args, report);
  } else {
    usage();
    return 64;
  }
  e2ebench::remove_tree(args.out_dir + "/tmp-" + args.workload);
  if (status != 0) return status;

  if (!args.trace) report.e2e["peak_rss_mb"] = e2ebench::peak_rss_mb();
  if (report.failed > 0) report.correct = false;
  report.put_info("failed_ratio",
                  report.attempted > 0 ? static_cast<double>(report.failed) /
                                             static_cast<double>(report.attempted)
                                       : 0.0,
                  "ratio");
  if (report.attempted == 0) report.check_failed("no operation was attempted");

  // Provenance: enough to tell whether two results are comparable.
  std::string provenance = "{\"nproc\": " + std::to_string(e2ebench::host_cpus()) +
                           ", \"compiler\": \"" E2EBENCH_COMPILER
                           "\", \"build_type\": \"" E2EBENCH_BUILD_TYPE
                           "\", \"git_sha\": \"" + json_escape(args.git_sha) +
                           "\", \"source_digest\": \"" +
                           json_escape(args.source_digest) +
                           "\", \"seed\": " + std::to_string(args.seed) +
                           ", \"seconds\": " + number(args.seconds);
  for (const auto& [key, value] : report.provenance) {
    provenance += ", \"" + key + "\": \"" + json_escape(value) + "\"";
  }
  provenance += "}";

  std::printf("provenance %s\n", provenance.c_str());
  for (const auto& [name, entry] : report.info) {
    std::printf("metric %s = %s %s\n", name.c_str(), number(entry.value).c_str(),
                entry.unit.c_str());
  }
  for (const auto& e : report.errors) std::printf("error %s\n", e.c_str());

  const std::string metrics =
      args.trace ? metrics_json(e2ebench::per_layer_metrics(), report.layer)
                 : metrics_json(e2ebench::end_to_end_metrics(), report.e2e);
  write_result_file(args, report, provenance, metrics);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
