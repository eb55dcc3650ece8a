#!/usr/bin/env python3
"""Build and run the platform's end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: district-classroom, lesson-persist-stream, live-play,
author-publish (see e2ebench/README.md). The first run configures and
builds e2ebench/ (which compiles the platform from src/) into the build
directory -- $CARGO_TARGET_DIR when set, else .bench_build -- and later runs
rebuild only what changed. Build output goes to stderr; the benchmark's own
output goes to stdout, and its last line is the JSON result. Stores, span
files and provenance-stamped results are written under .bench_out/.

Exits non-zero, printing no result, when the build fails (for example
outside a full checkout) or when any output check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("district-classroom", "lesson-persist-stream", "live-play", "author-publish")
# One run is bounded at 180 s; the benchmark itself stops measuring after
# --seconds and checks its outputs, so this only catches a hang.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def source_digest(root):
    """SHA-256 over the platform sources and the benchmark, path by path."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    """HEAD of the repository rooted exactly at `root`, else "unknown"."""
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(root):
            return "unknown"
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, build_dir):
    """Configures once, then builds the benchmark binary. Returns its path."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "e2ebench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    step = ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    if binary is None:
        log("e2ebench: build failed")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(root, ".bench_out"),
           "--git-sha", git_sha(root), "--source-digest", source_digest(root)]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    if code < 0:
        log("e2ebench: benchmark process died with signal %d" % -code)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
