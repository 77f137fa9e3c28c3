#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload warm-serve --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the clftj library from src/ plus the driver) into
.bench_build/perfbench; later runs rebuild only what changed. Build output
goes to stderr; the driver's stdout is passed through, so its last line is
the JSON result. Exits non-zero, without a result, when the sources or the
build are missing.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "serve_bench")
WORKLOADS = ("warm-serve", "adhoc-cold", "write-mix")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "service.h")):
        fail("run from the repository root: src/ not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "serve_bench", "-j", jobs],
    ]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def source_digest():
    """The commit when this is a git checkout, else a digest of src/."""
    if os.path.isdir(".git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=False).stdout.strip()
        if head:
            return head
    digest = hashlib.sha256()
    for base, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    if not os.path.isfile(BINARY):
        fail("driver binary missing after build")
    trace_dir = os.path.join(".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--socket", os.path.join(".bench_build", f"s{os.getpid()}.sock"),
        "--commit", source_digest(),
    ]
    if args.trace:
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
