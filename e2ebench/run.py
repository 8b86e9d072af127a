#!/usr/bin/env python3
"""Build and run the end-to-end NetSeer benchmark (see README.md).

    python3 e2ebench/run.py --workload fabric-web-lossy --seed 1 --seconds 30 --trace 0

Configures e2ebench/ with CMake into $CARGO_TARGET_DIR (default
.bench_build, relative to the working directory), builds the
netseer_e2e target against the libraries under src/, then runs one
workload. The run's standard output is passed through: its last line is
the JSON result. Build output goes to standard error. The exit code is
netseer_e2e's: 0 when every correctness check held.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fabric-web-lossy", "fabric-incast-churn", "backend-restart-tail")
# A run measures for --seconds, then finishes its round; this bounds it.
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when the tree is a checkout, else a digest of src/."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()


def build(build_dir):
    """Configure when no build system exists yet, then bring netseer_e2e up
    to date. False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "netseer_e2e", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_dir, "e2ebench")
    if not build(build_dir):
        return 1

    work_dir = os.path.join(build_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
    command = [os.path.join(build_dir, "netseer_e2e"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--trace-file", trace_file, "--commit", source_id()]
    start = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("run.py: %s ran past %d s" % (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    print("run.py: %s seed %d finished in %.1f s, exit %d"
          % (args.workload, args.seed, time.monotonic() - start, run.returncode),
          file=sys.stderr)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
