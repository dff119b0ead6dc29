#!/usr/bin/env python3
"""Builds the DeepCAM benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test     # build and run the benchmark's tests

The build lives in .bench_build/ at the repository root; artifacts of each
run (the run record, and for traced runs the span log and the layer x stage
table) go to .bench_build/results/. Build output goes to standard error, so
the last line of standard output is the benchmark's result object. Exits
nonzero when the build fails or an output check fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")


def build(target):
    """Configures once, then builds `target`; the build log goes to stderr."""
    # The Makefile appears only after a configure that succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                        BUILD, "-G", "Unix Makefiles",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def commit():
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the library sources and build file, in path order."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    try:
        if args.test:
            return subprocess.run([build("perfbench_tests")]).returncode
        if not args.workload:
            ap.error("--workload is required")
        binary = build("deepcam_bench")
        os.makedirs(RESULTS, exist_ok=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", RESULTS, "--commit", commit(),
               "--source-digest", source_digest()]
        return subprocess.run(cmd).returncode
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
