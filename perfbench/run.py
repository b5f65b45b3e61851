#!/usr/bin/env python3
"""Runs one benchmark workload against this checkout's opthash sources.

    python3 perfbench/run.py --workload cms_wide --seed 1 --seconds 10 --trace 0

Builds perfbench_driver (Release) from the checkout into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs it
and passes its output through: human-readable lines, then one JSON
result line last. Build output goes to stderr. Exits non-zero without a
result line when the sources are missing or the build fails, and with
the driver's status otherwise (1 when the correctness gate tripped).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cms_wide", "cms_mixed", "learn_querylog")
DRIVER_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    def run(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        if not run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run(["cmake", "--build", out_dir, "--target", "perfbench_driver", "-j", jobs]):
        return None
    return os.path.join(out_dir, "perfbench_driver")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        top, sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return "git:" + sha
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes (smoke test only)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb the reference so the gate must trip")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: opthash sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    out_dir = build_dir()
    driver = build(out_dir)
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work_dir = os.path.join(out_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    trace_file = os.path.join(out_dir, "traces",
                              "%s-seed%d.csv" % (args.workload, args.seed))
    if args.trace:
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work_dir), "--trace-file", trace_file,
           "--source", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
