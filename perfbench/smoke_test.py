#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at reduced sizes.

    python3 perfbench/smoke_test.py

For every workload it checks that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly its
per-layer metrics, each with its declared unit and a finite value, and
that a run against a deliberately corrupted reference fails the
correctness gate (exit status 1, "correct": false). Exits 0 when every
check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, output = run(workload, trace)
            where = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or result["correct"] is not True:
                failures.append("%s: exit %d\n%s" % (where, code, output[-2000:]))
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                failures.append("%s: metrics/units differ from BENCHMARK.json: %s"
                                % (where, sorted(set(got.items()) ^
                                                 set(wanted[trace].items()))))
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    failures.append("%s: %s is not a finite number" % (where, name))
            if result["attempted"] < 1 or result["failed"] != 0:
                failures.append("%s: attempted %s failed %s"
                                % (where, result["attempted"], result["failed"]))
        code, result, output = run(workload, 0, ["--corrupt-reference"])
        if code != 1 or result is None or result["correct"] is not False \
                or result["failed"] < 1:
            failures.append("%s: corrupted reference did not trip the gate "
                            "(exit %d)\n%s" % (workload, code, output[-2000:]))
        print("%-16s %s" % (workload, "checked"), flush=True)
    for failure in failures:
        print("FAIL:", failure)
    print("smoke test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
