#!/usr/bin/env python3
"""The benchmark's own smoke test.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at the smallest size, untraced and
traced, with the default seed (which has stored quick-size tables), and
checks that each run passes its output check against the stored table
and prints every metric BENCHMARK.json names, with its unit. Exits
non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seconds", "1", "--trace", str(trace),
         "--size", "quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit("%s trace=%d exited %d:\n%s" % (
            workload, trace, out.returncode, out.stderr))
    return out.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            stdout = run(workload, trace)
            result = json.loads(stdout.strip().splitlines()[-1])
            where = "%s trace=%d" % (workload, trace)
            problems = []
            if not result["correct"] or result["failed"] != 0:
                problems.append("output check failed")
            if result["attempted"] < 1:
                problems.append("no cells checked")
            if "stored-table check: pass" not in stdout:
                problems.append("stored-table check did not pass")
            metrics = result["metrics"]
            for m in wanted[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("missing metric " + m["name"])
                elif got["unit"] != m["unit"]:
                    problems.append("%s unit %r, expected %r" % (
                        m["name"], got["unit"], m["unit"]))
            extra = set(metrics) - {m["name"] for m in wanted[trace]}
            if extra:
                problems.append("metrics not in BENCHMARK.json: %s" % sorted(extra))
            if problems:
                raise SystemExit("%s: %s\n%s" % (where, "; ".join(problems), stdout))
            print("ok  %-12s trace=%d  cells %d  metrics %d" % (
                workload, trace, result["attempted"], len(metrics)))
    print("smoke test passed")


if __name__ == "__main__":
    main()
