#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, at a tiny size:
  * an untraced run prints every end_to_end metric with its unit, a traced
    run every per_layer metric with its unit, and both pass every
    known-answer check (failed_share 0);
  * a run with a deliberately wrong expected answer (--wrong-answer) makes
    failed_share non-zero and exits 1, which proves the checker can fail.
Exits 0 when all of that holds and prints what failed otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


def check_metrics(result, wanted, what):
    problems = []
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            problems.append(f"{what}: missing {m['name']}")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{what}: {m['name']} has unit "
                            f"{got[m['name']]['unit']}, want {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{what}: unexpected metrics {sorted(extra)}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run(name, trace)
            what = f"{name} trace={trace}"
            if res is None:
                problems.append(f"{what}: no result (exit {code})")
                continue
            if code != 0 or not res["correct"] or res["failed"] != 0:
                problems.append(f"{what}: known-answer checks failed "
                                f"({res['failed']} of {res['attempted']})")
            problems += check_metrics(res, spec[key], what)
        code, res = run(name, 0, "--wrong-answer")
        if res is None or code != 1 or res["correct"] or res["failed"] == 0:
            problems.append(f"{name}: a wrong expected answer did not make "
                            f"failed_share non-zero (exit {code})")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
