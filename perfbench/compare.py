#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of any number of `perfbench/run.py`
runs; only their ROW lines are read. For every (workload, metric) the
script prints both sides' median and quartiles, the change of the median,
and, for end-to-end metrics, whether the change stays within the bound in
BENCHMARK.json. It refuses (exit 2) to compare rows measured on hosts with
different `cpus`, or rows of one workload whose thread counts differ.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rows(path):
    with open(path) as f:
        return [json.loads(line[4:]) for line in f if line.startswith("ROW ")]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(base_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = rows(base_path), rows(new_path)
    if not base or not new:
        print("compare.py: no ROW lines in one of the inputs", file=sys.stderr)
        return 2
    cpus = {r["cpus"] for r in base + new}
    threads = {}
    for r in base + new:
        threads.setdefault(r["workload"], set()).add(r["threads"])
    mixed = {w: sorted(t) for w, t in threads.items() if len(t) != 1}
    if len(cpus) != 1 or mixed:
        print(f"compare.py: refusing to compare across hosts (cpus "
              f"{sorted(cpus)}) or thread counts ({mixed})", file=sys.stderr)
        return 2
    print(f"cpus={cpus.pop()} threads=" +
          ",".join(f"{w}:{t.pop()}" for w, t in sorted(threads.items())))
    regressed = False
    for workload in sorted({r["workload"] for r in base + new}):
        sides = [[r for r in side if r["workload"] == workload]
                 for side in (base, new)]
        names = sorted(set(sides[0][0]["metrics"]) if sides[0] else set())
        for name in names:
            vals = [[r["metrics"][name]["value"] for r in side
                     if name in r["metrics"]] for side in sides]
            if not vals[0] or not vals[1]:
                continue
            (b1, bm, b3), (n1, nm, n3) = quartiles(vals[0]), quartiles(vals[1])
            change = (nm - bm) / bm if bm else float("nan")
            verdict = ""
            if name in spec:
                worse = -change if spec[name]["better"] == "higher" else change
                verdict = "REGRESSED" if worse > spec[name]["bound"] else "ok"
                regressed |= verdict == "REGRESSED"
            print(f"{workload:16} {name:30} base {bm:.6g} [{b1:.6g}, {b3:.6g}]"
                  f" n={len(vals[0])}  new {nm:.6g} [{n1:.6g}, {n3:.6g}]"
                  f" n={len(vals[1])}  {change:+.2%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
