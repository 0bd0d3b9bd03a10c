#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload catalog_certify|serve_zipf|exec_txn \
        --seed N --seconds S --trace 0|1 [--smoke] [--wrong-answer]

Builds perfbench/ (which builds the library through the repository's own
CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
at the repository root when the variable is unset, then runs one workload.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. A traced run writes its spans to
<build>/traces/<workload>.jsonl. The exit status is the benchmark's (0 when
every known-answer check passed), 3 when the build failed, 4 on a timeout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def option(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(args):
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3
    if option(args, "--trace") not in (None, "0"):
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload, overwritten by its next traced run, so
        # repeated runs do not pile up tens of MiB of spans each.
        name = f"{option(args, '--workload')}.jsonl"
        args = args + ["--trace-out", os.path.join(traces, name)]
    try:
        return subprocess.run([binary] + args,
                              timeout=BINARY_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
