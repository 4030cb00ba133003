#!/usr/bin/env python3
"""Builds and runs the daisyd end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload dc_ingest --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory, as does every file a run writes.
Build output goes to stderr; e2e_bench's report goes to stdout, whose last
line is the result JSON. --self-test runs the helper unit tests and the seed
determinism check instead of a benchmark run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    cmake_dir = os.path.join(build_dir(), "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(cmake_dir, target)


def run_bench(binary, workload, seed, seconds, trace):
    """Runs e2e_bench; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "run")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def report_field(lines, key):
    """Value of `key=` on the report's `# inputs:` line."""
    for line in lines:
        if line.startswith("# inputs:"):
            for tok in line.split():
                if tok.startswith(key + "="):
                    return tok[len(key) + 1:]
    return None


def self_test():
    test_bin = build("e2e_helpers_test")
    if subprocess.run([test_bin], stdout=sys.stderr).returncode:
        log("helper unit tests failed")
        return 1
    binary = build("e2e_bench")
    exact = ["detect.pairs", "repair.tuples_repaired", "plan.output_rows",
             "persist.wal_records", "persist.wal_fsyncs"]
    runs = []
    for seed in (7, 7, 8):
        code, lines = run_bench(binary, "ssb_explore", seed, 1, 1)
        result = parse_result(lines)
        if code != 0 or result is None or not result["correct"]:
            log(f"ssb_explore seed {seed} failed (exit {code})")
            return 1
        runs.append((report_field(lines, "digest"),
                     {k: result["metrics"][k]["value"] for k in exact}))
    (d1, c1), (d2, c2), (d3, _) = runs
    ok = True
    if d1 != d2:
        log(f"same seed, different inputs: {d1} vs {d2}")
        ok = False
    if c1 != c2:
        log(f"same seed, different exact counts: {c1} vs {c2}")
        ok = False
    if d1 == d3:
        log("a different seed gave the same inputs")
        ok = False
    log("determinism check " + ("passed" if ok else "FAILED") +
        f": digest {d1}, counts {c1}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["ssb_explore", "dc_ingest"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    binary = build("e2e_bench")
    code, lines = run_bench(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    result = parse_result(lines)
    # Without a valid result nothing goes to stdout, so no partial output
    # can pass for one.
    out = sys.stdout if result is not None else sys.stderr
    for line in lines:
        print(line, file=out)
    if result is None:
        log(f"no result (exit {code})")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
