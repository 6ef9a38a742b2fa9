#!/usr/bin/env python3
"""Build and run the donkeytrace repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload tcp_mirror --seed 1 --seconds 5 --smoke
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src) in
Release under .bench_build/perfbench; later calls rebuild incrementally.
Build output goes to stderr.  The benchmark binary's stdout is passed
through; its last line is the JSON result.  Before exiting, this script
checks that line: it must parse as JSON with exactly the keys correct,
attempted, failed and metrics, and carry every metric BENCHMARK.json names
for the mode (end_to_end for --trace 0, per_layer for --trace 1) with its
unit.  Any build, run or output failure exits non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("steady", "polluter_flood", "tcp_mirror")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no donkeytrace sources next to perfbench/ (src/CMakeLists.txt)")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return False
    return True


def expected_metrics(trace):
    """{name: unit} that BENCHMARK.json requires for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Problems with the result line, as a list of strings."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result must have exactly correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    want = expected_metrics(trace)
    got = result["metrics"]
    for name, unit in want.items():
        m = got.get(name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"metric {name} missing or malformed")
        elif m["unit"] != unit:
            problems.append(f"metric {name} has unit {m['unit']}, want {unit}")
        elif not isinstance(m["value"], (int, float)):
            problems.append(f"metric {name} value is not a number")
    for name in got:
        if name not in want:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("the correctness gate failed")
    return problems


def run_once(workload, seed, seconds, trace, smoke):
    """Run the binary once; returns its exit status after checking output."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, f"spans-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("benchmark printed nothing")
        return 1
    problems = check_result(lines[-1], trace)
    for p in problems:
        log(p)
    if proc.returncode != 0:
        log(f"benchmark exited with status {proc.returncode}")
        return proc.returncode
    return 1 if problems else 0


def self_test():
    """Smoke-run every workload in both modes and check every output."""
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            log(f"self-test: {workload} trace={int(trace)}")
            rc = run_once(workload, 1, 1, trace, smoke=True)
            if rc:
                log(f"self-test FAILED: {workload} trace={int(trace)}")
                status = 1
    log("self-test " + ("ok" if status == 0 else "FAILED"))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny campaigns, at least one round")
    parser.add_argument("--self-test", action="store_true",
                        help="smoke-run all workloads in both modes")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace),
                    args.smoke)


if __name__ == "__main__":
    sys.exit(main())
