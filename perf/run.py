#!/usr/bin/env python3
"""Build and run the repository benchmark (perf/lacc_perf).

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --self-test

Run from the repository root. The first call configures and builds the
simulator library and the benchmark with CMake under $CARGO_TARGET_DIR
(default .bench_build); later calls reuse that build. The benchmark
prints a report and, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. This script checks that
the metric names and units are exactly the ones BENCHMARK.json lists for
the mode, and writes the full result document (host fingerprint,
commit, workload definition) under <build>/results/.
"""

import argparse
import json
import os
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perf/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "lacc_perf")


def build(target):
    """Configure once, then (re)build @target; build output to stderr."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} in {ROOT}: the simulator sources are missing")
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PERF_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(out, target)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    # The ceiling keeps git from finding a repository above the tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env,
                           timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last output line is not JSON: {e}")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(res)}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    a = ap.parse_args()

    if a.self_test:
        test = build("lacc_perf_test")
        sys.exit(subprocess.run([test], timeout=RUN_TIMEOUT_S).returncode)
    if a.workload is None or a.seed is None or a.seconds is None \
            or a.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    exe = build("lacc_perf")
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    doc = os.path.join(
        results, f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--doc", doc, "--commit", git_commit(), "--cpu", cpu_model()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        fail(f"benchmark exited with code {r.returncode} and no result")
    check_result(lines[-1], a.trace == 1)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
