#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the ruby library and the
perfbench program from source into $CARGO_TARGET_DIR (default
.bench_build), runs one workload, and prints the program's output; the
last line is one JSON object {correct, attempted, failed, metrics}.
Before printing, the result is checked against BENCHMARK.json: with
--trace 0 exactly its end_to_end metrics, with --trace 1 exactly its
per_layer metrics, each once with its declared unit and a finite
value. A build failure, a failing program or a malformed result exits
non-zero without printing a result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; output to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", "3"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    dups = {k for k in keys if keys.count(k) > 1}
    if dups:
        raise ValueError(f"duplicate keys {sorted(dups)}")
    return dict(pairs)


def check_result(line, expected):
    """Return a list of problems with the result line (empty = ok)."""
    try:
        result = json.loads(line, object_pairs_hook=no_duplicate_keys)
    except ValueError as e:
        return [f"last line is not a JSON object: {e}"]
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result keys must be correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is 0")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"metric {name} not named in BENCHMARK.json")
    for name, unit in expected.items():
        m = metrics.get(name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            continue
        value = m["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"metric {name} value is not a finite number")
        if m["unit"] != unit:
            problems.append(f"metric {name} unit {m['unit']!r} != {unit!r}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    section = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    if not build(build_dir):
        log("build failed")
        return 2
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 3
    if proc.returncode != 0:
        log(f"perfbench exited with code {proc.returncode}")
        return 3
    lines = proc.stdout.strip().splitlines()
    problems = check_result(lines[-1] if lines else "", expected)
    if problems:
        for p in problems:
            log(p)
        return 3
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
