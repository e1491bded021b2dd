#!/usr/bin/env python3
"""Self-check of the benchmark's output format.

    python3 perfbench/selftest.py [--seconds S]

Run from the repository root. For every workload in BENCHMARK.json it
runs the benchmark at a tiny size (--seconds, default 2) once untraced
and once traced, and asserts that the last stdout line names every
end_to_end (untraced) or per_layer (traced) metric exactly once, each
with its declared unit and a finite value, and no other metric; that
the run is correct with no failed operation. It also checks that the
result checker in run.py rejects malformed lines, and that the
benchmark fails without printing a result in a directory holding only
BENCHMARK.json and the benchmark's own files. Exits non-zero on the
first problem.
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
sys.path.insert(0, HERE)
import run  # noqa: E402  (the checker under test)


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def strict_pairs(pairs):
    names = [k for k, _ in pairs]
    for k in names:
        if names.count(k) > 1:
            raise ValueError(f"key {k!r} printed more than once")
    return dict(pairs)


def check_output(stdout, expected, label):
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"{label}: no output")
    try:
        result = json.loads(lines[-1], object_pairs_hook=strict_pairs)
    except ValueError as e:
        fail(f"{label}: last line: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{label}: correct={result['correct']} "
             f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted={result['attempted']}")
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        fail(f"{label}: missing {missing}, unnamed {extra}")
    for name, unit in expected.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            fail(f"{label}: {name} is {m}, want unit {unit!r}")
        v = m["value"]
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not math.isfinite(v)):
            fail(f"{label}: {name} value {v!r} is not a finite number")


def check_checker(expected):
    good = {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": u}
                        for n, u in expected.items()}}
    if run.check_result(json.dumps(good), expected):
        fail("checker rejects a well-formed result")
    name = next(iter(expected))
    bad = json.loads(json.dumps(good))
    del bad["metrics"][name]
    cases = {"missing metric": json.dumps(bad)}
    bad = json.loads(json.dumps(good))
    bad["metrics"]["unnamed.metric"] = {"value": 1, "unit": "ms"}
    cases["unnamed metric"] = json.dumps(bad)
    bad = json.loads(json.dumps(good))
    bad["metrics"][name]["unit"] = "furlongs"
    cases["wrong unit"] = json.dumps(bad)
    line = json.dumps(good)
    dup = f'"{name}": {{"value": 2, "unit": "{expected[name]}"}}, '
    cases["duplicate metric"] = line.replace('"metrics": {',
                                             '"metrics": {' + dup, 1)
    cases["not json"] = "done."
    for what, text in cases.items():
        if not run.check_result(text, expected):
            fail(f"checker accepts a result with a {what}")


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: must fail, print no result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload",
         run_spec()["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a directory without the sources still printed a result")


def run_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", default="2")
    args = ap.parse_args()
    spec = run_spec()
    sections = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check_checker(sections["0"])
    check_bare_directory()
    for w in spec["workloads"]:
        for trace, expected in sections.items():
            label = f"{w['name']} --trace {trace}"
            proc = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", w["name"],
                 "--seed", "1", "--seconds", args.seconds,
                 "--trace", trace],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                fail(f"{label}: exit code {proc.returncode}")
            check_output(proc.stdout, expected, label)
            print(f"selftest: ok: {label}", flush=True)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
