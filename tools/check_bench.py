#!/usr/bin/env python3
"""CI gate over the benchmark JSON artefacts.

Parses BENCH_eval_throughput.json (micro_model_perf),
BENCH_search_scaling.json (search_scaling) and
BENCH_optimal_gap.json (optimal_gap) and fails the job when a perf
or correctness floor is broken. With --serve-load it instead gates
only BENCH_serve_load.json (serve_load: single daemon vs routed
fleet). Stdlib only.

The correctness gates are unconditional: the incremental (delta)
engine is an exact recomputation, so every best-EDP parity flag must
be true and the ResNet memo accounting must balance, on any host.

The perf gates are core-count aware. search_scaling records the
host's hardware_concurrency; thread speedups above 1x are physically
unattainable on a single hardware thread, so on such hosts the gate
falls back to engine-only floors (the incremental engine's gain shows
at one thread too). On multi-core hosts the full thread-scaling
floors apply. This keeps the gate honest instead of either skipping
it or institutionalising a number the hardware cannot produce.
"""

import argparse
import json
import sys

# Engine-only floors (valid on any host: measured at 1 thread against
# the incremental-off baseline).
EVAL_FASTPATH_MIN = 1.5  # bound-prune + memo fast path, eval_throughput
EVAL_BATCH_MIN = 2.0  # batched SoA stages vs the scalar fast path,
                      # at the best batch width; single-thread, so it
                      # holds on any host
LOCAL_ENGINE_MIN = 1.3   # local search, delta-hit rate ~1.0
GENETIC_ENGINE_MIN = 1.05  # genetic: eval is ~40% of wall, hits ~36%

# Thread-scaling floors (only on hosts with >= 2 hardware threads).
LOCAL_8T_MIN = 1.5
GENETIC_8T_MIN = 1.5
EXHAUSTIVE_2T_MIN = 1.0  # must at least not regress vs 1 thread


class Gate:
    def __init__(self):
        self.failures = []
        self.checks = 0

    def check(self, ok, message):
        self.checks += 1
        status = "ok  " if ok else "FAIL"
        print(f"  [{status}] {message}")
        if not ok:
            self.failures.append(message)


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def check_eval_throughput(gate, data):
    print("BENCH_eval_throughput.json:")
    speedup = data["speedup"]
    gate.check(
        speedup >= EVAL_FASTPATH_MIN,
        f"fast-path speedup {speedup:.2f}x >= {EVAL_FASTPATH_MIN}x",
    )
    gate.check(
        data["baseline_best_edp"] == data["fastpath_best_edp"],
        "fast-path best EDP identical to baseline",
    )
    # The floor must be met at a production-relevant width (K >= 32,
    # the search loops' default and up), not by a narrow fluke.
    wide = [p for p in data["batch_sweep"] if p["k"] >= 32]
    best_wide = max(wide, key=lambda p: p["speedup_vs_fastpath"])
    gate.check(
        best_wide["speedup_vs_fastpath"] >= EVAL_BATCH_MIN,
        f"batched speedup {best_wide['speedup_vs_fastpath']:.2f}x"
        f" >= {EVAL_BATCH_MIN}x (K={best_wide['k']})",
    )
    # Correctness gate — unconditional: every batch width must land on
    # the fast path's best EDP bit for bit.
    gate.check(data["batch_parity"], "batch parity at every width")
    for p in data["batch_sweep"]:
        gate.check(
            p["parity"] and p["best_edp"] == data["fastpath_best_edp"],
            f"batch K={p['k']} best EDP identical to fast path",
        )


def point(series, threads, incremental=True):
    """The measured point at a thread count (not the baseline)."""
    for p in series:
        if p["threads"] == threads and p["incremental"] == incremental:
            return p
    return None


def check_search_scaling(gate, data):
    print("BENCH_search_scaling.json:")
    cores = data["hardware_concurrency"]
    multicore = cores >= 2

    # Correctness gates — unconditional.
    gate.check(data["delta_parity"], "delta parity on every series")
    gate.check(
        data["memo_each_shape_searched_once"],
        "ResNet memo: each distinct shape searched exactly once",
    )
    # One network budget, either factor: (threads t, networkThreads 1)
    # searches the same layers on the same per-layer threads as
    # (threads 1, networkThreads t), so the EDP must be identical.
    for split in data["network_layer_threads"]:
        t = split["threads"]
        twin = point(data["network"], t)
        gate.check(
            twin is not None and split["best_edp"] == twin["best_edp"],
            f"network: EDP at threads {t}, networkThreads 1 equals"
            f" threads 1, networkThreads {t}",
        )
    for name in ("genetic", "local", "network"):
        pt = point(data[name], 1)
        gate.check(
            pt is not None
            and pt["delta_hits"] + pt["delta_fallbacks"] > 0,
            f"{name}: incremental engine exercised (delta attempts > 0)",
        )

    # Perf gates — scaled to what the host can express.
    if multicore:
        print(f"  ({cores} hardware threads: thread-scaling floors)")
        gate.check(
            data["local_speedup_8t"] >= LOCAL_8T_MIN,
            f"local 8-thread speedup {data['local_speedup_8t']:.2f}x"
            f" >= {LOCAL_8T_MIN}x",
        )
        gate.check(
            data["genetic_speedup_8t"] >= GENETIC_8T_MIN,
            f"genetic 8-thread speedup"
            f" {data['genetic_speedup_8t']:.2f}x >= {GENETIC_8T_MIN}x",
        )
        gate.check(
            data["exhaustive_speedup_2t"] >= EXHAUSTIVE_2T_MIN,
            f"exhaustive 2-thread speedup"
            f" {data['exhaustive_speedup_2t']:.2f}x"
            f" >= {EXHAUSTIVE_2T_MIN}x",
        )
    else:
        # Refuse outright to gate thread-scaling floors from a JSON
        # recorded on a single hardware thread: speedups above 1x are
        # physically unattainable there, so those floors would gate
        # noise. The engine-only floors below still apply.
        print(
            f"  REFUSED: thread-scaling floors not gated"
            f" (hardware_concurrency={cores}; the artefact was"
            f" recorded on a single-hardware-thread host, where"
            f" thread speedups cannot be expressed)"
        )
        print(f"  ({cores} hardware thread: engine-only floors)")
        local1 = point(data["local"], 1)
        genetic1 = point(data["genetic"], 1)
        gate.check(
            local1 is not None
            and local1["speedup"] >= LOCAL_ENGINE_MIN,
            f"local incremental speedup {local1['speedup']:.2f}x"
            f" >= {LOCAL_ENGINE_MIN}x at 1 thread",
        )
        gate.check(
            genetic1 is not None
            and genetic1["speedup"] >= GENETIC_ENGINE_MIN,
            f"genetic incremental speedup {genetic1['speedup']:.2f}x"
            f" >= {GENETIC_ENGINE_MIN}x at 1 thread",
        )


def check_optimal_gap(gate, data):
    """Branch-and-bound certificate floors (host-independent).

    Per preset: the proved gap must shrink monotonically with budget
    and stay nonzero while truncated, the top rung must certify
    (gap 0), and optimal must reach gap <= 5% in less wall time than
    uniform random sampling of the same enumerated space takes to
    reach the same EDP (or random must never reach it at all).
    """
    print("BENCH_optimal_gap.json:")
    presets = data["presets"]
    gate.check(len(presets) >= 2, "both presets present")
    for p in presets:
        name = p["preset"]
        gate.check(
            p["gap_monotone"],
            f"{name}: gap shrinks monotonically with budget",
        )
        for rung in p["curve"]:
            if rung["found"] and not rung["certified"]:
                gate.check(
                    rung["gap_percent"] > 0.0,
                    f"{name}: truncated rung (cap {rung['cap']})"
                    f" reports a nonzero gap",
                )
        gate.check(
            p["certified_at_top"],
            f"{name}: uncapped run certifies (gap 0)",
        )
        gate.check(
            p["optimal_beats_random"],
            f"{name}: optimal reaches gap <= 5% before random"
            f" reaches the same EDP",
        )


def check_serve_load(gate, data):
    """Single daemon vs routed fleet at equal search-slot budget.

    Correctness gates are unconditional: every request in the trace
    must complete with code 0 on both sides, and sharding must not
    cost cache warmth — the fleet's aggregated layer-memo hit rate on
    the repeated-shape trace must be at least the single daemon's
    (the router pins a shape's repeats to one warm shard, so the
    aggregate never pays more cold misses than one big memo would).

    The QPS-superiority floor needs real parallel capacity: a router
    plus three backends time-slicing one hardware thread measures
    scheduler overhead, not sharding throughput, so it is refused on
    single-core hosts exactly like the thread-scaling floors.
    """
    print("BENCH_serve_load.json:")
    single = data["single"]
    fleet = data["fleet"]
    gate.check(
        single["all_ok"] and single["completed"]
        == data["trace"]["total_requests"],
        "single daemon: every trace request completed with code 0",
    )
    gate.check(
        fleet["all_ok"] and fleet["completed"]
        == data["trace"]["total_requests"],
        "fleet: every trace request completed with code 0",
    )
    gate.check(
        fleet["layer_memo_hit_rate"]
        >= single["layer_memo_hit_rate"] - 1e-9,
        f"fleet layer-memo hit rate"
        f" {fleet['layer_memo_hit_rate']:.3f} >= single daemon's"
        f" {single['layer_memo_hit_rate']:.3f}",
    )

    # Response-cache effectiveness is deterministic (the repeat
    # segment replays identical eligible requests against a warm
    # cache), so its floor holds on any host: nearly every repeat
    # must be served from the cache (hit or coalesced), on the single
    # daemon's cache and on the fleet's backend caches (a routed
    # repeat is replayed by its home daemon) alike.
    for name, run in (("single daemon", single), ("fleet", fleet)):
        gate.check(
            run["repeat_hit_rate"] >= 0.9,
            f"{name}: repeat-segment response-cache hit rate"
            f" {run['repeat_hit_rate']:.3f} >= 0.9",
        )

    cores = data["hardware_concurrency"]
    if cores >= 2:
        print(f"  ({cores} hardware threads: fleet QPS floor)")
        ratio = data["fleet_qps_ratio"]
        gate.check(
            ratio > 1.0,
            f"fleet qps {fleet['qps']:.0f} > single daemon qps"
            f" {single['qps']:.0f} at equal slot budget"
            f" (ratio {ratio:.2f}x)",
        )
        # Cached replays skip search entirely, so the repeat segment
        # must beat the mixed trace's throughput outright. Timing-
        # sensitive, hence core-gated with the other QPS floors.
        print(f"  ({cores} hardware threads: repeat QPS floor)")
        for name, run in (("single daemon", single),
                          ("fleet", fleet)):
            gate.check(
                run["repeat_qps"] > run["qps"],
                f"{name}: cached repeat qps {run['repeat_qps']:.0f}"
                f" > mixed-trace qps {run['qps']:.0f}",
            )
    else:
        print(
            f"  REFUSED: fleet-vs-single QPS floor not gated"
            f" (hardware_concurrency={cores}; one hardware thread"
            f" time-slices the whole fleet, so routed throughput"
            f" cannot exceed a single daemon's there)"
        )
        print(
            f"  REFUSED: repeat-QPS floor not gated"
            f" (hardware_concurrency={cores}; cached-replay timing"
            f" on a time-sliced core measures scheduler noise, not"
            f" the fast path)"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--eval-throughput",
        default="BENCH_eval_throughput.json",
        help="path to the micro_model_perf report",
    )
    ap.add_argument(
        "--search-scaling",
        default="BENCH_search_scaling.json",
        help="path to the search_scaling report",
    )
    ap.add_argument(
        "--optimal-gap",
        default="BENCH_optimal_gap.json",
        help="path to the optimal_gap report",
    )
    ap.add_argument(
        "--serve-load",
        nargs="?",
        const="BENCH_serve_load.json",
        default=None,
        metavar="PATH",
        help="gate only the serve_load report (the serving-fleet CI"
        " job produces just this artefact)",
    )
    args = ap.parse_args()

    gate = Gate()
    if args.serve_load is not None:
        check_serve_load(gate, load(args.serve_load))
    else:
        check_eval_throughput(gate, load(args.eval_throughput))
        check_search_scaling(gate, load(args.search_scaling))
        check_optimal_gap(gate, load(args.optimal_gap))

    if gate.failures:
        print(
            f"\n{len(gate.failures)} of {gate.checks} gates FAILED:",
            file=sys.stderr,
        )
        for msg in gate.failures:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    print(f"\nall {gate.checks} gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
