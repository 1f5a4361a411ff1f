"""The benchmark's own checks, run from the repository root.

    python3 perfbench/check.py names            # one run per workload and mode
    python3 perfbench/check.py spread --runs 10 # quartile spread over seeds

`names` checks that every workload reports every end-to-end metric of
BENCHMARK.json with its unit and no failed op, that the traced run
reports every per-layer metric, and that the trace reproduces known
facts of the program: two rank-oracle calls per coalition-route
recovery, repeated plans on recover-repeat only, and extension_track as
the largest self time on recover-fresh.

`spread` runs each workload on seeds 1..N and prints, per end-to-end
metric, the median and the distance between the first and third
quartile as a share of the median, against the metric's bound.  The run
length in BENCHMARK.json is set from these figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 180


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    """One run of the benchmark command; prints its wall time to stderr."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    print(f"{workload} seed={seed} trace={trace}: {time.monotonic() - start:.1f} s wall",
          file=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond: bool, message: str, problems: list[str]) -> None:
    if not cond:
        problems.append(message)


def check_names(bench: dict) -> int:
    problems: list[str] = []
    traced = {}
    for spec in bench["workloads"]:
        name = spec["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run_once(bench, name, 1, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result keys {sorted(result)}", problems)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: {result['failed']} of {result['attempted']} ops failed",
                   problems)
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in wanted},
                   f"{name} trace={trace}: metric names differ: "
                   f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}", problems)
            for m in wanted:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"],
                       f"{name}: {m['name']} unit {got.get('unit')!r}, want {m['unit']!r}",
                       problems)
            if trace == 0:
                expect(metrics["ok_frac"]["value"] == 1.0, f"{name}: ok_frac below 1", problems)
            else:
                traced[name] = {k: v["value"] for k, v in metrics.items()}
            print(f"{name} trace={trace}: {result['attempted']} ops", file=sys.stderr)

    for name in ("recover-repeat", "recover-fresh"):
        got = traced[name]["scheme.oracle_per_recover"]
        expect(got == 2.0, f"{name}: {got} oracle calls per coalition recovery, want 2",
               problems)
    expect(traced["recover-repeat"]["scheme.repeat_share"] > 0.5,
           "recover-repeat: plans should repeat", problems)
    expect(traced["recover-fresh"]["scheme.repeat_share"] < 0.01,
           "recover-fresh: plans should not repeat", problems)
    fresh = traced["recover-fresh"]
    top = max((k for k in fresh if k.endswith(".self_ms")), key=fresh.get)
    expect(top == "scheme.extension_track.self_ms",
           f"recover-fresh: largest self time is {top}", problems)
    for message in problems:
        print(f"FAIL {message}")
    print("names: ok" if not problems else f"names: {len(problems)} problems")
    return 1 if problems else 0


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_spread(bench: dict, runs: int, workloads: list[str], first_seed: int) -> int:
    summary = {}
    worst = 0.0
    for workload in workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(first_seed, first_seed + runs):
            result = run_once(bench, workload, seed, 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = values
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            share = spread(vals)
            worst = max(worst, share / m["bound"])
            print(f"{workload:15s} {m['name']:15s} median {statistics.median(vals):12.5g} "
                  f"spread {share:7.4f} bound {m['bound']:.2f} "
                  f"({share / m['bound']:.2f} of bound)  runs {[round(v, 4) for v in vals]}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "spread.json"), "w") as handle:
        json.dump(summary, handle, indent=1)
    print(f"worst spread: {worst:.2f} of its bound")
    return 0 if worst <= 1 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("names")
    sp = sub.add_parser("spread")
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--workloads", default=None, help="comma-separated; default all")
    sp.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = load_benchmark()
    if args.mode == "names":
        return check_names(bench)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    return check_spread(bench, args.runs, workloads, args.first_seed)


if __name__ == "__main__":
    sys.exit(main())
