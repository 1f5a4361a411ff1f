"""privcoal benchmark: one seeded workload, one closed-loop caller.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ./src.  With
--trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of a traced replay and writes
the spans to .bench_out/.  See perfbench/README.md for the metrics and
the reasons behind each workload.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter_ns

from tracer import Tracer
from workloads import WORKLOADS, Op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_OPS = 100  # so at least ten samples lie beyond the 90th percentile
# Cold set-ups per run: at least this many, and more while their total is
# under the budget, so a set-up of tens of milliseconds is sampled 10 to 20
# times.
MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0
MAX_REPORTED_FAILURES = 5


class Tally:
    """Results of driving one stream: per-op latency and timed wall time."""

    def __init__(self) -> None:
        # compact, so the buffer barely shows in peak_rss_mb
        self.latencies_ns = array.array("q")
        self.busy_ns = 0
        self.block_ends: list[int] = []  # ops completed at the end of each block
        self.attempted = 0
        self.failed = 0

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    @property
    def blocks(self) -> int:
        return len(self.block_ends)

    def windows(self) -> list[list[float]]:
        """Latencies in ms, cut at block ends into consecutive windows of
        at least MIN_OPS ops; a short tail joins the last window."""
        out: list[list[float]] = []
        start = 0
        for end in self.block_ends:
            if end - start >= MIN_OPS:
                out.append([x / 1e6 for x in self.latencies_ns[start:end]])
                start = end
        if start < self.ops:
            tail = [x / 1e6 for x in self.latencies_ns[start:]]
            if out:
                out[-1].extend(tail)
            else:
                out.append(tail)
        return out


def drive(stream, tally: Tally, stop, tracer=None) -> None:
    """Run whole blocks of steps until stop(tally) holds between blocks.

    Only the program's calls are timed: the checks and the input
    generation inside the stream run between timed sections.
    """
    for block in stream:
        if stop(tally):
            return
        for step in block:
            run_step(step, tally, tracer)
        tally.block_ends.append(tally.ops)


def run_step(step, tally: Tally, tracer) -> None:
    if tracer is not None:
        tracer.op_id = tally.ops
    value = exc = None
    start = perf_counter_ns()
    try:
        value = step.fn()
    except Exception as caught:  # the op's outcome, judged by its check
        exc = caught
    elapsed = perf_counter_ns() - start
    tally.busy_ns += elapsed
    if not isinstance(step, Op):
        if exc is not None:
            raise exc
        return
    tally.latencies_ns.append(elapsed)
    tally.attempted += 1
    try:
        ok = step.check(value, exc)
    except Exception:
        ok = False
        exc = exc or sys.exc_info()[1]
    if not ok:
        tally.failed += 1
        if tally.failed <= MAX_REPORTED_FAILURES:
            detail = "".join(traceback.format_exception(exc)) if exc else repr(value)[:200]
            print(f"failed op: {step.label}\n{detail}", file=sys.stderr)


def setup_times(workload_name: str) -> list[float]:
    """Wall times of fresh processes that only set the workload up, each
    from its start to its exit: the interpreter's start, a cold import of
    privcoal and the workload's set-up (setups.py)."""
    cmd = [sys.executable, os.path.join(HERE, "setups.py"), workload_name]
    times: list[float] = []
    while len(times) < MIN_SETUPS or sum(times) < SETUP_BUDGET_S:
        start = perf_counter_ns()
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append((perf_counter_ns() - start) / 1e9)
    return times


def fail_all_if_setup_wrong(workload, tally: Tally) -> None:
    if not workload.setup_ok:
        print("set-up output differs from the reference; every op counts as failed",
              file=sys.stderr)
        tally.failed = tally.attempted


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload_name, workload, seed, seconds) -> tuple[Tally, dict]:
    """The cold set-ups, then the timed loop."""
    setups = setup_times(workload_name)
    budget = seconds * 1e9
    tally = Tally()
    drive(workload.stream(seed), tally, lambda t: t.busy_ns >= budget and t.ops >= MIN_OPS)
    fail_all_if_setup_wrong(workload, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Percentiles per window, averaged: when the host's speed shifts
    # during a run, a percentile of the pooled ops jumps between the fast
    # and the slow copy of one op shape, while the average over windows
    # moves in proportion, as ops_per_s does.
    windows = tally.windows()
    metrics = {
        "ops_per_s": metric(tally.ops / (tally.busy_ns / 1e9), "ops/s"),
        "latency_p50_ms": metric(statistics.fmean(map(statistics.median, windows)), "ms"),
        "latency_p90_ms": metric(
            statistics.fmean(statistics.quantiles(w, n=10)[8] for w in windows), "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ok_frac": metric(1 - tally.failed / tally.attempted, "ratio"),
    }
    print(f"{workload_name}: {tally.ops} ops in {len(windows)} windows, "
          f"setups {[round(s, 4) for s in setups]}", file=sys.stderr)
    return tally, metrics


def traced(workload_name, workload, seed, seconds) -> tuple[Tally, dict]:
    """Half the time untraced, then a traced replay of exactly the same blocks."""
    plain = Tally()
    budget = seconds * 1e9 / 2
    drive(workload.stream(seed), plain, lambda t: t.busy_ns >= budget and t.ops >= 1)
    tracer = Tracer()
    tracer.install()
    replay = Tally()
    workload.cells_checked = 0
    try:
        drive(workload.stream(seed), replay, lambda t: t.blocks >= plain.blocks, tracer)
    finally:
        tracer.uninstall()
    fail_all_if_setup_wrong(workload, plain)
    fail_all_if_setup_wrong(workload, replay)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{workload_name}-seed{seed}.json"))
    metrics = {
        name: metric(value, unit)
        for name, (value, unit) in tracer.per_layer(replay.ops, workload.cells_checked).items()
    }
    metrics["tracing_overhead"] = metric(1 - plain.busy_ns / replay.busy_ns, "ratio")
    if tracer.absent:
        print(f"absent from the program: {', '.join(tracer.absent)}", file=sys.stderr)
    if tracer.dropped:
        print(f"span log capped: {tracer.dropped} spans not kept", file=sys.stderr)
    merged = Tally()
    merged.attempted = plain.attempted + replay.attempted
    merged.failed = plain.failed + replay.failed
    return merged, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "privcoal", "__init__.py")):
        print(f"no privcoal sources under {src}", file=sys.stderr)
        return 2
    refs_path = os.path.join(HERE, "refs.json")
    if not os.path.isfile(refs_path):
        print("perfbench/refs.json is missing; run perfbench/make_refs.py", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(refs_path) as handle:
        refs = json.load(handle)
    workload = WORKLOADS[args.workload](args.workload, refs)
    run = traced if args.trace else end_to_end
    tally, metrics = run(args.workload, workload, args.seed, args.seconds)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
