"""Benchmark of the saii FM-index package, run in-process on one thread.

    python3 bench/run.py --workload ref_build|read_build|ref_count \
        --seed N --seconds S --trace 0|1

Imports `saii` from the `src/` directory next to this one and fails
(exit code 1, no result) when it is missing.  With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics;
with --trace 1 it holds the per-layer metrics, and the spans go to
bench/out/.  Every run checks every output against references computed
apart from the program (see reference.py) and says so in `correct`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SPAN_CAP = 50_000


def import_saii() -> None:
    if not (SRC / "saii" / "__init__.py").is_file():
        raise SystemExit(f"bench: the saii sources are not at {SRC}")
    sys.path.insert(0, str(SRC))
    import saii

    if Path(saii.__file__).resolve().parent != SRC / "saii":
        raise SystemExit(f"bench: imported saii from {saii.__file__}, not from {SRC}")


class Tally:
    """Op times and outcomes of one phase of a run."""

    def __init__(self):
        self.times: list = []
        self.symbols = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True


def run_round(workload, r: int, tally: Tally, tracer=None) -> None:
    outputs = []
    with tracer.installed() if tracer else nullcontext():
        for symbols, op in workload.ops(r):
            tally.attempted += 1
            if tracer:
                tracer.op = tally.attempted
            started = time.perf_counter()
            try:
                out = op()
            except Exception:
                traceback.print_exc()
                tally.failed += 1
                out = None
            else:
                tally.times.append(time.perf_counter() - started)
                tally.symbols += symbols
            outputs.append(out)
    if not workload.check(r, outputs):
        print(f"bench: wrong output in round {r}", file=sys.stderr)
        tally.correct = False


def setup_ok(workload) -> bool:
    if workload.check_setup():
        return True
    print("bench: wrong output during set-up", file=sys.stderr)
    return False


def run_for(workload, tally: Tally, seconds: float, first: int, least: int, most=None, tracer=None) -> int:
    """Whole rounds from `first` on: at least `least`, at most `most`, and
    none that would end past `seconds` once `least` are done.  Returns
    how many ran."""
    started = time.perf_counter()
    done = 0
    while most is None or done < most:
        if done >= least and (time.perf_counter() - started) * (done + 1) / done > seconds:
            break
        run_round(workload, first + done, tally, tracer)
        done += 1
    return done


def peak_alloc_kb(workload) -> float:
    """Largest allocation peak of one op over a fixed sample, untimed."""
    peak = 0
    tracemalloc.start()
    try:
        for op in workload.alloc_ops():
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            op()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peak / 1024


def end_to_end(workload, seconds: float) -> dict:
    """The run is cut into `setup_reps` equal slices, each a set-up and then
    an even share of the rounds, so that set-ups and ops are timed across
    the same stretch of the run."""
    correct = True
    setup = []
    tally = Tally()
    reps = workload.setup_reps
    least = -(-workload.min_rounds // reps)
    most = -(-workload.max_rounds // reps) if workload.max_rounds else None
    done = 0
    for _ in range(reps):
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        setup.append(time.perf_counter() - started)
        correct &= setup_ok(workload)
        done += run_for(workload, tally, seconds / reps, done, least, most)
    times = (tally.times or [0.0]) * (1 if len(tally.times) > 1 else 2)  # quantiles needs two
    # inclusive: with the two ops of a ref_build run, p99 stays between them
    p99 = statistics.quantiles(times, n=100, method="inclusive")[98]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "sym_per_s": (tally.symbols / sum(tally.times) if tally.times else 0.0, "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p99": (p99 * 1e3, "ms"),
        "peak_alloc_kb": (peak_alloc_kb(workload), "KB"),
    }
    return result(correct and tally.correct, tally, metrics)


def traced(workload, seconds: float, seed: int) -> dict:
    """Set-up and a window of rounds traced; the same window is first run
    untraced to give the tracing overhead; traced rounds fill the rest."""
    import tracing

    tracer = tracing.Tracer(SPAN_CAP)
    tracing.add_saii_layers(tracer)
    started = time.perf_counter()
    with tracer.installed():
        workload.setup()
    correct = setup_ok(workload)
    plain, tally = Tally(), Tally()
    for r in range(workload.window_rounds):
        run_round(workload, r, plain)
    before = tracer.counts()
    for r in range(workload.window_rounds):
        run_round(workload, r, tally, tracer)
    window = tracing.window_counts(before, tracer.counts())
    untraced = sum(plain.times)
    overhead = (sum(tally.times) - untraced) / untraced * 100 if untraced else 0.0
    left = seconds - (time.perf_counter() - started)
    most = workload.max_rounds - workload.window_rounds if workload.max_rounds else None
    if left > 0:
        run_for(workload, tally, left, workload.window_rounds, 1, most, tracer)
    metrics = tracing.per_layer_metrics(tracer.totals, window, overhead)
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    out = result(correct and plain.correct and tally.correct, tally, metrics)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.json"
    with open(trace_file, "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "result": out,
                "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                "spans": tracer.spans,
                "spans_dropped": tracer.spans_dropped,
            },
            fh,
        )
    print(f"bench: trace written to {trace_file}", file=sys.stderr)
    return out


def result(correct: bool, tally: Tally, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # numpy reads these on import; the benchmark is single-threaded
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import_saii()
    import reference
    import workloads
    from saii import PackedSequence, oracle

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    reference_ok = reference.self_check(oracle, PackedSequence)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        out = traced(workload, args.seconds, args.seed)
    else:
        out = end_to_end(workload, args.seconds)
    out["correct"] = out["correct"] and reference_ok
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
