"""Reference figures: build µs/symbol against n, next to the cycle model.

    python3 bench/scaling.py

Builds one uniform ACGT text per length (seed 1) with each schedule at
k = 2048, checks both against the benchmark's own reference, and prints
a Markdown table with `costmodel.predict_cycles` at the same n.  Takes
about a minute and a half at 131,072 bp; not part of the timed runs.
"""

from __future__ import annotations

import sys
import time

from run import import_saii

SEED = 1
LENGTHS = (4_096, 16_384, 65_536, 131_072)


def main() -> int:
    import_saii()
    import numpy as np
    from saii.costmodel import HardwareParams, predict_cycles

    from reference import codes_of, expected_index
    from workloads import K, SCHEDULES, build_ok, build_op, random_acgt

    params = HardwareParams(k=K)
    print("| n | standard µs/sym | prefetch µs/sym | model cycles | model ms at 120 MHz |")
    print("|---:|---:|---:|---:|---:|")
    for n in LENGTHS:
        text = random_acgt(np.random.default_rng(SEED), n)
        expected = expected_index(codes_of(text), K)
        us = []
        for schedule in SCHEDULES:
            started = time.perf_counter()
            out = build_op(text, schedule)
            us.append((time.perf_counter() - started) / n * 1e6)
            if not build_ok(expected, schedule, out):
                print(f"wrong index at n={n} ({schedule})", file=sys.stderr)
                return 1
        report = predict_cycles(params, n)
        print(f"| {n:,} | {us[0]:.1f} | {us[1]:.1f} | {report.cycles_prefetch:,} | {report.wall_time_ms:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
