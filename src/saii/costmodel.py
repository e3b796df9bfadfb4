"""Cycle cost model of the indexing hardware.

Per iteration the controller spends m cycles in Search plus a memory
refresh whose cost grows with the amount of index built so far: every
iteration inside chunk i (the i-th group of k iterations) charges
i / WORDS_PER_CYCLE refresh cycles with the merged update of the
prefetch design, twice that without it.  Totals are kept as exact
rationals and rounded up only at the end.

With the defaults (m = 3, k = 2048, 120 MHz) a 131,072 symbol build
costs 2,523,136 cycles, about 21 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .errors import InvalidParams

WORDS_PER_CYCLE = 2  # refresh width of the hardware: the paper's i/2 term


@dataclass(frozen=True)
class HardwareParams:
    m: int = 3  # search cycles per iteration
    k: int = 2048  # occurrence-table sampling rate
    clock_hz: int = 120_000_000

    def validate(self) -> None:
        if self.m < 1 or self.k < 1 or self.clock_hz <= 0:
            raise InvalidParams(f"bad hardware parameters: {self}")


@dataclass
class CostReport:
    n: int
    cycles_prefetch: int
    cycles_baseline: int
    wall_time_s: float
    per_chunk: list  # exact per-chunk cycle contributions (prefetch schedule)

    @property
    def wall_time_ms(self) -> float:
        return self.wall_time_s * 1e3


def _chunk_costs(params: HardwareParams, n: int):
    """Exact per-chunk totals for both schedules.

    Chunk i holds k iterations (the final one n mod k when k does not
    divide n), each charging m + i/w refresh with prefetch and m + 2i/w
    without.
    """
    m, k, w = params.m, params.k, WORDS_PER_CYCLE
    full, rem = divmod(n, k)
    prefetch, baseline = [], []
    for i in range(1, full + 1):
        prefetch.append(k * (m + Fraction(i, w)))
        baseline.append(k * (m + Fraction(2 * i, w)))
    if rem:
        i = full + 1
        prefetch.append(rem * (m + Fraction(i, w)))
        baseline.append(rem * (m + Fraction(2 * i, w)))
    return prefetch, baseline


def predict_cycles(params: HardwareParams, n: int) -> CostReport:
    """Closed-form cycle count for indexing an n-symbol sequence."""
    params.validate()
    if n < 1:
        raise InvalidParams(f"sequence length must be >= 1, got {n}")
    prefetch, baseline = _chunk_costs(params, n)
    cycles = ceil(sum(prefetch))
    return CostReport(
        n=n,
        cycles_prefetch=cycles,
        cycles_baseline=ceil(sum(baseline)),
        wall_time_s=cycles / params.clock_hz,
        per_chunk=prefetch,
    )


def emit_scaling_table(params: HardwareParams, lengths) -> str:
    """CSV of model predictions, one row per length, ascending."""
    params.validate()
    lengths = sorted(set(lengths))
    if not lengths:
        raise InvalidParams("need at least one length")
    rows = ["n,cycles_prefetch,cycles_baseline,wall_ms"]
    for n in lengths:
        report = predict_cycles(params, n)
        rows.append(
            f"{n},{report.cycles_prefetch},{report.cycles_baseline},{report.wall_time_ms:.3f}"
        )
    return "\n".join(rows) + "\n"
