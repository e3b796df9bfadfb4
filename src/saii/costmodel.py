"""Cycle cost model of the indexing hardware.

Per iteration the controller spends m cycles in Search plus a memory
refresh whose cost grows with the amount of index built so far: every
iteration inside chunk i (the i-th group of k iterations; the last one
holds n mod k when k does not divide n) charges i / WORDS_PER_CYCLE
refresh cycles with the merged update of the prefetch design, twice
that without it.  `predict_cycles` sums the prefetch charge chunk by
chunk as exact rationals and rounds up only at the end.  The baseline
needs no second sum: a chunk of s iterations costs s(m + 2i/w) =
2 s(m + i/w) - s m without prefetch, so its total is twice the
prefetch total less m n.

With the defaults (m = 3, k = 2048, 120 MHz) a 131,072 symbol build
costs 2,523,136 cycles, about 21 ms.  k is checked by the index's own
rule and default, in `saii.occtable`; the model sets no bound of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .errors import InvalidParams
from .occtable import DEFAULT_K, _checked_rate

WORDS_PER_CYCLE = 2  # refresh width of the hardware: the paper's i/2 term


@dataclass(frozen=True)
class HardwareParams:
    """Checks itself when made: k by the index's rule, with no bound of
    its own (InvalidSamplingRate outside [1, 2^32)), and m < 1 or
    clock_hz <= 0 InvalidParams."""

    m: int = 3  # search cycles per iteration
    k: int = DEFAULT_K  # occurrence-table sampling rate
    clock_hz: int = 120_000_000

    def __post_init__(self):
        _checked_rate(self.k)
        if self.m < 1 or self.clock_hz <= 0:
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


def predict_cycles(params: HardwareParams, n: int) -> CostReport:
    """Cycles to index an n-symbol sequence with and without prefetch,
    summed chunk by chunk; `per_chunk` holds the prefetch charge of
    each chunk, s(m + i/w) for its s iterations."""
    if n < 1:
        raise InvalidParams(f"sequence length must be >= 1, got {n}")
    m, k, w = params.m, params.k, WORDS_PER_CYCLE
    per_chunk = [Fraction(min(k, n - (i - 1) * k) * (m * w + i), w) for i in range(1, -(-n // k) + 1)]
    total = sum(per_chunk)
    cycles = ceil(total)
    return CostReport(
        n=n,
        cycles_prefetch=cycles,
        cycles_baseline=ceil(2 * total - m * n),
        wall_time_s=cycles / params.clock_hz,
        per_chunk=per_chunk,
    )


def emit_scaling_table(params: HardwareParams, lengths) -> str:
    """CSV of model predictions, one row per length, ascending."""
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
