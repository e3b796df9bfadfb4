"""Sampled occurrence table: checkpointed per-symbol counts every k positions.

Checkpoint j stores raw code tallies over BWT positions [0, j*k); the
sentinel slot counts as an A here and is corrected at query time using
the BWT's dollar position.  A point query at i reads the checkpoint
nearer to i, row i // k or the next, and scans the positions between,
at most floor(k / 2) of them (at most n mod k in a last partial block,
which has no next row).  The table is k times smaller than a full
per-position table at the cost of that scan.

The table is tallied once per index from a finished BWT, by
`saii.construct` at the end of a build or `saii.serialize` at load.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .alphabet import A
from .errors import InvalidSamplingRate

if TYPE_CHECKING:  # fmindex imports this module
    from .fmindex import Bwt


class SampledOccTable:
    """Sampling rate `k` and the n // k + 1 checkpoint rows of a BWT of n symbols."""

    __slots__ = ("k", "_cp")

    def __init__(self, k: int, n: int):
        """Zeroed rows for a BWT of `n` symbols; row 0 stays zero."""
        self.k = _checked_rate(k)
        self._cp = np.zeros((n // k + 1, 4), dtype=np.int64)

    def checkpoints(self):
        """(n // k + 1, 4) array; row j holds the raw tallies over
        BWT[0 : j*k] (half open).  Do not mutate."""
        return self._cp

    def rebuild_from(self, bwt: Bwt, from_block: int) -> "SampledOccTable":
        """Recompute checkpoints from `from_block` onward against `bwt`.

        `bwt` holds the n symbols the rows were made for; blocks before
        `from_block` must already agree with it, and are not touched.
        """
        k, cp, buf = self.k, self._cp, bwt.data
        for j in range(max(from_block, 1), len(cp)):
            cp[j] = cp[j - 1] + buf.count_range((j - 1) * k, j * k)
        return self

    @classmethod
    def build(cls, bwt: Bwt, k: int) -> "SampledOccTable":
        return cls(k, bwt.data.length).rebuild_from(bwt, 0)

    def __repr__(self) -> str:
        return f"SampledOccTable(k={self.k}, checkpoints={len(self._cp)})"


def _checked_rate(k: int) -> int:
    if k < 1:
        raise InvalidSamplingRate(f"sampling rate must be >= 1, got {k}")
    return k


def occ_count(table: SampledOccTable, bwt: Bwt, code: int, i: int) -> int:
    """Occurrences of `code` in bwt[0..i], sentinel excluded; occ(*, -1) = 0.

    Counts from the nearer checkpoint of i's block: row b = i // k plus
    a forward scan of bwt[b*k .. i], or, when row b + 1 exists and that
    side is shorter, row b + 1 minus a backward scan of bwt[i+1 .. (b+1)*k).
    """
    if i < 0:
        return 0
    k = table.k
    offset = i % k
    # scan first: a checkpoint int held across the scan's allocations
    # adds its 32 B to the allocation peak of every count query
    if offset >= k >> 1 and i - offset + k <= bwt.data.length:
        total = -bwt.data.count_code(code, i + 1, i - offset + k) + table._cp.item(i // k + 1, code)
    else:
        total = bwt.data.count_code(code, i - offset, i + 1) + table._cp.item(i // k, code)
    if code == A and bwt.dollar_pos <= i:
        total -= 1
    return total
