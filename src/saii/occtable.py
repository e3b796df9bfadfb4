"""Sampled occurrence table: checkpointed per-symbol counts every k positions.

Checkpoint j stores raw code tallies over BWT positions [0, j*k); the
sentinel slot counts as an A here and is corrected at query time using
the BWT's dollar position.  A point query is one checkpoint lookup plus
a scan of at most k - 1 positions, so the table is k times smaller than
a full per-position table at the cost of that scan.

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
    __slots__ = ("k", "_cp", "num_checkpoints")

    def __init__(self, k: int, capacity: int):
        """No live rows past row 0 yet, and storage for a BWT of up to
        `capacity` symbols."""
        if k < 1:
            raise InvalidSamplingRate(f"sampling rate must be >= 1, got {k}")
        self.k = k
        self._cp = np.zeros((capacity // k + 1, 4), dtype=np.int64)
        self.num_checkpoints = 1

    def checkpoints(self):
        """(num_checkpoints, 4) view of the live rows; row j holds the raw
        tallies over BWT[0 : j*k] (half open).  Do not mutate."""
        return self._cp[: self.num_checkpoints]

    def rebuild_from(self, bwt: Bwt, from_block: int) -> "SampledOccTable":
        """Recompute checkpoints from `from_block` onward against `bwt`.

        Blocks before `from_block` must already agree with the buffer;
        they are not touched.
        """
        k = self.k
        total = bwt.data.length // k + 1
        cp = self._cp
        if from_block == 0:
            cp[0] = 0
            from_block = 1
        buf = bwt.data
        for j in range(from_block, total):
            cp[j] = cp[j - 1] + buf.count_range((j - 1) * k, j * k)
        self.num_checkpoints = total
        return self

    @classmethod
    def build(cls, bwt: Bwt, k: int) -> "SampledOccTable":
        return cls(k, bwt.data.length).rebuild_from(bwt, 0)

    def __repr__(self) -> str:
        return f"SampledOccTable(k={self.k}, checkpoints={self.num_checkpoints})"


def occ_count(table: SampledOccTable, bwt: Bwt, code: int, i: int) -> int:
    """Occurrences of `code` in bwt[0..i], sentinel excluded; occ(*, -1) = 0."""
    if i < 0:
        return 0
    k = table.k
    block = i // k
    anchor = block * k
    # scan first: a checkpoint int held across the scan's allocations
    # adds its 32 B to the allocation peak of every count query
    total = bwt.data.count_code(code, anchor, i + 1) + int(table._cp[block][code])
    if code == A and bwt.dollar_pos <= i:
        total -= 1
    return total
