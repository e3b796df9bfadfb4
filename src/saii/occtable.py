"""Sampled occurrence table: checkpointed per-symbol counts every k positions.

Checkpoint j stores raw code tallies over BWT positions [0, j*k); the
sentinel slot counts as an A here and is corrected at query time using
the BWT's dollar position.  A point query is one checkpoint lookup plus
a scan of at most k - 1 positions, so the table is k times smaller than
a full per-position table at the cost of that scan.

The incremental constructor never re-counts a block it has already
tallied.  An edit at position p changes only the checkpoints j with
j*k > p, and each by exactly one symbol: an overwrite of raw code `old`
by `new` adds +1 to `new` and -1 to `old`; an insertion of `code` adds
+1 to `code` and -1 to the symbol it pushed across the boundary, which
now sits at j*k.  Both are applied as one vectorized update of those
rows, O(n / k) work per edit with no symbol scan, which is what the
hardware's Update state does and what `saii.costmodel` charges (i/w
cycles per iteration for the merged prefetch update, 2i/w without).
Only when the text completes a block is one new row tallied.  The rows
are allocated once, for the BWT length the table is made with.
"""

from __future__ import annotations

import numpy as np

from .alphabet import A
from .bwt import Bwt
from .errors import InvalidSamplingRate
from .packedbuf import slots

# _DELTA[new][old] is the row update for one symbol `old` replaced by
# `new` inside a checkpoint's range: +1 on new, -1 on old.
_DELTA = np.zeros((4, 4, 4), dtype=np.int64)
for _new in range(4):
    for _old in range(4):
        _DELTA[_new, _old, _new] += 1
        _DELTA[_new, _old, _old] -= 1


class SampledOccTable:
    __slots__ = ("k", "_cp", "_bound_slots", "num_checkpoints")

    def __init__(self, k: int, capacity: int):
        """No live rows past row 0 yet, and storage for a BWT of up to
        `capacity` symbols."""
        if k < 1:
            raise InvalidSamplingRate(f"sampling rate must be >= 1, got {k}")
        self.k = k
        self._cp = np.zeros((capacity // k + 1, 4), dtype=np.int64)
        # packed slot of each boundary j*k, read by the insertion delta
        self._bound_slots = slots(np.arange(len(self._cp), dtype=np.int64) * k)
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

    def apply_overwrite(self, pos: int, old: int, new: int) -> None:
        """Account for raw code `old` at `pos` having been overwritten by `new`."""
        lo = pos // self.k + 1
        if lo < self.num_checkpoints:
            self._cp[lo : self.num_checkpoints] += _DELTA[new, old]

    def apply_insert(self, bwt: Bwt, pos: int, code: int) -> None:
        """Account for `code` having been inserted into `bwt` at `pos`.

        Every checkpoint past `pos` gains `code` and loses the symbol
        the insertion pushed across its boundary; a block the insertion
        completed is tallied as one new row.
        """
        lo = pos // self.k + 1
        hi = self.num_checkpoints
        if lo < hi:
            byte, shift = self._bound_slots
            pushed = bwt.data.gather(byte[lo:hi], shift[lo:hi])
            self._cp[lo:hi] += _DELTA[code, pushed]
        if bwt.data.length % self.k == 0:
            self.rebuild_from(bwt, hi)

    @classmethod
    def build(cls, bwt: Bwt, k: int) -> "SampledOccTable":
        return cls(k, bwt.data.length).rebuild_from(bwt, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledOccTable):
            return NotImplemented
        return (
            self.k == other.k
            and self.num_checkpoints == other.num_checkpoints
            and bool(np.array_equal(self.checkpoints(), other.checkpoints()))
        )

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
    if code == A and bwt.dollar_pos is not None and bwt.dollar_pos <= i:
        total -= 1
    return total
