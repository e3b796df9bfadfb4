"""Sampled occurrence table: checkpointed per-symbol counts every k
positions, and the rank directory that counts read.

Checkpoint j stores raw code tallies over BWT positions [0, j*k); the
sentinel slot counts as an A here and is corrected at query time using
the BWT's dollar position.  The k-sampled rows are what an index file
stores, what a load checks against its BWT and what index equality
compares.

Counts do not scan from them.  The first `occ_count` on a table makes
its rank directory in one numpy pass over the packed BWT: the BWT as
one uint64 word per 32 symbols, and absolute uint32 per-code tallies
before every 32nd position, 24 bytes per 32 symbols in all (the two-level
rank of Jacobson, FOCS 1989, and Vigna's rank9, WEA 2008; BWA's
`bwt_occ_intv` blocks play the same role).  A count is then one tally
read plus a broadword rank of one word.  The directory is never
written to a file; `rebuild_from` drops it, and an index that is never
counted, such as a build's, never makes it.

The table is tallied once per index from a finished BWT, by
`saii.construct` at the end of a build or `saii.serialize` at load.
This module is the home of k's one rule, `_checked_rate` (1 <= k < 2^32,
the file's u32 field), and one default, `DEFAULT_K`, for every caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .alphabet import A
from .errors import InvalidSamplingRate

if TYPE_CHECKING:  # fmindex imports this module
    from .fmindex import Bwt

DEFAULT_K = 2048
_LOW = 0x5555_5555_5555_5555  # the low bit of each 2-bit slot of a word
_SPREAD = tuple(code * _LOW for code in range(4))  # the code in every slot
_PREFIX = tuple((1 << (r << 1)) - 1 for r in range(33))  # the first r slots


class SampledOccTable:
    """Read-only sampling rate `k`, the n // k + 1 checkpoint rows of a
    BWT of n symbols and, once counted, the rank directory of that BWT."""

    __slots__ = ("_k", "_cp", "_rank")

    def __init__(self, k: int, n: int):
        """Zeroed rows for a BWT of `n` symbols; row 0 stays zero."""
        self._k = _checked_rate(k)
        self._cp = np.zeros((n // k + 1, 4), dtype=np.int64)
        self._rank = None

    @property
    def k(self) -> int:
        return self._k

    def checkpoints(self):
        """(n // k + 1, 4) array; row j holds the raw tallies over
        BWT[0 : j*k] (half open).  Written only by the table's maker,
        and read-only once the table is part of an `FmIndex`."""
        return self._cp

    def rebuild_from(self, bwt: Bwt, from_block: int) -> "SampledOccTable":
        """Recompute checkpoints from `from_block` onward against `bwt`,
        and drop the rank directory.

        `bwt` holds the n symbols the rows were made for; blocks before
        `from_block` must already agree with it, and are not touched.
        """
        k, cp, buf = self._k, self._cp, bwt.data
        for j in range(max(from_block, 1), len(cp)):
            cp[j] = cp[j - 1] + buf.count_range((j - 1) * k, j * k)
        self._rank = None
        return self

    @classmethod
    def build(cls, bwt: Bwt, k: int) -> "SampledOccTable":
        return cls(k, bwt.data.length).rebuild_from(bwt, 0)

    def __repr__(self) -> str:
        return f"SampledOccTable(k={self.k}, checkpoints={len(self._cp)})"


def _checked_rate(k: int) -> int:
    if not 1 <= k < 1 << 32:
        raise InvalidSamplingRate(f"sampling rate must be >= 1 and < 2^32, the index file's u32 k field, got {k}")
    return k


def _rank_directory(bwt: Bwt) -> tuple:
    """(words, tallies) of the n-symbol `bwt`, m = n // 32 + 1 rows each:
    word j packs symbols [32j, 32j + 32) (zero past n), and tallies[j]
    holds the raw code tallies over [0, 32j).  uint32 cannot wrap: an
    index of 2^32 symbols can be neither built nor loaded here, as a
    load's LF walk holds a Python list of n ints."""
    payload = bwt.payload()
    words = np.zeros((bwt.data.length >> 5) + 1, dtype="<u8")
    words.view(np.uint8)[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    low, high = words & _LOW, (words >> 1) & _LOW
    t = np.bitwise_count(low & high)
    c, g = np.bitwise_count(low) - t, np.bitwise_count(high) - t
    per_word = np.stack([32 - c - g - t, c, g, t], axis=1)
    tallies = np.zeros(per_word.shape, dtype=np.uint32)
    np.cumsum(per_word[:-1], axis=0, dtype=np.uint32, out=tallies[1:])
    return words, tallies


def occ_count(table: SampledOccTable, bwt: Bwt, code: int, i: int) -> int:
    """Occurrences of `code` in bwt[0..i], sentinel excluded; occ(*, -1) = 0.

    Reads the rank directory, made on the table's first count: the
    tally before i's 32-symbol word plus a broadword rank of the word's
    first r = i % 32 + 1 slots.  XOR with the code spread over every
    slot zeroes exactly the slots that hold it, so r less the slots
    left nonzero counts them.
    """
    if i < 0:
        return 0
    if table._rank is None:
        table._rank = _rank_directory(bwt)
    words, tallies = table._rank
    r = (i & 31) + 1
    z = (words.item(i >> 5) ^ _SPREAD[code]) & _PREFIX[r]
    total = tallies.item(i >> 5, code) + r - ((z | z >> 1) & _LOW).bit_count()
    if code == A and bwt.dollar_pos <= i:
        total -= 1
    return total
