"""FM-index data model and query side: BWT, C array, occurrence queries
and backward search.  An index holds only what counting needs; locating
would need suffix-array samples, which no index carries.

The search interval convention: a query occurs in the text iff
low <= high, and the occurrence count is high - low + 1.  When a query
is absent, `low` still carries information: it is the number of text
suffixes lexically smaller than the query, so the suffixes at rows
low - 1 and low bracket it (low == 0: it precedes all; low == n: it
follows all).

A backward step (`backward_extend`, `search`) takes one count,
O(c, low - 1).  An empty interval stays empty with no second count, and
a one-row interval adds its row's own symbol; any other interval makes
the second count, O(c, high).  Every count reads one tally and one
32-symbol word of the rank directory (`saii.occtable.occ_count`), so a
search reads no BWT symbol but the row of a one-row interval, at any k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .alphabet import PackedSequence
from .errors import EmptyText, IndexOutOfRange
from .occtable import SampledOccTable, occ_count
from .packedbuf import PackedBuffer


@dataclass(frozen=True, slots=True, eq=False)
class Bwt:
    """Finished BWT string with the sentinel kept as a position: its slot
    stores code A, so occurrence counts for A exclude `dollar_pos`
    (`saii.occtable.occ_count`).  `data` holds `bytes`, so it never
    changes.  Indexes compare by `first_mismatch`.
    """

    data: PackedBuffer
    dollar_pos: int

    def payload(self) -> bytes:
        return self.data.payload()


@dataclass(frozen=True, slots=True, eq=False)
class CArray:
    """counts[a] = number of text symbols lexically smaller than a, a
    tuple, so an index's C cannot change under its BWT.

    The sentinel is lexically smallest but is never counted here; the
    +1 in the backward-search lower bound is its offset.
    """

    counts: tuple

    @classmethod
    def from_tally(cls, tally) -> "CArray":
        """C of a text whose per-code symbol counts are `tally`."""
        return cls(tuple(accumulate(tally[:3], initial=0)))


@dataclass(frozen=True, slots=True)
class SearchRange:
    low: int
    high: int

    @property
    def count(self) -> int:
        return self.high - self.low + 1 if self.low <= self.high else 0


@dataclass(frozen=True, eq=False)
class FmIndex:
    """Aggregate of BWT, C array and sampled occurrence table, frozen
    like its `Bwt`: making it makes the table's rows read-only (its k
    always is), so the rows stay those of its BWT.

    The length `n` (sentinel included) and sampling rate `k` are read
    from the BWT and the table.  `prefetch_built` records the schedule
    that built the index; `==`, which is `first_mismatch`, ignores it.
    """

    bwt: Bwt
    c: CArray
    occ: SampledOccTable
    prefetch_built: bool = False

    def __post_init__(self):
        # write=False, by position: the keyword form adds to a build's allocation peak
        self.occ.checkpoints().setflags(False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FmIndex):
            return NotImplemented
        return first_mismatch(self, other) is None

    @property
    def n(self) -> int:
        return self.bwt.data.length

    @property
    def k(self) -> int:
        return self.occ.k


def occ_query(index: FmIndex, code: int, i: int) -> int:
    """O(code, i): occurrences of `code` in BWT[0..i]; i = -1 gives 0."""
    if i >= index.n or i < -1:
        raise IndexOutOfRange(f"occurrence query at {i} outside [-1, {index.n})")
    if not 0 <= code < 4:
        raise IndexOutOfRange(f"occurrence query for code {code} outside [0, 4)")
    return occ_count(index.occ, index.bwt, code, i)


def backward_extend(index: FmIndex, rng: SearchRange, code: int) -> SearchRange:
    """One backward-search step: the interval for code+current pattern,
    (C[code] + O(code, low - 1) + 1, C[code] + O(code, high)) on any range.

    One count, O(code, low - 1): when high == low - 1 the new interval
    is empty too, with no second count; when high == low, O(code, high)
    is that count plus one if the row holds `code`.  Any other range
    makes the second count.
    IndexOutOfRange unless code is in [0, 4), low in [0, n] and high in
    [-1, n).
    """
    n = index.n
    if not 0 <= code < 4:
        raise IndexOutOfRange(f"backward step for code {code} outside [0, 4)")
    if not (0 <= rng.low <= n and -1 <= rng.high < n):
        raise IndexOutOfRange(f"backward step from ({rng.low}, {rng.high}) outside [0, {n}] x [-1, {n})")
    return SearchRange(*_step(index, code, rng.low, rng.high))


def _step(index: FmIndex, code: int, low: int, high: int) -> tuple:
    """`backward_extend` on plain ints: the new (low, high)."""
    bwt = index.bwt
    ca = index.c.counts[code]
    before = ca + occ_count(index.occ, bwt, code, low - 1)
    if high == low - 1:
        return before + 1, before
    if high == low:
        # the sentinel's row holds no code, though its slot stores A
        return before + 1, before + (low != bwt.dollar_pos and bwt.data.code_at(low) == code)
    return before + 1, ca + occ_count(index.occ, bwt, code, high)


def search(index: FmIndex, query: PackedSequence) -> SearchRange:
    """Backward search over the whole query, right to left: each code is
    read in place from the query's payload.  The recurrences stay exact
    even after the interval empties, so the final `low` is always the
    rank of the query among all suffixes.
    """
    if query.length == 0:
        raise EmptyText("cannot search for an empty query")
    low, high = 0, index.n - 1
    data = query.payload()
    for i in range(query.length - 1, -1, -1):
        low, high = _step(index, data[i >> 2] >> ((i & 3) << 1) & 3, low, high)
    return SearchRange(low, high)


def count(index: FmIndex, query: PackedSequence) -> int:
    """Number of occurrences of `query` in the indexed text."""
    return search(index, query).count


def first_mismatch(a: FmIndex, b: FmIndex) -> str | None:
    """Name of the first differing index field, or None when equivalent.

    The schedule flag is intentionally not compared: it describes how
    an index was built, not what it indexes.
    """
    if a.n != b.n:
        return "n"
    if a.k != b.k:
        return "k"
    if a.bwt.dollar_pos != b.bwt.dollar_pos:
        return "dollar_pos"
    if a.bwt.payload() != b.bwt.payload():
        return "bwt"
    if a.c.counts != b.c.counts:
        return "c"
    if a.occ.checkpoints().tobytes() != b.occ.checkpoints().tobytes():
        return "occ"
    return None
