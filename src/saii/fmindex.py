"""FM-index data model and query side: C array, occurrence queries,
backward search, and the bracket semantics for missing queries.

The search interval convention: a query occurs in the text iff
low <= high, and the occurrence count is high - low + 1.  When a query
is absent, `low` still carries information: it is the number of text
suffixes lexically smaller than the query, so the suffixes at rows
low - 1 and low bracket it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .alphabet import PackedSequence
from .bwt import Bwt
from .errors import EmptyText, IndexOutOfRange, MissingSuffixArray
from .occtable import SampledOccTable, occ_count


class CArray:
    """counts[a] = number of text symbols lexically smaller than a.

    The sentinel is lexically smallest but is never counted here; the
    +1 in the backward-search lower bound is its offset.
    """

    __slots__ = ("counts",)

    def __init__(self, counts=None):
        self.counts = list(counts) if counts is not None else [0, 0, 0, 0]

    def add_symbol(self, code: int) -> None:
        """Account for one more text symbol `code`."""
        counts = self.counts
        for b in range(code + 1, 4):
            counts[b] += 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, CArray):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:
        return f"CArray({self.counts})"


def build_c_array(seq: PackedSequence) -> CArray:
    if seq.length < 1:
        raise EmptyText("C array needs at least one symbol")
    tally = seq.tally()
    c = [0, 0, 0, 0]
    for a in range(1, 4):
        c[a] = c[a - 1] + tally[a - 1]
    return CArray(c)


@dataclass(frozen=True, slots=True)
class SearchRange:
    low: int
    high: int

    @property
    def is_substring(self) -> bool:
        return self.low <= self.high

    @property
    def count(self) -> int:
        return self.high - self.low + 1 if self.low <= self.high else 0


@dataclass
class FmIndex:
    """Aggregate of BWT, C array and sampled occurrence table.

    `sa` is present only on oracle-built indexes; incrementally built
    ones support counting but not locating.  The length `n` (sentinel
    included) and sampling rate `k` are read from the BWT and the table.
    """

    bwt: Bwt
    c: CArray
    occ: SampledOccTable
    sa: list | None = None
    prefetch_built: bool = field(default=False, compare=False)

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
    return occ_count(index.occ, index.bwt, code, i)


def initial_range(index: FmIndex) -> SearchRange:
    return SearchRange(0, index.n - 1)


def backward_extend(index: FmIndex, rng: SearchRange, code: int) -> SearchRange:
    """One backward-search step: the interval for code+current pattern."""
    ca = index.c.counts[code]
    low = ca + occ_count(index.occ, index.bwt, code, rng.low - 1) + 1
    high = ca + occ_count(index.occ, index.bwt, code, rng.high)
    return SearchRange(low, high)


def search(index: FmIndex, query: PackedSequence) -> SearchRange:
    """Backward search over the whole query, right to left.

    The recurrences stay exact even after the interval empties, so the
    final `low` is always the rank of the query among all suffixes.
    """
    if query.length == 0:
        raise EmptyText("cannot search for an empty query")
    rng = initial_range(index)
    for code in reversed(query.codes()):
        rng = backward_extend(index, rng, code)
    return rng


def count(index: FmIndex, query: PackedSequence) -> int:
    """Number of occurrences of `query` in the indexed text."""
    return search(index, query).count


def bracket(index: FmIndex, query: PackedSequence) -> tuple:
    """(low, is_substring): when absent, suffixes at sa[low-1] and sa[low]
    lexically bracket the query (low == 0: precedes all; low == n: follows all).
    """
    if index.sa is None:
        raise MissingSuffixArray("bracket needs an index built with a suffix array")
    rng = search(index, query)
    return rng.low, rng.is_substring


def locate(index: FmIndex, query: PackedSequence) -> list:
    """Sorted text positions of every occurrence (suffix-array indexes only)."""
    if index.sa is None:
        raise MissingSuffixArray("locate needs an index built with a suffix array")
    rng = search(index, query)
    if not rng.is_substring:
        return []
    return sorted(index.sa[rng.low : rng.high + 1])


def first_mismatch(a: FmIndex, b: FmIndex) -> str | None:
    """Name of the first differing index field, or None when equivalent.

    The suffix array and schedule flag are intentionally not compared:
    they describe how an index was built, not what it indexes.
    """
    if a.n != b.n:
        return "n"
    if a.k != b.k:
        return "k"
    if a.bwt.dollar_pos != b.bwt.dollar_pos:
        return "dollar_pos"
    if a.bwt.payload() != b.bwt.payload():
        return "bwt"
    if a.c != b.c:
        return "c"
    if a.occ != b.occ:
        return "occ"
    return None
