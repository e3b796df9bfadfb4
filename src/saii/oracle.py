"""Brute-force reference implementations used as ground truth.

Everything here favors being obviously correct over being fast: the
suffix array comes from prefix doubling with a plain comparison sort
(O(n) memory, so `saii verify` can check long texts), the BWT from the
suffix-array definition, and the full occurrence table from direct
per-position counting.  This module is also the only source of suffix
arrays; the incremental constructor never builds one.
"""

from __future__ import annotations

import numpy as np

from .alphabet import A, PackedSequence
from .errors import EmptyText
from .fmindex import Bwt, CArray, FmIndex
from .occtable import SampledOccTable
from .packedbuf import PackedBuffer


def suffix_array(text: PackedSequence) -> list:
    """Suffix array of text + sentinel, sentinel treated as smallest.

    Position n-1 (the sentinel-only suffix) always sorts first.  Prefix
    doubling: each round sorts the suffixes by their first 2h symbols,
    keyed by the ranks of their two h-symbol halves, until every rank
    differs (the sentinel is unique, so every suffix's rank does), in
    O(n) ints per round.
    """
    if text.length == 0:
        raise EmptyText("cannot build a suffix array for an empty text")
    rank = [c + 1 for c in text.codes()]
    rank.append(0)  # the sentinel ranks below every real code
    n = len(rank)
    width = n + 5  # above every rank + 1, whose largest is max(4, n - 1) + 1
    sa = list(range(n))
    h = 1
    while True:
        # a second half past the end is empty, below every real rank
        key = [rank[i] * width + (rank[i + h] + 1 if i + h < n else 0) for i in range(n)]
        sa.sort(key=key.__getitem__)
        r = 0  # the rank of sa[0], the sentinel, stays 0
        for prev, cur in zip(sa, sa[1:]):
            r += key[cur] != key[prev]
            rank[cur] = r
        if r == n - 1:
            return sa
        h <<= 1


def bwt_from_suffix_array(text: PackedSequence, sa: list) -> Bwt:
    """BWT[i] is the symbol preceding suffix sa[i]; row with sa[i] == 0
    holds the sentinel."""
    codes = []
    dollar_pos = None
    for row, start in enumerate(sa):
        if start == 0:
            dollar_pos = row
            codes.append(A)  # sentinel slot stores code A
        else:
            codes.append(text.code_at(start - 1))
    return Bwt(PackedBuffer.from_codes(codes), dollar_pos)


def full_occ_table(bwt: Bwt) -> np.ndarray:
    """(n, 4) table of sentinel-excluded occurrence counts, row i = O(*, i)."""
    n = bwt.data.length
    table = np.zeros((n, 4), dtype=np.int64)
    running = [0, 0, 0, 0]
    for i in range(n):
        if i != bwt.dollar_pos:
            running[bwt.data.code_at(i)] += 1
        table[i] = running
    return table


def full_index(text: PackedSequence, k: int = 2048) -> FmIndex:
    """Reference FM-index, its BWT read off the suffix array and C from
    a tally of the text; occ materialized at any k (k = 1 gives a
    checkpoint per position)."""
    bwt = bwt_from_suffix_array(text, suffix_array(text))
    codes = text.codes()
    c = CArray.from_tally([codes.count(a) for a in range(4)])
    return FmIndex(bwt=bwt, c=c, occ=SampledOccTable.build(bwt, k))


def invert_bwt(bwt: Bwt) -> PackedSequence:
    """Recover the text by walking last-to-first links from the sentinel row.

    Independent of the query machinery: uses the full table directly.
    ValueError unless the walk is one LF cycle through all n rows.
    """
    n = bwt.data.length
    occ = full_occ_table(bwt)
    c = CArray.from_tally(occ[-1].tolist()).counts  # the last row excludes the sentinel
    out = []
    row = 0
    while row != bwt.dollar_pos and len(out) < n:
        code = bwt.data.code_at(row)
        out.append(code)
        row = c[code] + int(occ[row][code])
    if len(out) != n - 1:
        raise ValueError(f"LF walk from row 0 is not one cycle of {n} rows")
    out.reverse()
    return PackedSequence.from_codes(out)


def sorted_suffixes(text: PackedSequence) -> list:
    """Decoded suffixes of text + '$' in lexical order (for desk checking)."""
    from .alphabet import decode

    s = decode(text) + "$"
    return [s[i:] for i in suffix_array(text)]


def naive_count(text: PackedSequence, query: PackedSequence) -> int:
    """Occurrences of query in text by direct overlapping scan."""
    t = text.codes()
    q = query.codes()
    m = len(q)
    if m == 0 or m > len(t):
        return 0
    return sum(1 for i in range(len(t) - m + 1) if t[i : i + m] == q)
