"""Brute-force reference implementations used as ground truth.

Everything here favors being obviously correct over being fast: the
suffix array comes from a plain comparison sort of suffix code slices,
the BWT from the suffix-array definition, and the full occurrence table
from direct per-position counting.  This module is also the only
source of suffix arrays; the incremental constructor never builds one.
"""

from __future__ import annotations

import numpy as np

from .alphabet import A, PackedSequence
from .bwt import Bwt
from .errors import EmptyText
from .fmindex import CArray, FmIndex, build_c_array
from .occtable import SampledOccTable


def suffix_array(text: PackedSequence) -> list:
    """Suffix array of text + sentinel, sentinel treated as smallest.

    Position n-1 (the sentinel-only suffix) always sorts first.
    """
    if text.length == 0:
        raise EmptyText("cannot build a suffix array for an empty text")
    ext = text.codes()
    ext.append(-1)  # sentinel sorts below every real code
    return sorted(range(len(ext)), key=lambda i: ext[i:])


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
    return Bwt.from_codes(codes, dollar_pos)


def full_occ_table(bwt: Bwt) -> np.ndarray:
    """(n, 4) table of sentinel-excluded occurrence counts, row i = O(*, i)."""
    n = bwt.data.length
    table = np.zeros((n, 4), dtype=np.int64)
    running = [0, 0, 0, 0]
    for i in range(n):
        if i != bwt.dollar_pos:
            running[bwt.code_at(i)] += 1
        table[i] = running
    return table


def full_index(text: PackedSequence, k: int = 2048) -> FmIndex:
    """Reference FM-index with suffix array; occ materialized at any k
    (k = 1 gives a checkpoint per position)."""
    sa = suffix_array(text)
    bwt = bwt_from_suffix_array(text, sa)
    return FmIndex(
        bwt=bwt,
        c=build_c_array(text),
        occ=SampledOccTable.build(bwt, k),
        sa=sa,
    )


def invert_bwt(bwt: Bwt) -> PackedSequence:
    """Recover the text by walking last-to-first links from the sentinel row.

    Independent of the query machinery: uses the full table directly.
    """
    n = bwt.data.length
    occ = full_occ_table(bwt)
    tally = bwt.data.count_range(0, n)
    tally[A] -= 1  # sentinel slot is not a text A
    c = [0, 0, 0, 0]
    for a in range(1, 4):
        c[a] = c[a - 1] + tally[a - 1]
    out = []
    row = 0
    for _ in range(n - 1):
        code = bwt.code_at(row)
        out.append(code)
        row = c[code] + int(occ[row][code])
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
