"""Brute-force reference index used as ground truth by `saii verify`.

Everything here favors being obviously correct over being fast: the
suffix array comes from prefix doubling with a plain comparison sort
(O(n) memory, so `saii verify` can check long texts), the BWT from the
suffix-array definition, and C and the checkpoint rows from tallies of
the text and the BWT, never from the count kernel that builds run.
This module is also the only source of suffix arrays; the incremental
constructor never builds one.  Its index is finished like a built one:
the BWT holds `bytes`.
"""

from __future__ import annotations

from .alphabet import A, PackedSequence
from .errors import EmptyText
from .fmindex import Bwt, CArray, FmIndex
from .occtable import DEFAULT_K, SampledOccTable
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


def full_index(text: PackedSequence, k: int = DEFAULT_K) -> FmIndex:
    """Reference FM-index, its BWT read off the suffix array, C from a
    tally of the text and occ from a running tally of the BWT's codes,
    at any k (k = 1 gives a checkpoint per position)."""
    sa = suffix_array(text)
    bwt = bwt_from_suffix_array(text, sa)
    codes = text.codes()
    c = CArray.from_tally([codes.count(a) for a in range(4)])
    occ = SampledOccTable(k, len(sa))
    rows, tally = occ.checkpoints(), [0, 0, 0, 0]
    for i, start in enumerate(sa, start=1):
        tally[codes[start - 1] if start else A] += 1  # rows count the sentinel's slot as A
        if i % k == 0:
            rows[i // k] = tally
    return FmIndex(bwt=bwt, c=c, occ=occ)
