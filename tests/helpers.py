"""Helpers shared by the test modules, and the brute-force references
that only tests read: the full occurrence table, BWT inversion, sorted
suffixes and a direct count."""

import tracemalloc

import numpy as np

from saii.alphabet import SYMBOLS, PackedSequence, decode
from saii.fmindex import CArray
from saii.oracle import suffix_array
from saii.packedbuf import PackedBuffer


def leaf(codes) -> PackedBuffer:
    """An int-backed buffer of `codes`, like a construction leaf: the one
    kind of buffer that takes `insert`."""
    return PackedBuffer(int.from_bytes(PackedBuffer.from_codes(codes).payload(), "little"), len(codes))


def full_occ_table(bwt) -> np.ndarray:
    """(n, 4) table of sentinel-excluded occurrence counts, row i = O(*, i)."""
    n = bwt.data.length
    table = np.zeros((n, 4), dtype=np.int64)
    running = [0, 0, 0, 0]
    for i in range(n):
        if i != bwt.dollar_pos:
            running[bwt.data.code_at(i)] += 1
        table[i] = running
    return table


def invert_bwt(bwt) -> PackedSequence:
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


def decode_with_sentinel(bwt) -> str:
    """Readable form of a `saii.fmindex.Bwt`, e.g. 'G$AGTCTC'."""
    return "".join(
        "$" if i == bwt.dollar_pos else SYMBOLS[code] for i, code in enumerate(bwt.data.codes())
    )


def packed_bytes(codes) -> bytes:
    """The 2-bit layout of `codes` written one code at a time, a
    reference for `saii.packedbuf.fold`: code i in bits 2 * (i % 4) up of
    byte i // 4, padding slots zero."""
    out = bytearray((len(codes) + 3) // 4)
    for i, c in enumerate(codes):
        out[i // 4] |= c << 2 * (i % 4)
    return bytes(out)


def record_count_reads(monkeypatch) -> list:
    """Patch `PackedBuffer.count_range` and `PackedBuffer.count_code`,
    the two count kernels, to log the (start, stop) of each call into
    the returned list."""
    from saii.packedbuf import PackedBuffer

    reads = []
    count_range, count_code = PackedBuffer.count_range, PackedBuffer.count_code

    def logged_range(self, start, stop):
        reads.append((start, stop))
        return count_range(self, start, stop)

    def logged_code(self, code, start, stop):
        reads.append((start, stop))
        return count_code(self, code, start, stop)

    monkeypatch.setattr(PackedBuffer, "count_range", logged_range)
    monkeypatch.setattr(PackedBuffer, "count_code", logged_code)
    return reads


def traced(call) -> tuple:
    """(call(), bytes traced as still held once it returns, peak bytes
    traced while it ran), both counted from where tracing began."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before
