"""Expected FM-index contents, computed without the program under test.

The suffix array of text + sentinel comes from numpy prefix doubling;
the BWT, sentinel row, C array, k-sampled checkpoint rows and the
serialized file bytes all follow from it by their definitions.  Only
`self_check` touches `saii`, to compare this module once against the
package's brute-force oracle.
"""

from __future__ import annotations

import itertools
import struct
import sys
import zlib
from dataclasses import dataclass

import numpy as np

_HEADER = struct.Struct("<4sHHQIQ4Q")  # magic, version, flags, n, k, dollar, C
_PACK_WEIGHTS = np.array([1, 4, 16, 64], dtype=np.uint8)


def suffix_array(codes: np.ndarray) -> np.ndarray:
    """Suffix array of codes + sentinel, the sentinel sorting lowest."""
    n = len(codes) + 1
    rank = np.zeros(n, dtype=np.int64)
    rank[:-1] = codes.astype(np.int64) + 1
    h = 1
    while True:
        second = np.full(n, -1, dtype=np.int64)
        second[: n - h] = rank[h:]
        order = np.lexsort((second, rank))
        r, s = rank[order], second[order]
        new_group = np.ones(n, dtype=np.int64)
        new_group[1:] = (r[1:] != r[:-1]) | (s[1:] != s[:-1])
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.cumsum(new_group) - 1
        if rank[order[-1]] == n - 1:
            return order
        h *= 2


@dataclass(frozen=True)
class Expected:
    """What the index of one text must hold at sampling rate k."""

    n: int
    k: int
    dollar: int
    c: list
    payload: bytes
    checkpoints: np.ndarray  # (n // k + 1, 4) raw tallies, sentinel slot as A

    def blob(self, flags: int) -> bytes:
        """The index file bytes; flags bit 0 marks a prefetch-schedule build."""
        body = (
            _HEADER.pack(b"SAII", 1, flags, self.n, self.k, self.dollar, *self.c)
            + self.payload
            + self.checkpoints.astype("<u8").tobytes()
        )
        return body + struct.pack("<I", zlib.crc32(body))

    def matches(self, index) -> bool:
        """Whether an in-memory index holds exactly these fields."""
        return (
            index.n == self.n
            and index.k == self.k
            and index.bwt.dollar_pos == self.dollar
            and list(index.c.counts) == self.c
            and index.bwt.payload() == self.payload
            and np.array_equal(index.occ.checkpoints(), self.checkpoints)
        )


def expected_index(codes: np.ndarray, k: int) -> Expected:
    sa = suffix_array(codes)
    n = len(sa)
    raw = np.zeros(n, dtype=np.uint8)  # the sentinel slot stores code A
    has_prev = sa > 0
    raw[has_prev] = codes[sa[has_prev] - 1]
    dollar = int(np.flatnonzero(~has_prev)[0])
    tally = np.bincount(codes, minlength=4)
    c = [int(tally[:a].sum()) for a in range(4)]
    prefix = np.zeros((n + 1, 4), dtype=np.int64)
    np.cumsum(np.eye(4, dtype=np.int64)[raw], axis=0, out=prefix[1:])
    checkpoints = prefix[np.arange(n // k + 1) * k]
    padded = np.zeros((n + 3) // 4 * 4, dtype=np.uint8)
    padded[:n] = raw
    payload = (padded.reshape(-1, 4) * _PACK_WEIGHTS).sum(axis=1, dtype=np.uint8).tobytes()
    return Expected(n, k, dollar, c, payload, checkpoints)


def codes_of(text: str) -> np.ndarray:
    """2-bit codes of an upper-case ACGT string."""
    lut = np.zeros(256, dtype=np.uint8)
    lut[np.frombuffer(b"ACGT", dtype=np.uint8)] = np.arange(4, dtype=np.uint8)
    return lut[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]


def self_check(oracle, packed_sequence) -> bool:
    """Whether `expected_index` agrees with `oracle.full_index` on every
    text of length 1..5; k = 1 covers every prefix tally, k = 3 the sampling."""
    for length in range(1, 6):
        for combo in itertools.product(range(4), repeat=length):
            codes = np.array(combo, dtype=np.uint8)
            for k in (1, 3):
                ref = oracle.full_index(packed_sequence.from_codes(list(combo)), k=k)
                if not expected_index(codes, k).matches(ref):
                    print(f"bench: reference and oracle disagree on {combo} at k={k}", file=sys.stderr)
                    return False
    return True
