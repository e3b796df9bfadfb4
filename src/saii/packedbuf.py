"""The 2-bit symbol layout, and a mutable buffer with in-place insertion.

Symbol i occupies bits [2*(i % 4), 2*(i % 4) + 2) of byte i // 4,
least-significant slot first.  Slots at indices >= length are kept zero
so that the payload bytes of equal buffers compare equal.  `pack`,
`unpack`, `code_at` and `tally` are the one codec for this layout; the
immutable `saii.alphabet.PackedSequence` uses them too.

Small edits run as plain Python bit twiddling; edits whose affected
region is large are vectorized over a numpy view of the same bytes,
working in fixed-size chunks so no temporary proportional to the buffer
is ever allocated.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

# Tallies of the four 2-bit codes inside each possible byte value.
_CODE_TALLY = np.zeros((256, 4), dtype=np.int64)
for _b in range(256):
    for _s in range(4):
        _CODE_TALLY[_b, (_b >> (2 * _s)) & 3] += 1

# Tail sizes below these run the scalar path; above, the numpy path.
_INSERT_VECTOR_MIN = 48
_COUNT_VECTOR_MIN = 64

_SHIFT_CHUNK = 4096  # bytes per vector shift step; bounds scratch usage


class PackedBuffer:
    """Growable sequence of 2-bit codes supporting insertion at any position."""

    __slots__ = ("_buf", "_np", "_s1", "_s2", "length")

    def __init__(self, data: bytes = b"", length: int = 0, *, reserve: int = 0):
        """Buffer of `length` codes packed in `data`, with room for `reserve`."""
        self._buf = bytearray(max(len(data), (reserve + 3) >> 2))
        self._buf[: len(data)] = data
        self._np = None
        self._s1 = None
        self._s2 = None
        self.length = length

    @classmethod
    def from_codes(cls, codes) -> "PackedBuffer":
        return cls(pack(codes, len(codes)), len(codes))

    def __len__(self) -> int:
        return self.length

    def get(self, i: int) -> int:
        return code_at(self._buf, i)

    def set(self, i: int, code: int) -> None:
        b = i >> 2
        shift = (i & 3) << 1
        self._buf[b] = (self._buf[b] & ~(3 << shift) & 0xFF) | (code << shift)

    def append(self, code: int) -> None:
        self.reserve(self.length + 1)
        self.set(self.length, code)
        self.length += 1

    def reserve(self, symbols: int) -> None:
        """Make room for at least `symbols` codes, reallocating if needed."""
        need = (symbols + 3) >> 2
        if need <= len(self._buf):
            return
        grown = bytearray(max(need, 2 * len(self._buf), 16))
        grown[: len(self._buf)] = self._buf
        self._buf = grown
        self._np = None  # old view points at the abandoned bytearray
        self._s1 = self._s2 = None  # sized for the old buffer

    def _view(self):
        if self._np is None:
            self._np = np.frombuffer(self._buf, dtype=np.uint8)
        return self._np

    def insert(self, pos: int, code: int) -> None:
        """Insert `code` at symbol position `pos`, shifting the tail up."""
        n = self.length
        self.reserve(n + 1)
        if n - pos < _INSERT_VECTOR_MIN:
            buf = self._buf
            j = n
            while j > pos:
                src = j - 1
                c = (buf[src >> 2] >> ((src & 3) << 1)) & 3
                b = j >> 2
                shift = (j & 3) << 1
                buf[b] = (buf[b] & ~(3 << shift) & 0xFF) | (c << shift)
                j -= 1
            self.set(pos, code)
            self.length = n + 1
            return

        v = self._view()
        if self._s1 is None:
            size = min(_SHIFT_CHUNK, len(self._buf))
            self._s1 = np.empty(size, dtype=np.uint8)
            self._s2 = np.empty(size, dtype=np.uint8)
        first = pos >> 2
        hi = (n + 4) >> 2  # bytes occupied once length becomes n + 1
        lo = first + 1
        # Bytes after the insertion byte gain two bits carried in from the
        # byte to their left.  Chunks run right-to-left so each read sees
        # the pre-shift contents.
        while hi > lo:
            a = max(lo, hi - _SHIFT_CHUNK)
            m = hi - a
            np.left_shift(v[a:hi], 2, out=self._s1[:m])
            np.right_shift(v[a - 1 : hi - 1], 6, out=self._s2[:m])
            np.bitwise_or(self._s1[:m], self._s2[:m], out=v[a:hi])
            hi = a
        r = (pos & 3) << 1
        b = self._buf[first]
        low = (1 << r) - 1
        # Bits below the slot stay, the slot takes the new code, bits from
        # the slot up to bit 6 move up two (bits 6..7 were carried above).
        self._buf[first] = (b & low) | (code << r) | ((b & (0x3F & ~low)) << 2)
        self.length = n + 1

    def gather(self, byte, shift):
        """Codes at the packed slots `(byte, shift)` made by `slots`."""
        return (self._view()[byte] >> shift) & 3

    def count_range(self, start: int, stop: int) -> list:
        """Tallies of each code over symbol positions [start, stop)."""
        return tally(self._view(), start, stop)

    def count_code(self, code: int, start: int, stop: int) -> int:
        """Occurrences of one code over symbol positions [start, stop)."""
        if stop - start < _COUNT_VECTOR_MIN:
            buf = self._buf
            total = 0
            for i in range(start, stop):
                if (buf[i >> 2] >> ((i & 3) << 1)) & 3 == code:
                    total += 1
            return total
        return self.count_range(start, stop)[code]

    def payload(self) -> bytes:
        """The packed bytes holding symbols [0, length)."""
        return bytes(self._buf[: (self.length + 3) >> 2])

    def codes(self) -> list:
        return unpack(self._buf, self.length)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedBuffer):
            return NotImplemented
        return self.length == other.length and self.payload() == other.payload()

    def __repr__(self) -> str:
        return f"PackedBuffer(length={self.length})"


def pack(codes, length: int) -> bytearray:
    """Packed bytes of the `length` codes drawn from the iterable `codes`;
    streams, allocating nothing beyond the ceil(length/4) output bytes."""
    data = bytearray((length + 3) >> 2)
    for i, c in enumerate(codes):
        data[i >> 2] |= c << ((i & 3) << 1)
    return data


def unpack(data, length: int) -> list:
    """The first `length` codes of packed bytes."""
    return [(data[i >> 2] >> ((i & 3) << 1)) & 3 for i in range(length)]


def code_at(data, i: int) -> int:
    """Code at symbol position i of packed bytes."""
    return (data[i >> 2] >> ((i & 3) << 1)) & 3


def tally(view, start: int, stop: int) -> list:
    """Tallies of each code over symbol positions [start, stop) of the
    uint8 array `view` of packed bytes."""
    if stop - start < _COUNT_VECTOR_MIN:
        counts, head, tail = [0, 0, 0, 0], stop, stop
    else:
        head, tail = (start + 3) & ~3, stop & ~3
        counts = (np.bincount(view[head >> 2 : tail >> 2], minlength=256) @ _CODE_TALLY).tolist()
    for i in chain(range(start, head), range(tail, stop)):
        counts[(view[i >> 2] >> ((i & 3) << 1)) & 3] += 1
    return counts


def slots(positions):
    """(byte index, bit shift) arrays locating each symbol position."""
    return positions >> 2, ((positions & 3) << 1).astype(np.uint8)
