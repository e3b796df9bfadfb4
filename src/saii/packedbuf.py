"""The 2-bit symbol layout, and a mutable buffer with in-place insertion.

Symbol i occupies bits [2*(i % 4), 2*(i % 4) + 2) of byte i // 4,
least-significant slot first.  Slots at indices >= length are kept zero
so that the payload bytes of equal buffers compare equal.  `pack`,
`unpack`, `code_at` and `tally` are the one codec for this layout; the
immutable `saii.alphabet.PackedSequence` uses them too.

A run of packed bytes read as one little-endian Python int holds its
codes as two bit planes: the low bit of each code at the even bit
positions, the high bit at the odd ones.  `tally` counts codes with
popcounts over those planes (broadword rank), and a short insertion
shifts the int up by one slot.  An insertion with a long tail shifts a
numpy view of the same bytes instead, in fixed-size chunks, so no
temporary grows with the buffer.
"""

from __future__ import annotations

import numpy as np

# Insertions whose tail holds at least this many symbols shift it through
# numpy; shorter tails shift as one Python int.  The int shift is the
# faster one below about 4,096 symbols, and this bound also caps its
# temporaries, a few copies of the tail's packed bytes.
_INSERT_VECTOR_MIN = 4096

_SHIFT_CHUNK = 4096  # bytes per vector shift step; bounds scratch usage


class PackedBuffer:
    """Fixed-capacity sequence of 2-bit codes, insertable at any position."""

    __slots__ = ("_buf", "_np", "_s1", "_s2", "length")

    def __init__(self, data: bytearray, length: int):
        """Buffer of `length` codes packed in `data`, which it takes over;
        trailing zero bytes are room to insert into."""
        self._buf = data
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

    def _view(self):
        if self._np is None:
            self._np = np.frombuffer(self._buf, dtype=np.uint8)
        return self._np

    def insert(self, pos: int, code: int) -> None:
        """Insert `code` at symbol position `pos`, shifting the tail up;
        IndexError when the buffer is full."""
        n = self.length
        if n >= len(self._buf) << 2:
            raise IndexError(f"insert into a full buffer of {n} codes")
        first = pos >> 2
        hi = (n + 4) >> 2  # bytes occupied once length becomes n + 1
        if n - pos >= _INSERT_VECTOR_MIN:
            v = self._view()
            if self._s1 is None:
                size = min(_SHIFT_CHUNK, len(self._buf))
                self._s1 = np.empty(size, dtype=np.uint8)
                self._s2 = np.empty(size, dtype=np.uint8)
            lo = first + 1
            # Bytes after the insertion byte gain two bits carried in from
            # the byte to their left.  Chunks run right-to-left so each read
            # sees the pre-shift contents; the loop ends at hi == lo.
            while hi > lo:
                a = max(lo, hi - _SHIFT_CHUNK)
                m = hi - a
                np.left_shift(v[a:hi], 2, out=self._s1[:m])
                np.right_shift(v[a - 1 : hi - 1], 6, out=self._s2[:m])
                np.bitwise_or(self._s1[:m], self._s2[:m], out=v[a:hi])
                hi = a
            self._buf[first] &= 0x3F  # its top slot was carried above
        # Bytes [first, hi) as one int: bits below the slot stay, the slot
        # takes the new code, the rest move up one slot.  The top slot is
        # zero (padding, or cleared above), so the result fits the bytes.
        r = (pos & 3) << 1
        x = int.from_bytes(self._buf[first:hi], "little")
        x = ((x >> r) << (r + 2)) | (code << r) | (x & ((1 << r) - 1))
        self._buf[first:hi] = x.to_bytes(hi - first, "little")
        self.length = n + 1

    def gather(self, byte, shift):
        """Codes at the packed slots `(byte, shift)` made by `slots`."""
        return (self._view()[byte] >> shift) & 3

    def count_range(self, start: int, stop: int) -> list:
        """Tallies of each code over symbol positions [start, stop)."""
        return tally(self._buf, start, stop)

    def count_code(self, code: int, start: int, stop: int) -> int:
        """Occurrences of one code over symbol positions [start, stop)."""
        return tally(self._buf, start, stop)[code]

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


def tally(data, start: int, stop: int) -> list:
    """Tallies of each code over symbol positions [start, stop) of packed
    bytes `data` (bytes, bytearray or a uint8 array); [0, 0, 0, 0] when
    the range is empty or reversed."""
    n = stop - start
    if n <= 0:
        return [0, 0, 0, 0]
    x = int.from_bytes(data[start >> 2 : (stop + 3) >> 2], "little") >> ((start & 3) << 1)
    m = (1 << (n << 1)) // 3  # a 01 bit pair per symbol in range
    lo = x & m
    hi = (x >> 1) & m
    t = (lo & hi).bit_count()
    c = lo.bit_count() - t
    g = hi.bit_count() - t
    return [n - c - g - t, c, g, t]


def slots(positions):
    """(byte index, bit shift) arrays locating each symbol position."""
    return positions >> 2, ((positions & 3) << 1).astype(np.uint8)
