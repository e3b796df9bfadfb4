"""The 2-bit symbol layout and the one type that holds packed codes.

Symbol i occupies bits [2*(i % 4), 2*(i % 4) + 2) of byte i // 4,
least-significant slot first: read as one little-endian Python int,
bits [2i, 2i + 2).  Slots at indices >= length are zero by
construction (`PackedBuffer` refuses a set padding bit), so equal
buffers have equal payloads.  `fold` writes this layout.  A
`PackedBuffer` holds texts, queries and finished BWTs in `bytes`
(`saii.alphabet.PackedSequence` is the same class), and each leaf that
construction inserts into (`saii.construct`) as that one int: only a
leaf takes `insert`, so no finished buffer ever changes.  Both read
alike: `slots` reads any range of either as one int, and the counts
read through it; `code_at`, which a search calls on about 40 % of its
steps, reads its one slot inline, and `codes` decodes `payload`.  A
build reads its text, and a search its query, in place from `payload`,
last symbol first, through neither `slots` nor `codes`.

An insertion into a leaf is a shift, a mask and an OR: the bits below
the slot stay, the slot takes the code and the rest move up a slot.  A
count (`count_range`, or `count_code` for one code) splits the two bit
planes of its range's slots (the low bit of each code at the even bit
positions, the high bit at the odd ones) with a 01-pair mask, then
counts each code from popcounts of the planes and the range's length
(broadword rank: Vigna, WEA 2008).  The mask is one fixed constant of
2,048 slots (512 bytes): the longest range a count makes at the
default k = 2,048 is a checkpoint row, as a build ranks within one
leaf of at most `LEAF` = 1,024 symbols and a search counts nothing
here.  `&` truncates the mask to the data; a longer range makes its
own mask and drops it on return, so no count leaves memory behind.
"""

from __future__ import annotations

from .errors import InvalidCharacter

LEAF = 1024  # most symbols a construction leaf holds; a multiple of 8
CHUNK = 128  # most code bytes `fold` packs in one big-int pass; a multiple of 4
BAD = 4  # the code byte of a character or code outside 0..3
_PAIR_SLOTS = 2048  # a checkpoint row at the default k; leaves are shorter
_PAIRS = ((1 << (_PAIR_SLOTS << 1)) - 1) // 3  # a 01 bit pair per slot


class PackedBuffer:
    """2-bit codes: `bytes` of exactly ceil(length / 4) bytes when
    finished, one int (which takes insertions) in a construction leaf."""

    __slots__ = ("_buf", "length")

    def __init__(self, data, length: int):
        """Buffer of the `length` codes packed in `data`, which it takes
        over: `bytes` of exactly ceil(length / 4) bytes, or an int.
        ValueError if a bit past the last symbol is set (every high bit of
        a negative int is); TypeError for any other type."""
        if type(data) is int:
            if data < 0 or data.bit_length() > length << 1:
                raise ValueError("padding bits past the last symbol are set")
        elif type(data) is not bytes:
            raise TypeError(f"packed codes are bytes or an int, not {type(data).__name__}")
        elif length < 0 or len(data) != (length + 3) >> 2:
            raise ValueError(
                f"payload is {len(data)} bytes, expected {(length + 3) >> 2} for {length} symbols"
            )
        elif length & 3 and data[-1] >> ((length & 3) << 1):
            raise ValueError("padding bits past the last symbol are set")
        self._buf = data
        self.length = length

    @classmethod
    def from_codes(cls, codes) -> "PackedBuffer":
        """Buffer of the int `codes`; InvalidCharacter at the first outside 0..3."""
        data = bytes(c if 0 <= c <= 3 else BAD for c in codes)
        if (bad := data.find(BAD)) >= 0:
            raise InvalidCharacter(bad, codes[bad])
        return cls(b"".join(fold(data[i : i + CHUNK]) for i in range(0, len(data), CHUNK)), len(data))

    def slots(self, start: int, stop: int) -> int:
        """The codes at positions [start, stop) as one int of the layout:
        position start in bits 0-1.  IndexError unless 0 <= start <= stop
        <= length."""
        if not 0 <= start <= stop <= self.length:
            raise IndexError(f"slots [{start}, {stop}) outside [0, {self.length}]")
        buf = self._buf
        if type(buf) is int:
            x = buf >> (start << 1)
        else:
            x = int.from_bytes(buf[start >> 2 : (stop + 3) >> 2], "little") >> ((start & 3) << 1)
        return x & ((1 << ((stop - start) << 1)) - 1)

    def code_at(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        buf = self._buf
        return (buf >> (i << 1) if type(buf) is int else buf[i >> 2] >> ((i & 3) << 1)) & 3

    def insert(self, pos: int, code: int) -> None:
        """Insert `code` at symbol position `pos`, shifting the tail up.
        TypeError on `bytes`; IndexError, or ValueError for a code
        outside 0..3, before any write."""
        n = self.length
        if not 0 <= pos <= n:
            raise IndexError(f"insert position {pos} outside [0, {n}]")
        if code >> 2:
            raise ValueError(f"code {code} outside 0..3")
        x, r = self._buf, pos << 1
        self._buf = ((x >> r << 2 | code) << r) | (x & ((1 << r) - 1))
        self.length = n + 1

    def count_range(self, start: int, stop: int) -> list:
        """Tallies of each code over symbol positions [start, stop);
        [0, 0, 0, 0] when the range is empty or reversed, IndexError when
        it reaches outside the buffer."""
        if stop <= start:
            return [0, 0, 0, 0]
        # no local holds a length: ints above 256 are allocated, and one
        # held across the planes would add to the allocation peak of every
        # count; the range int x is released before both planes are live,
        # so a count holds at most three range-sized ints at once
        x = self.slots(start, stop)
        pairs = _PAIRS if stop - start <= _PAIR_SLOTS else ((1 << ((stop - start) << 1)) - 1) // 3
        high = (x >> 1) & pairs
        x &= pairs  # the low plane; the range int is released
        t = (x & high).bit_count()
        c = x.bit_count() - t
        g = high.bit_count() - t
        return [stop - start - c - g - t, c, g, t]

    def count_code(self, code: int, start: int, stop: int) -> int:
        """Occurrences of one code over symbol positions [start, stop);
        0 when the range is empty or reversed, IndexError when it reaches
        outside the buffer; ValueError for a code outside 0..3."""
        if code >> 2:
            raise ValueError(f"code {code} outside 0..3")
        if stop <= start:
            return 0
        # the planes as in `count_range`
        x = self.slots(start, stop)
        pairs = _PAIRS if stop - start <= _PAIR_SLOTS else ((1 << ((stop - start) << 1)) - 1) // 3
        if code == 3:
            return (x & (x >> 1) & pairs).bit_count()
        if code == 0:
            return stop - start - ((x | (x >> 1)) & pairs).bit_count()
        high = (x >> 1) & pairs
        x &= pairs  # the low plane; the range int is released
        return (high if code >> 1 else x).bit_count() - (x & high).bit_count()

    def payload(self) -> bytes:
        """The packed bytes of symbols [0, length); a finished buffer's own."""
        buf = self._buf
        return buf.to_bytes((self.length + 3) >> 2, "little") if type(buf) is int else buf

    def codes(self) -> list:
        buf = self.payload()
        return [(buf[i >> 2] >> ((i & 3) << 1)) & 3 for i in range(self.length)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedBuffer):
            return NotImplemented
        return self.length == other.length and self.payload() == other.payload()

    def __repr__(self) -> str:
        return f"PackedBuffer(length={self.length})"


def fold(codes: bytes) -> bytes:
    """The packed bytes of at most `CHUNK` code bytes, each 0..3.  Read
    as one little-endian int, the codes fold into 2-bit slots with two
    shifts, each moving every other code (then pair of codes) down next
    to the one below it, so that every fourth byte is a packed byte."""
    x = int.from_bytes(codes, "little")
    x |= x >> 6
    x |= x >> 12
    return x.to_bytes(len(codes), "little")[::4]
