"""The 2-bit symbol layout, the one type that holds packed codes, and
the leaf-blocked rope that construction inserts into.

Symbol i occupies bits [2*(i % 4), 2*(i % 4) + 2) of byte i // 4,
least-significant slot first.  Slots at indices >= length are zero by
construction (`PackedBuffer` refuses a set padding bit), so equal
buffers have equal payload bytes.  `fold` writes this layout, and
`count_range` and `count_code` read it, each inline and the same way.
`PackedBuffer` holds texts and queries (`saii.alphabet.PackedSequence`
is the same class; a text keeps immutable `bytes`), rope leaves and
the BWT (a `bytearray`, so they can take insertions).

A run of packed bytes read as one little-endian Python int holds its
codes as two bit planes: the low bit of each code at the even bit
positions, the high bit at the odd ones.  An insertion shifts the int
of the bytes from the insertion point on up by one slot.  A count
(`count_range`, or `count_code` for one code) shifts the int of the
bytes holding its range down to the range's first slot, keeps its
2 * (stop - start) low bits and splits the two planes with a 01-pair
mask, then counts each code from popcounts of the planes and the
range's length (broadword rank: Vigna, WEA 2008).  The mask is one
fixed constant of 2,048 slots (512 bytes): the longest range a count
makes at the default k = 2,048 is a checkpoint row, as a build ranks
within one leaf of at most `LEAF` = 1,024 symbols and a search counts
nothing here.  `&` truncates the mask to the data; a longer range
makes its own mask and drops it on return, so no count leaves memory
behind.  `Rope` keeps that shift inside one leaf of at most `LEAF`
symbols, and finds and ranks a position in O(log(n / LEAF)) steps with
Fenwick trees over its leaves (the ropebwt2 layout: Li, Bioinformatics
2014; Fenwick, Software: Practice and Experience 1994); its one flatten
folds the leaves into one int, so even a lone leaf becomes a new, exact
buffer.
"""

from __future__ import annotations

from .errors import InvalidCharacter

LEAF = 1024  # most symbols a rope leaf holds; a multiple of 8
CHUNK = 128  # most code bytes `fold` packs in one big-int pass; a multiple of 4
BAD = 4  # the code byte of a character or code outside 0..3
_PAIR_SLOTS = 2048  # a checkpoint row at the default k; leaves are shorter
_PAIRS = ((1 << (_PAIR_SLOTS << 1)) - 1) // 3  # a 01 bit pair per slot


class PackedBuffer:
    """2-bit codes in exactly ceil(length / 4) bytes; a `bytearray`-backed
    buffer takes insertions and writes anywhere."""

    __slots__ = ("_buf", "length")

    def __init__(self, data, length: int):
        """Buffer of the `length` codes packed in `data` (bytes or a
        bytearray), which it takes over.  ValueError unless `data` is
        exactly ceil(length / 4) bytes with its padding bits zero."""
        if length < 0 or len(data) != (length + 3) >> 2:
            raise ValueError(
                f"payload is {len(data)} bytes, expected {(length + 3) >> 2} for {length} symbols"
            )
        if length & 3 and data[-1] >> ((length & 3) << 1):
            raise ValueError("padding bits past the last symbol are set")
        self._buf = data
        self.length = length

    @classmethod
    def from_codes(cls, codes) -> "PackedBuffer":
        """Buffer of the int `codes`; InvalidCharacter at the first outside 0..3."""
        data = bytes(c if 0 <= c <= 3 else BAD for c in codes)
        if (bad := data.find(BAD)) >= 0:
            raise InvalidCharacter(bad, codes[bad])
        return cls(bytearray().join(fold(data[i : i + CHUNK]) for i in range(0, len(data), CHUNK)), len(data))

    def code_at(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self._buf[i >> 2] >> ((i & 3) << 1)) & 3

    def set(self, i: int, code: int) -> None:
        if not 0 <= i < self.length:
            raise IndexError(i)
        b = i >> 2
        shift = (i & 3) << 1
        self._buf[b] = (self._buf[b] & ~(3 << shift) & 0xFF) | (code << shift)

    def insert(self, pos: int, code: int) -> None:
        """Insert `code` at symbol position `pos`, shifting the tail up;
        the buffer grows by a byte when its last one was full."""
        n = self.length
        if not 0 <= pos <= n:
            raise IndexError(f"insert position {pos} outside [0, {n}]")
        first = pos >> 2
        hi = (n + 4) >> 2  # bytes occupied once length becomes n + 1
        # bytes [first, hi) as one int: bits below the slot stay, the slot
        # takes the new code, the rest move up; a slice one byte short of
        # hi (the last byte was full) grows the buffer by that byte
        r = (pos & 3) << 1
        x = int.from_bytes(self._buf[first:hi], "little")
        x = ((x >> r) << (r + 2)) | (code << r) | (x & ((1 << r) - 1))
        self._buf[first:hi] = x.to_bytes(hi - first, "little")
        self.length = n + 1

    def count_range(self, start: int, stop: int) -> list:
        """Tallies of each code over symbol positions [start, stop);
        [0, 0, 0, 0] when the range is empty or reversed."""
        if stop <= start:
            return [0, 0, 0, 0]
        # no local holds a length: ints above 256 are allocated, and one
        # held across the planes would add to the allocation peak of every
        # count; the range int x is released before both planes are live,
        # so a count holds at most three range-sized ints at once
        x = int.from_bytes(self._buf[start >> 2 : (stop + 3) >> 2], "little") >> ((start & 3) << 1)
        x &= (1 << ((stop - start) << 1)) - 1
        pairs = _PAIRS if stop - start <= _PAIR_SLOTS else ((1 << ((stop - start) << 1)) - 1) // 3
        high = (x >> 1) & pairs
        x &= pairs  # the low plane; the range int is released
        t = (x & high).bit_count()
        c = x.bit_count() - t
        g = high.bit_count() - t
        return [stop - start - c - g - t, c, g, t]

    def count_code(self, code: int, start: int, stop: int) -> int:
        """Occurrences of one code over symbol positions [start, stop);
        0 when the range is empty or reversed."""
        if stop <= start:
            return 0
        # the planes as in `count_range`
        x = int.from_bytes(self._buf[start >> 2 : (stop + 3) >> 2], "little") >> ((start & 3) << 1)
        x &= (1 << ((stop - start) << 1)) - 1
        pairs = _PAIRS if stop - start <= _PAIR_SLOTS else ((1 << ((stop - start) << 1)) - 1) // 3
        if code == 3:
            return (x & (x >> 1) & pairs).bit_count()
        if code == 0:
            return stop - start - ((x | (x >> 1)) & pairs).bit_count()
        high = (x >> 1) & pairs
        x &= pairs  # the low plane; the range int is released
        return (high if code >> 1 else x).bit_count() - (x & high).bit_count()

    def payload(self) -> bytes:
        """The packed bytes holding symbols [0, length)."""
        return bytes(self._buf)

    def codes(self) -> list:
        buf = self._buf
        return [(buf[i >> 2] >> ((i & 3) << 1)) & 3 for i in range(self.length)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedBuffer):
            return NotImplemented
        return self.length == other.length and self._buf == other._buf

    def __repr__(self) -> str:
        return f"PackedBuffer(length={self.length})"


class Rope:
    """Codes in `PackedBuffer` leaves of at most `LEAF` symbols.  Fenwick
    trees `_trees[c]` sum code c per leaf, `_trees[4]` the leaf lengths.
    A full leaf splits at its middle byte into two exact halves, so after
    a split every leaf is at least half full."""

    __slots__ = ("leaves", "length", "_trees", "_steps")

    def __init__(self, first: PackedBuffer):
        self.leaves, self.length = [first], first.length
        self._trees = [[0, t] for t in first.count_range(0, first.length) + [first.length]]
        self._steps = ()  # powers of two <= len(leaves) - 1, largest first

    def locate(self, p: int, code: int) -> tuple:
        """(leaf index, offset in it, count of `code` in the leaves before it)
        of position p in [0, length], in one descent; a leaf boundary lands
        at the start of the later leaf, p == length at the end of the last."""
        j = before = 0
        if self._steps:
            sizes, counts, last = self._trees[4], self._trees[code], len(self.leaves) - 1
            for step in self._steps:
                i = j + step
                if i <= last and (size := sizes[i]) <= p:
                    j, p, before = i, p - size, before + counts[i]
        return j, p, before

    def insert(self, j: int, off: int, code: int) -> None:
        """Insert `code` at offset `off` of leaf j, splitting it first if full."""
        leaf = self.leaves[j]
        if leaf.length == LEAF:
            half, mid = LEAF >> 1, LEAF >> 3
            right = PackedBuffer(leaf._buf[mid:], half)
            leaf._buf[mid:], leaf.length = b"", half
            self.leaves.insert(j + 1, right)
            for tree, value in zip(self._trees, leaf.count_range(0, half) + [half]):
                _split_node(tree, j + 1, value)
            self._steps = tuple(1 << b for b in reversed(range((len(self.leaves) - 1).bit_length())))
            if off > half:
                j, off, leaf = j + 1, off - half, right
        leaf.insert(off, code)
        self.length += 1
        sizes, counts, m = self._trees[4], self._trees[code], len(self.leaves)
        j += 1
        while j <= m:
            sizes[j] += 1
            counts[j] += 1
            j += j & -j

    def set(self, j: int, off: int, old: int, code: int) -> None:
        """Overwrite the symbol `old` at offset `off` of leaf j with `code`."""
        self.leaves[j].set(off, code)
        gained, lost, m = self._trees[code], self._trees[old], len(self.leaves)
        j += 1
        while j <= m:
            gained[j] += 1
            lost[j] -= 1
            j += j & -j

    def flatten(self) -> PackedBuffer:
        """The codes as one exact `PackedBuffer`, made once: leaves are
        popped from the end and folded into one int below the ones after
        them, each released as it goes in.  A second call raises."""
        leaves, n = self.leaves, self.length
        if not leaves:
            raise RuntimeError("rope already flattened")
        self._trees = None
        x = 0
        while leaves:
            leaf = leaves.pop()
            x = x << (leaf.length << 1) | int.from_bytes(leaf._buf, "little")
        return PackedBuffer(bytearray(x.to_bytes((n + 3) >> 2, "little")), n)


def _split_node(tree: list, i: int, left: int) -> None:
    """Rebuild Fenwick `tree` with leaf i split into `left` and the rest."""
    m = len(tree) - 1
    for node in range(m, 0, -1):  # node sums back to leaf values
        if (up := node + (node & -node)) <= m:
            tree[up] -= tree[node]
    tree[i : i + 1] = [left, tree[i] - left]
    for node in range(1, m + 2):
        if (up := node + (node & -node)) <= m + 1:
            tree[up] += tree[node]


def fold(codes: bytes) -> bytes:
    """The packed bytes of at most `CHUNK` code bytes, each 0..3.  Read
    as one little-endian int, the codes fold into 2-bit slots with two
    shifts, each moving every other code (then pair of codes) down next
    to the one below it, so that every fourth byte is a packed byte."""
    x = int.from_bytes(codes, "little")
    x |= x >> 6
    x |= x >> 12
    return x.to_bytes(len(codes), "little")[::4]
