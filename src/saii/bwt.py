"""Insertable BWT string with the sentinel kept as a position.

The sentinel is not a fifth symbol: its slot stores code A and
`dollar_pos` remembers where it lives.  Occurrence counting for A must
therefore exclude `dollar_pos`, which `saii.occtable` takes care of.
`dollar_pos` is None while the incremental constructor has the sentinel
pending: inside a standard step, and between prefetch steps.
"""

from __future__ import annotations

from .alphabet import A, SYMBOLS
from .packedbuf import PackedBuffer


class Bwt:
    __slots__ = ("data", "dollar_pos")

    def __init__(self, data: PackedBuffer | None = None, dollar_pos: int | None = None, reserve: int = 0):
        self.data = data if data is not None else PackedBuffer(reserve=reserve)
        self.dollar_pos = dollar_pos

    @classmethod
    def from_codes(cls, codes, dollar_pos: int) -> "Bwt":
        return cls(PackedBuffer.from_codes(codes), dollar_pos)

    def __len__(self) -> int:
        return self.data.length

    def code_at(self, i: int) -> int:
        """Raw 2-bit code at position i (the sentinel slot reads as A)."""
        return self.data.get(i)

    def overwrite(self, pos: int, code: int) -> None:
        self.data.set(pos, code)
        if pos == self.dollar_pos:
            self.dollar_pos = None

    def insert_symbol(self, pos: int, code: int) -> None:
        self.data.insert(pos, code)
        if self.dollar_pos is not None and self.dollar_pos >= pos:
            self.dollar_pos += 1

    def insert_sentinel(self, pos: int) -> None:
        self.data.insert(pos, A)
        self.dollar_pos = pos

    def decode_with_sentinel(self) -> str:
        """Readable form, e.g. 'G$AGTCTC'."""
        out = []
        for i in range(self.data.length):
            out.append("$" if i == self.dollar_pos else SYMBOLS[self.data.get(i)])
        return "".join(out)

    def payload(self) -> bytes:
        return self.data.payload()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bwt):
            return NotImplemented
        return (
            self.data.length == other.data.length
            and self.dollar_pos == other.dollar_pos
            and self.payload() == other.payload()
        )

    def __repr__(self) -> str:
        if self.data.length <= 40:
            return f"Bwt({self.decode_with_sentinel()!r})"
        return f"Bwt(length={self.data.length}, dollar_pos={self.dollar_pos})"
