"""Finished BWT string with the sentinel kept as a position.

The sentinel is not a fifth symbol: its slot stores code A and
`dollar_pos` remembers where it lives.  Occurrence counting for A must
therefore exclude `dollar_pos`, which `saii.occtable` takes care of.
`saii.construct` makes a `Bwt` from its flattened rope as a build ends.
"""

from __future__ import annotations

from .alphabet import SYMBOLS
from .packedbuf import PackedBuffer


class Bwt:
    __slots__ = ("data", "dollar_pos")

    def __init__(self, data: PackedBuffer, dollar_pos: int):
        self.data = data
        self.dollar_pos = dollar_pos

    @classmethod
    def from_codes(cls, codes, dollar_pos: int) -> "Bwt":
        return cls(PackedBuffer.from_codes(codes), dollar_pos)

    def code_at(self, i: int) -> int:
        """Raw 2-bit code at position i (the sentinel slot reads as A)."""
        return self.data.get(i)

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
