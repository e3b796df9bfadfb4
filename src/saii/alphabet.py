"""DNA symbol codec: A,C,G,T as the 2-bit codes 0..3.

Code order equals lexical order, so comparing code sequences compares
the source strings.  The end-of-string sentinel is never encoded here;
it exists only as a position (see `saii.bwt.Bwt.dollar_pos`).
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyText, InvalidCharacter
from .packedbuf import code_at, pack, tally, unpack

A, C, G, T = 0, 1, 2, 3
SYMBOLS = "ACGT"
N_SYMBOLS = 4

_CODE_OF = {}
for _i, _ch in enumerate(SYMBOLS):
    _CODE_OF[_ch] = _i
    _CODE_OF[_ch.lower()] = _i


class PackedSequence:
    """Immutable ACGT text packed at 2 bits per symbol.

    `data` holds exactly ceil(len/4) bytes, least-significant slot
    first; unused slots in the last byte are zero.
    """

    __slots__ = ("data", "length")

    def __init__(self, data: bytes, length: int):
        if len(data) != (length + 3) >> 2:
            raise ValueError(
                f"payload is {len(data)} bytes, expected {(length + 3) >> 2} for {length} symbols"
            )
        self.data = bytes(data)
        self.length = length

    @classmethod
    def from_codes(cls, codes) -> "PackedSequence":
        return cls(pack(codes, len(codes)), len(codes))

    def __len__(self) -> int:
        return self.length

    def code_at(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return code_at(self.data, i)

    def codes(self) -> list:
        return unpack(self.data, self.length)

    def suffix(self, start: int) -> "PackedSequence":
        return PackedSequence.from_codes(self.codes()[start:])

    def tally(self) -> list:
        """Per-code symbol counts."""
        return tally(np.frombuffer(self.data, dtype=np.uint8), 0, self.length)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedSequence):
            return NotImplemented
        return self.length == other.length and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.data, self.length))

    def __lt__(self, other: "PackedSequence") -> bool:
        return self.codes() < other.codes()

    def __repr__(self) -> str:
        shown = decode(self) if self.length <= 32 else decode(self)[:29] + "..."
        return f"PackedSequence({shown!r})"


def encode_text(text: str, substitute: bool = False) -> PackedSequence:
    """Pack an ACGT string (case folded).

    Characters outside ACGT raise InvalidCharacter unless `substitute`
    is set, in which case they become A.
    """
    if not text:
        raise EmptyText("cannot encode an empty text")
    lookup = (lambda ch: _CODE_OF.get(ch, A)) if substitute else _CODE_OF.__getitem__
    try:
        return PackedSequence(pack(map(lookup, text), len(text)), len(text))
    except KeyError:
        i = next(i for i, ch in enumerate(text) if ch not in _CODE_OF)
        raise InvalidCharacter(i, text[i]) from None


def decode(seq: PackedSequence) -> str:
    """Inverse of encode_text for every valid input."""
    return "".join([SYMBOLS[c] for c in seq.codes()])
