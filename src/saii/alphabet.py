"""DNA symbol codec: A,C,G,T as the 2-bit codes 0..3, and texts packed
with them.

Code order equals lexical order, so comparing code sequences compares
the source strings.  A text is a `PackedSequence`, which is the
package's one packed-code type `saii.packedbuf.PackedBuffer`;
`encode_text` backs it with immutable `bytes`.  The end-of-string
sentinel is never encoded here; it exists only as a position (see
`saii.fmindex.Bwt.dollar_pos`).
"""

from __future__ import annotations

from .errors import EmptyText, InvalidCharacter
from .packedbuf import PackedBuffer

A, C, G, T = 0, 1, 2, 3
SYMBOLS = "ACGT"

_CHUNK = 128  # characters packed per big-int pass; a multiple of 4
_BAD = 4  # the code byte of a character outside ACGT


def _code_table(other: int) -> bytes:
    """A `bytes.translate` table from ASCII to code bytes, case folded;
    every other byte becomes `other`."""
    table = bytearray([other]) * 256
    for code, ch in enumerate(SYMBOLS):
        table[ord(ch)] = table[ord(ch.lower())] = code
    return bytes(table)


_STRICT, _SUBSTITUTE = _code_table(_BAD), _code_table(A)

PackedSequence = PackedBuffer  # the public name for texts; packedbuf names the same class


def encode_text(text: str, substitute: bool = False) -> PackedSequence:
    """Pack an ACGT string (case folded).

    Characters outside ACGT raise InvalidCharacter unless `substitute`
    is set, in which case they become A.  The text is packed `_CHUNK`
    characters at a time, so the work space does not grow with it: a
    chunk becomes one code byte per character (a non-ASCII character
    becomes one "?", so positions hold), and those bytes, read as one
    little-endian int, fold into 2-bit slots with two shifts, each
    moving every other code (then pair of codes) down next to the one
    below it, so that every fourth byte is a packed byte.
    """
    if not text:
        raise EmptyText("cannot encode an empty text")
    table = _SUBSTITUTE if substitute else _STRICT
    out = bytearray((len(text) + 3) >> 2)
    for start in range(0, len(text), _CHUNK):
        codes = text[start : start + _CHUNK].encode("ascii", "replace").translate(table)
        if (bad := codes.find(_BAD)) >= 0:
            raise InvalidCharacter(start + bad, text[start + bad])
        x = int.from_bytes(codes, "little")
        x |= x >> 6
        x |= x >> 12
        out[start >> 2 : (start + _CHUNK) >> 2] = x.to_bytes(len(codes), "little")[::4]
    return PackedSequence(bytes(out), len(text))


def decode(seq: PackedSequence) -> str:
    """Inverse of encode_text for every valid input."""
    return "".join([SYMBOLS[c] for c in seq.codes()])
