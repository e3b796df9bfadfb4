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
from .packedbuf import BAD, CHUNK, PackedBuffer, fold

A = 0
SYMBOLS = "ACGT"


def _code_table(other: int) -> bytes:
    """A `bytes.translate` table from ASCII to code bytes, case folded;
    every other byte becomes `other`."""
    table = bytearray([other]) * 256
    for code, ch in enumerate(SYMBOLS):
        table[ord(ch)] = table[ord(ch.lower())] = code
    return bytes(table)


_STRICT, _SUBSTITUTE = _code_table(BAD), _code_table(A)

PackedSequence = PackedBuffer  # the public name for texts; packedbuf names the same class


def encode_text(text: str, substitute: bool = False) -> PackedSequence:
    """Pack an ACGT string (case folded).

    Characters outside ACGT raise InvalidCharacter unless `substitute`
    is set, in which case they become A.  The text is packed `CHUNK`
    characters at a time, so the work space does not grow with it: a
    chunk becomes one code byte per character (a non-ASCII character
    becomes one "?", so positions hold), and `saii.packedbuf.fold`
    packs those bytes into the chunk's slice of the output.
    """
    if not text:
        raise EmptyText("cannot encode an empty text")
    table = _SUBSTITUTE if substitute else _STRICT
    out = bytearray((len(text) + 3) // 4)
    for start in range(0, len(text), CHUNK):
        codes = text[start : start + CHUNK].encode("ascii", "replace").translate(table)
        if (bad := codes.find(BAD)) >= 0:
            raise InvalidCharacter(start + bad, text[start + bad])
        out[start // 4 : (start + CHUNK) // 4] = fold(codes)
    return PackedSequence(bytes(out), len(text))


def decode(seq: PackedSequence) -> str:
    """Inverse of encode_text for every valid input."""
    return "".join([SYMBOLS[c] for c in seq.codes()])
