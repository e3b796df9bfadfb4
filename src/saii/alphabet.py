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
from .packedbuf import PackedBuffer, pack

A, C, G, T = 0, 1, 2, 3
SYMBOLS = "ACGT"

_CODE_OF = {}
for _i, _ch in enumerate(SYMBOLS):
    _CODE_OF[_ch] = _i
    _CODE_OF[_ch.lower()] = _i

PackedSequence = PackedBuffer  # the public name for texts; packedbuf names the same class


def encode_text(text: str, substitute: bool = False) -> PackedSequence:
    """Pack an ACGT string (case folded).

    Characters outside ACGT raise InvalidCharacter unless `substitute`
    is set, in which case they become A.
    """
    if not text:
        raise EmptyText("cannot encode an empty text")
    lookup = (lambda ch: _CODE_OF.get(ch, A)) if substitute else _CODE_OF.__getitem__
    try:
        return PackedSequence(bytes(pack(map(lookup, text), len(text))), len(text))
    except KeyError:
        i = next(i for i, ch in enumerate(text) if ch not in _CODE_OF)
        raise InvalidCharacter(i, text[i]) from None


def decode(seq: PackedSequence) -> str:
    """Inverse of encode_text for every valid input."""
    return "".join([SYMBOLS[c] for c in seq.codes()])
