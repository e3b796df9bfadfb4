"""Helpers shared by the test modules."""

from saii.alphabet import SYMBOLS


def decode_with_sentinel(bwt) -> str:
    """Readable form of a `saii.fmindex.Bwt`, e.g. 'G$AGTCTC'."""
    return "".join(
        "$" if i == bwt.dollar_pos else SYMBOLS[code] for i, code in enumerate(bwt.data.codes())
    )
