"""Helpers shared by the test modules."""

from saii.alphabet import SYMBOLS


def decode_with_sentinel(bwt) -> str:
    """Readable form of a `saii.fmindex.Bwt`, e.g. 'G$AGTCTC'."""
    return "".join(
        "$" if i == bwt.dollar_pos else SYMBOLS[code] for i, code in enumerate(bwt.data.codes())
    )


def record_count_reads(monkeypatch) -> list:
    """Patch `PackedBuffer.count_code` to log the (start, stop) of each
    call into the returned list."""
    from saii.packedbuf import PackedBuffer

    reads = []
    count_code = PackedBuffer.count_code

    def logged(self, code, start, stop):
        reads.append((start, stop))
        return count_code(self, code, start, stop)

    monkeypatch.setattr(PackedBuffer, "count_code", logged)
    return reads
