"""Helpers shared by the test modules."""

import tracemalloc

from saii.alphabet import SYMBOLS


def decode_with_sentinel(bwt) -> str:
    """Readable form of a `saii.fmindex.Bwt`, e.g. 'G$AGTCTC'."""
    return "".join(
        "$" if i == bwt.dollar_pos else SYMBOLS[code] for i, code in enumerate(bwt.data.codes())
    )


def record_count_reads(monkeypatch) -> list:
    """Patch `PackedBuffer.count_range` and `PackedBuffer.count_code`,
    the two count kernels, to log the (start, stop) of each call into
    the returned list."""
    from saii.packedbuf import PackedBuffer

    reads = []
    count_range, count_code = PackedBuffer.count_range, PackedBuffer.count_code

    def logged_range(self, start, stop):
        reads.append((start, stop))
        return count_range(self, start, stop)

    def logged_code(self, code, start, stop):
        reads.append((start, stop))
        return count_code(self, code, start, stop)

    monkeypatch.setattr(PackedBuffer, "count_range", logged_range)
    monkeypatch.setattr(PackedBuffer, "count_code", logged_code)
    return reads


def traced(call) -> tuple:
    """(call(), bytes traced as still held once it returns, peak bytes
    traced while it ran), both counted from where tracing began."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before
