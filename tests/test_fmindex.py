import dataclasses
import itertools
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saii import construct, fmindex, oracle
from saii.alphabet import PackedSequence, decode, encode_text
from saii.errors import EmptyText, IndexOutOfRange
from saii.fmindex import (
    Bwt,
    CArray,
    SearchRange,
    backward_extend,
    count,
    first_mismatch,
    occ_query,
    search,
)
from saii.occtable import SampledOccTable
from saii.packedbuf import PackedBuffer
from saii.serialize import dumps_index, loads_index

from helpers import full_occ_table, naive_count, record_count_reads, sorted_suffixes

texts = st.lists(st.integers(0, 3), min_size=1, max_size=64).map(PackedSequence.from_codes)


def built_c(text: PackedSequence) -> tuple:
    """C as a build keeps it, step by step; it must equal the oracle's tally."""
    counts = construct.build(text, k=4).c.counts
    assert counts == oracle.full_index(text, k=4).c.counts
    return counts


def test_c_array_examples():
    assert built_c(encode_text("ACGCTTG")) == (0, 1, 3, 5)
    assert built_c(encode_text("AAAA")) == (0, 4, 4, 4)
    assert built_c(encode_text("T")) == (0, 0, 0, 0)


def test_c_array_invariants():
    rng = random.Random(9)
    for _ in range(100):
        codes = [rng.randrange(4) for _ in range(rng.randint(1, 100))]
        c = built_c(PackedSequence.from_codes(codes))
        assert c[0] == 0
        assert all(c[a] <= c[a + 1] for a in range(3))
        assert c[3] <= len(codes)


def test_occ_query_examples():
    index = oracle.full_index(encode_text("ACGCTTG"), k=4)
    C = 1
    assert occ_query(index, C, 5) == 1
    assert occ_query(index, C, 7) == 2
    for a in range(4):
        assert occ_query(index, a, -1) == 0
    with pytest.raises(IndexOutOfRange):
        occ_query(index, C, 8)
    for code in (-1, 4):  # not codes; as a list index -1 is the T column
        with pytest.raises(IndexOutOfRange):
            occ_query(index, code, index.n - 1)


def test_occ_row_total_counts_every_position_once():
    rng = random.Random(10)
    for _ in range(50):
        codes = [rng.randrange(4) for _ in range(rng.randint(1, 80))]
        index = oracle.full_index(PackedSequence.from_codes(codes), k=4)
        total = sum(occ_query(index, a, index.n - 1) for a in range(4))
        assert total == index.n - 1


def test_backward_extend_worked_example():
    index = oracle.full_index(encode_text("ACGCTTG"), k=4)
    rng = backward_extend(index, SearchRange(0, index.n - 1), 3)  # T
    assert (rng.low, rng.high) == (6, 7)
    rng = backward_extend(index, rng, 1)  # C -> "CT"
    assert (rng.low, rng.high) == (3, 3)
    missed = backward_extend(index, SearchRange(6, 7), 0)  # A -> "AT"
    assert missed.low > missed.high


def test_backward_extend_is_the_two_count_recurrence():
    # every range 0 <= low <= n, -1 <= high <= n - 1, empty ones and
    # high < low - 1 included, against (C + O(low - 1) + 1, C + O(high))
    rng = random.Random(12)
    dollar_steps = wide_gaps = 0
    for length in (1, 2, 3, 4, 5, 7, 9, 17, 33, 64, 130):
        text = PackedSequence.from_codes([rng.randrange(4) for _ in range(length)])
        for k in (1, 3, 4, 7, 64, 2048):
            index = oracle.full_index(text, k=k)
            n, counts = index.n, index.c.counts
            occ = [[occ_query(index, c, i) for i in range(-1, n)] for c in range(4)]
            for low in range(n + 1):
                for high in range(-1, n):
                    dollar_steps += low <= index.bwt.dollar_pos <= high
                    wide_gaps += high < low - 1
                    for c in range(4):
                        expected = (counts[c] + occ[c][low] + 1, counts[c] + occ[c][high + 1])
                        got = backward_extend(index, SearchRange(low, high), c)
                        assert (got.low, got.high) == expected, (length, k, low, high, c)
    assert dollar_steps and wide_gaps


def test_backward_extend_rejects_steps_outside_the_index():
    # just outside the domain the recurrence test sweeps: code -1 read
    # the T column as a list index and gave (11, 14), code 4 a bare
    # IndexError
    index = construct.build(encode_text("ACGCTTGACGTTAG"), k=4)
    n = index.n
    bad = [((0, n - 1), c) for c in (-1, 4)]
    bad += [((low, n - 1), 0) for low in (-1, n + 1)]
    bad += [((0, high), 0) for high in (-2, n)]
    for (low, high), code in bad:
        with pytest.raises(IndexOutOfRange):
            backward_extend(index, SearchRange(low, high), code)


@pytest.fixture
def occ_calls(monkeypatch):
    """A one-item list counting the occ_count calls fmindex makes."""
    calls = [0]
    occ_count = fmindex.occ_count

    def counted(*args):
        calls[0] += 1
        return occ_count(*args)

    monkeypatch.setattr(fmindex, "occ_count", counted)
    return calls


@pytest.fixture(scope="module")
def ref_queries():
    """A 32,768-bp index at k = 2,048 and 200 queries of 16-64 bp, half
    substrings and half random."""
    rng = random.Random(21)
    codes = [rng.randrange(4) for _ in range(32_768)]
    index = construct.build(PackedSequence.from_codes(codes), k=2048)
    queries = []
    for i in range(200):
        m = rng.randint(16, 64)
        if i % 2 == 0:
            start = rng.randrange(len(codes) - m + 1)
            queries.append(codes[start : start + m])
        else:
            queries.append([rng.randrange(4) for _ in range(m)])
    return index, queries


def test_search_one_occ_count_per_step(occ_calls, ref_queries):
    # a step makes one count from an empty or one-row interval and two
    # from any other, and search makes exactly the counts of its steps
    index, queries = ref_queries
    steps = empty_steps = 0
    for q in queries:
        occ_calls[0] = 0
        found = search(index, PackedSequence.from_codes(q))
        in_search, occ_calls[0] = occ_calls[0], 0
        steps += len(q)
        # the same steps one at a time, as backward_extend takes them
        interval = SearchRange(0, index.n - 1)
        for code in reversed(q):
            before, width = occ_calls[0], interval.high - interval.low
            interval = backward_extend(index, interval, code)
            assert occ_calls[0] - before == (1 if width <= 0 else 2), (q, width)
            empty_steps += width == -1
        assert interval == found
        assert in_search == occ_calls[0], q
    assert empty_steps > steps // 4


def test_search_reads_no_bwt_symbols(ref_queries, monkeypatch):
    # every count reads the rank directory, so no step scans the BWT
    index, queries = ref_queries
    reads = record_count_reads(monkeypatch)
    for q in queries:
        search(index, PackedSequence.from_codes(q))
    assert reads == []


def test_search_reads_query_codes_in_place(ref_queries, monkeypatch):
    # the query's codes come straight from its payload: no decoded list
    # and no slot read, with the same intervals as before the patch
    index, queries = ref_queries
    packed = [PackedSequence.from_codes(q) for q in queries]
    expected = [search(index, q) for q in packed]

    def refused(*args):
        raise AssertionError("search read a query through a call")

    monkeypatch.setattr(PackedBuffer, "slots", refused)
    monkeypatch.setattr(PackedBuffer, "codes", refused)
    assert [search(index, q) for q in packed] == expected


def test_one_row_step_reads_its_symbol(monkeypatch):
    # a one-row interval takes its new high from the row's own symbol,
    # with no scan, and the one occ_count reads the rank directory;
    # the sentinel's row matches no code
    index = oracle.full_index(encode_text("ACGCTTGACGTTAG"), k=4)
    occ = full_occ_table(index.bwt)
    reads = record_count_reads(monkeypatch)
    for row in range(index.n):
        for c in range(4):
            calls = len(reads)
            got = backward_extend(index, SearchRange(row, row), c)
            assert len(reads) == calls
            hit = row != index.bwt.dollar_pos and index.bwt.data.code_at(row) == c
            assert got.high - got.low + 1 == hit
            assert got.high == index.c.counts[c] + int(occ[row][c])


def test_count_examples():
    index = oracle.full_index(encode_text("ACGCTTG"), k=4)
    assert count(index, encode_text("CT")) == 1
    assert count(index, encode_text("TT")) == 1
    assert count(index, encode_text("GG")) == 0
    assert count(index, encode_text("ACGCTTG")) == 1


def test_search_empty_query_rejected():
    index = oracle.full_index(encode_text("ACGT"), k=4)
    with pytest.raises(EmptyText):
        search(index, PackedSequence(b"", 0))


def test_bracket_examples():
    # a missed query's `low` counts the suffixes lexically below it
    index = oracle.full_index(encode_text("ACGCTTG"), k=4)
    rng = search(index, encode_text("CA"))
    assert rng.count == 0
    sufs = sorted_suffixes(encode_text("ACGCTTG"))
    assert sufs[rng.low - 1] == "ACGCTTG$"
    assert sufs[rng.low] == "CGCTTG$"
    rng = search(index, encode_text("TTT"))
    assert rng.count == 0 and rng.low == index.n
    assert sufs[rng.low - 1] == "TTG$"
    assert search(index, encode_text("CT")).count == 1


@pytest.mark.parametrize("k", [64, 2048])
def test_search_wide_intervals(k, occ_calls, monkeypatch):
    # every query of 1-4 symbols on 5,000 bp, whose intervals span many
    # k-blocks, and random 7-mers, which mostly miss: steps take one
    # count from empty and one-row intervals and two from wider ones,
    # and none reads a BWT symbol beyond a one-row interval's own
    rng = random.Random(13)
    text = PackedSequence.from_codes([rng.randrange(4) for _ in range(5000)])
    index = construct.build(text, k=k)
    sufs = sorted_suffixes(text)
    queries = [list(q) for m in range(1, 5) for q in itertools.product(range(4), repeat=m)]
    queries += [[rng.randrange(4) for _ in range(7)] for _ in range(200)]
    reads = record_count_reads(monkeypatch)
    steps = misses = 0
    for q in queries:
        query = PackedSequence.from_codes(q)
        found = search(index, query)
        assert found.count == naive_count(text, query), q
        assert found.low == bisect_left(sufs, decode(query)), q
        steps += len(q)
        misses += not found.count
    assert misses > 50
    assert steps < occ_calls[0] < 2 * steps
    assert reads == []


def exhaustive_pairs(max_text, max_query):
    for tlen in range(1, max_text + 1):
        for tcodes in itertools.product(range(4), repeat=tlen):
            yield tcodes


def test_count_exhaustive_small():
    # every text up to length 4, every query up to length 4
    queries = [
        PackedSequence.from_codes(list(q))
        for qlen in range(1, 5)
        for q in itertools.product(range(4), repeat=qlen)
    ]
    for tcodes in exhaustive_pairs(4, 4):
        text = PackedSequence.from_codes(list(tcodes))
        index = oracle.full_index(text, k=2)
        for query in queries:
            assert count(index, query) == naive_count(text, query)


@settings(max_examples=300, deadline=None)
@given(texts, st.lists(st.integers(0, 3), min_size=1, max_size=8).map(PackedSequence.from_codes))
def test_count_matches_naive_scan(text, query):
    index = oracle.full_index(text, k=4)
    assert count(index, query) == naive_count(text, query)


@settings(max_examples=300, deadline=None)
@given(texts, st.lists(st.integers(0, 3), min_size=1, max_size=6).map(PackedSequence.from_codes))
def test_bracket_property_on_misses(text, query):
    index = oracle.full_index(text, k=4)
    rng = search(index, query)
    if rng.count:
        return
    low = rng.low
    sufs = sorted_suffixes(text)
    q = decode(query)
    if low > 0:
        assert sufs[low - 1] < q
    if low < index.n:
        assert q < sufs[low]


def test_first_mismatch_reports_field():
    a = oracle.full_index(encode_text("ACGCTTG"), k=4)
    b = oracle.full_index(encode_text("ACGCTTG"), k=4)
    assert first_mismatch(a, b) is None
    counts = list(b.c.counts)
    counts[2] += 1
    b = dataclasses.replace(b, c=CArray(tuple(counts)))
    assert first_mismatch(a, b) == "c"
    b2 = oracle.full_index(encode_text("ACGCTTT"), k=4)
    assert first_mismatch(a, b2) in {"bwt", "dollar_pos"}
    assert first_mismatch(a, oracle.full_index(encode_text("ACGCTT"), k=4)) == "n"


def test_index_equality_is_first_mismatch():
    text = encode_text("GATTACAGATTACACCGT")
    std = construct.build(text, k=4, schedule="standard")
    pre = construct.build(text, k=4, schedule="prefetch")
    assert std == pre and std.prefetch_built != pre.prefetch_built
    assert loads_index(dumps_index(pre)) == std == oracle.full_index(text, k=4)
    assert std == dataclasses.replace(std, prefetch_built=True)
    assert std != "not an index"

    codes = std.bwt.data.codes()
    flip = 0 if std.bwt.dollar_pos else 1
    codes[flip] ^= 1
    variants = {
        "c": dataclasses.replace(std, c=CArray((0, 1, 2, 3))),
        "dollar_pos": dataclasses.replace(std, bwt=Bwt(std.bwt.data, std.bwt.dollar_pos + 1)),
        "bwt": dataclasses.replace(std, bwt=Bwt(PackedBuffer.from_codes(codes), std.bwt.dollar_pos)),
        "k": dataclasses.replace(std, occ=SampledOccTable.build(std.bwt, 5)),
    }
    for field, other in variants.items():
        assert first_mismatch(std, other) == field
        assert std != other and not std == other


def test_finished_buffers_are_bytes():
    # texts and every finished BWT hold immutable bytes, so no index can
    # change under its checkpoint rows or rank directory; only construction
    # leaves take insertions
    text = encode_text("ACGTTGCAACGT" * 8)
    built = [construct.build(text, k=4, schedule=s) for s in ("standard", "prefetch")]
    indexes = built + [loads_index(dumps_index(built[0])), oracle.full_index(text, k=4)]
    buffers = [text, PackedSequence.from_codes(text.codes())] + [index.bwt.data for index in indexes]
    for buf in buffers:
        assert type(buf._buf) is bytes
        before = buf.payload(), buf.length
        with pytest.raises(TypeError):
            buf.insert(0, 1)
        assert (buf.payload(), buf.length) == before
    for index in indexes:
        assert index.bwt.payload() is index.bwt.data._buf
        assert search(index, encode_text("TTG")) == SearchRange(89, 96)
        with pytest.raises(dataclasses.FrozenInstanceError):
            index.bwt = built[1].bwt


def test_c_array_is_frozen():
    # an index's C is a tuple in a frozen CArray, and its table's rows
    # and k are read-only, so, like its BWT, they cannot change under
    # the index: built, loaded or the oracle's
    text = encode_text("ACGTTGCAACGT" * 8)
    built = [construct.build(text, k=4, schedule=s) for s in ("standard", "prefetch")]
    indexes = built + [loads_index(dumps_index(built[0])), oracle.full_index(text, k=4)]
    for index in indexes:
        assert type(index.c.counts) is tuple
        with pytest.raises(TypeError):
            index.c.counts[3] += 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            index.c.counts = [0, 0, 0, 0]
        with pytest.raises(ValueError, match="read-only"):
            index.occ.checkpoints()[1, 0] += 5
        with pytest.raises(AttributeError):
            index.occ.k = 3
        assert index.k == 4
        assert search(index, encode_text("TTG")) == SearchRange(89, 96)
        assert loads_index(dumps_index(index)) == index
        assert dumps_index(loads_index(dumps_index(index))) == dumps_index(index)
