import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saii import construct, oracle, packedbuf
from saii.alphabet import PackedSequence
from saii.errors import InvalidCharacter
from saii.packedbuf import LEAF, PackedBuffer

from helpers import leaf, packed_bytes, traced

codes_lists = st.lists(st.integers(0, 3), max_size=300)


@given(codes_lists)
# on either side of the 128-code edge of one `fold`
@example([3] * 127 + [1])
@example([2] * 128 + [1])
def test_from_codes_roundtrip(codes):
    buf = PackedBuffer.from_codes(codes)
    assert buf.codes() == codes and type(buf._buf) is bytes
    assert buf.payload() == packed_bytes(codes) == PackedBuffer.from_codes(tuple(codes)).payload()
    assert len(buf.payload()) == (len(codes) + 3) // 4
    # a bytes-backed text and an int-backed leaf of the same codes are
    # one type and read alike
    n = len(codes)
    grown = leaf(codes)
    assert type(grown._buf) is int and grown._buf.bit_length() <= 2 * n
    assert grown == buf and grown.payload() == buf.payload() and grown.codes() == codes
    assert (buf == n) is False and buf != codes  # a non-buffer is never equal
    assert [grown.code_at(i) for i in range(n)] == [buf.code_at(i) for i in range(n)] == codes
    assert grown.count_range(0, n) == buf.count_range(0, n) == [codes.count(a) for a in range(4)]
    assert [grown.count_code(a, 0, n) for a in range(4)] == [buf.count_code(a, 0, n) for a in range(4)]
    assert grown.slots(0, n) == buf.slots(0, n) == int.from_bytes(buf.payload(), "little")
    start, stop = n // 3, n - n // 4
    mid = sum(c << 2 * i for i, c in enumerate(codes[start:stop]))
    assert grown.slots(start, stop) == buf.slots(start, stop) == mid
    for i in (-1, n):
        with pytest.raises(IndexError):
            buf.code_at(i)
    with pytest.raises(ValueError):
        PackedBuffer(bytes(2), 4)
    # bytes or an int, nothing mutable
    with pytest.raises(TypeError):
        PackedBuffer(bytearray(buf.payload()), n)


@pytest.mark.parametrize(
    "codes, at",
    [([0, 5], 1), ([4], 0), ([1, 2, -1, 7], 2), ([0] * 127 + [256, 4], 127), ([1] * 128 + [-1, 9], 128)],
)
def test_from_codes_rejects_codes_outside_0_to_3(codes, at):
    # 5 would pack as a 1 and 4 would set a padding bit; the first bad
    # code is found on either side of a fold's 128-code edge
    with pytest.raises(InvalidCharacter) as err:
        PackedSequence.from_codes(codes)
    assert (err.value.position, err.value.char) == (at, codes[at])


@pytest.mark.parametrize("length", [1, 2, 3, 5, 4103])
def test_set_padding_bits_refused(length):
    # each padding bit of the last byte, alone, in bytes and an int, and
    # the bit above them in an int: a buffer's payload is its codes, so
    # equal codes compare equal
    used = (length & 3) << 1
    data = packed_bytes([3] * length)
    for payload in (data, int.from_bytes(data, "little")):
        assert PackedBuffer(payload, length) == PackedBuffer.from_codes([3] * length)
    for bit in range(used, 9):
        dirty = data[:-1] + bytes([data[-1] | 1 << bit]) if bit < 8 else data
        value = int.from_bytes(data, "little") | 1 << (8 * (len(data) - 1) + bit)
        for payload in (dirty, value) if bit < 8 else (value,):
            with pytest.raises(ValueError, match="padding bits"):
                PackedBuffer(payload, length)
    with pytest.raises(ValueError, match="padding bits"):
        PackedSequence(b"\xff", 1)
    with pytest.raises(ValueError, match="padding bits"):
        PackedBuffer(4, 1)
    with pytest.raises(ValueError):
        PackedBuffer(-1, length)


@pytest.mark.parametrize("length", [-1, -2, -3, -4])
def test_negative_length_rejected(length):
    # lengths -1 to -3 expect an empty payload, which would make an empty
    # text that builds to the sentinel-only index
    with pytest.raises(ValueError):
        PackedSequence(b"", length)


@given(codes_lists, st.integers(0, 3), st.data())
def test_insert_matches_list_model(codes, code, data):
    pos = data.draw(st.integers(0, len(codes)))
    buf = leaf(codes)
    buf.insert(pos, code)
    model = codes[:pos] + [code] + codes[pos:]
    assert buf.codes() == model


@pytest.mark.parametrize("code", [4, -1, 7, -4])
def test_insert_rejects_codes_outside_0_to_3(code):
    # 4 would set the padding bit above the last slot, and -1 every bit
    # from its slot up; the buffer is left as it was
    for codes in ([1, 2], [1, 2, 3, 0], []):
        buf = leaf(codes)
        for pos in range(len(codes) + 1):
            with pytest.raises(ValueError):
                buf.insert(pos, code)
            assert buf.length == len(codes) and buf.payload() == packed_bytes(codes)


def test_long_tail_inserts_match_list_model():
    # long tails, up to the whole 5,000-symbol buffer
    rng = random.Random(7)
    codes = [rng.randrange(4) for _ in range(5000)]
    buf = leaf(codes)
    model = list(codes)
    for _ in range(60):
        pos = rng.randrange(len(model) + 1)
        c = rng.randrange(4)
        buf.insert(pos, c)
        model.insert(pos, c)
    assert buf.codes() == model
    assert buf.payload() == packed_bytes(model)


def test_insert_path_boundaries():
    # short and long tails at every slot offset of the insertion point
    # and of the length
    for n in range(4104, 4108):
        codes = [(i * 7 + i // 5) % 4 for i in range(n)]
        for tail in (0, 1, 2, 3, 4095, 4096, 4097):
            pos = n - tail
            buf = leaf(codes)
            buf.insert(pos, 2)
            model = codes[:pos] + [2] + codes[pos:]
            assert buf.payload() == packed_bytes(model), (n, tail)


def test_count_code_allocation():
    # one occ_count scan at the default k = 2048; the byte-value
    # histogram this replaced allocated 6.5 KB
    buf = PackedBuffer.from_codes([i % 4 for i in range(4096)])
    assert traced(lambda: buf.count_code(2, 1, 2048))[2] < 4096


def test_insert_allocation_bounded_by_tail():
    # an insertion into an int leaf makes a new int of the whole leaf,
    # so construction inserts only into leaves of at most LEAF symbols,
    # LEAF / 4 bytes: an insertion into a full one, anywhere, holds a few
    # copies of those bytes at most, and leaves only the new int held
    bound = 4 * (LEAF // 4)
    for n in (LEAF - 1, LEAF):
        for pos in (0, 1, n // 2, n - 5, n):
            buf = leaf([(i * 7 + i // 3) % 4 for i in range(n)])
            _, held, peak = traced(lambda: buf.insert(pos, 3))
            assert peak < bound and held < 2 * (LEAF // 4)


def test_unused_slots_stay_zero():
    buf = leaf([3, 3, 3])
    buf.insert(0, 3)
    buf.insert(4, 3)
    payload = buf.payload()
    # 5 symbols -> 2 bytes, top slots of the last byte must be clear
    assert payload[1] >> 2 == 0


@given(codes_lists, st.data())
def test_count_range_matches_list_model(codes, data):
    start = data.draw(st.integers(0, len(codes)))
    stop = data.draw(st.integers(start, len(codes)))
    buf = PackedBuffer.from_codes(codes)
    counts = buf.count_range(start, stop)
    for a in range(4):
        assert counts[a] == codes[start:stop].count(a)
        assert buf.count_code(a, start, stop) == counts[a]


def test_count_long_ranges():
    # short ranges, ranges on either side of the 2,048-slot 01-pair mask
    # at mid-byte starts, a 10,000-symbol one that makes its own mask,
    # then short ones again
    rng = random.Random(11)
    codes = [rng.randrange(4) for _ in range(10_003)]
    buf = PackedBuffer.from_codes(codes)
    short = [(130, 131), (500, 500), (1, 4095), (3, 3001), (0, 4096)]
    edge = [(start, start + length) for start in (1, 2, 3, 4097) for length in (2047, 2048, 2049)]
    for start, stop in short + edge + [(2, 10_002)] + short:
        counts = buf.count_range(start, stop)
        assert counts == [codes[start:stop].count(a) for a in range(4)]
        assert [buf.count_code(a, start, stop) for a in range(4)] == counts


def test_counts_leave_no_memory_behind():
    # the count kernel keeps no state: a count of 40,000 symbols, longer
    # than any other test makes, returns memory to where it was
    rng = random.Random(14)
    codes = [rng.randrange(4) for _ in range(40_000)]
    buf = PackedBuffer.from_codes(codes)
    tally = [codes[1:39_999].count(a) for a in range(4)]

    def counts():
        return buf.count_range(1, 39_999) == tally and buf.count_code(2, 1, 39_999) == tally[2]

    long_ok, held, _ = traced(counts)
    assert long_ok
    assert held < 1024


def test_count_bytes_and_int_match():
    # count_range and count_code read packed bytes and int-backed leaves
    # alike; buffers of 0-12 codes take every range, so ranges
    # start and stop in one byte and zero padding slots sit under code 0
    rng = random.Random(3)
    for length in list(range(13)) + [63, 64, 65, 1000]:
        codes = [rng.randrange(4) for _ in range(length)]
        payload = PackedBuffer.from_codes(codes).payload()
        if length <= 12:
            ranges = [(start, stop) for start in range(length + 1) for stop in range(length + 1)]
        else:  # mid-byte starts and stops, one symbol, empty and reversed
            ranges = [(0, length), (1, length), (length // 3, length - 2), (2, 3)]
            ranges += [(length, length), (length, 0)]
        for start, stop in ranges:
            expected = [codes[start:stop].count(a) for a in range(4)]
            for data in (payload, int.from_bytes(payload, "little")):
                buf = PackedBuffer(data, length)
                assert buf.count_range(start, stop) == expected, (length, start, stop)
                assert [buf.count_code(a, start, stop) for a in range(4)] == expected


@pytest.mark.parametrize("length", [1, 8, 4101])
def test_counts_outside_the_buffer_raise(length):
    # a range past either end would read padding slots (or shift by a
    # negative count) and tally them as A, so it raises; an empty or
    # reversed range counts 0 before any read, and a code outside 0..3 is
    # refused
    codes = [(i * 3 + i // 2) % 4 for i in range(length)]
    for buf in (PackedBuffer.from_codes(codes), leaf(codes)):
        for start, stop in [(0, length + 1), (0, length + 9), (-4, 2), (-1, length), (length, length + 1)]:
            with pytest.raises(IndexError):
                buf.slots(start, stop)
            with pytest.raises(IndexError):
                buf.count_range(start, stop)
            for a in range(4):
                with pytest.raises(IndexError):
                    buf.count_code(a, start, stop)
        for start, stop in [(0, 0), (length, length), (length + 5, length + 5), (2, -4), (length + 9, 0)]:
            assert buf.count_range(start, stop) == [0, 0, 0, 0]
            assert [buf.count_code(a, start, stop) for a in range(4)] == [0, 0, 0, 0]
        for code in (4, -1, 7, -4):
            for start, stop in [(0, length), (0, 0)]:
                with pytest.raises(ValueError):
                    buf.count_code(code, start, stop)
    with pytest.raises(IndexError):
        PackedSequence.from_codes([1]).count_range(0, 10)  # nine A's past the one C


def test_insert_into_exact_buffer():
    # every position and code on buffers of 0..12 codes: a leaf's int is
    # exactly its codes, one slot longer after each insertion, and the
    # padding slots stay zero
    for n in range(13):
        codes = [(i * 3 + i // 2) % 4 for i in range(n)]
        for pos in range(n + 1):
            for code in range(4):
                buf = leaf(codes)
                buf.insert(pos, code)
                model = codes[:pos] + [code] + codes[pos:]
                assert buf._buf == int.from_bytes(packed_bytes(model), "little"), (n, pos)
                assert buf._buf.bit_length() <= 2 * (n + 1)
                assert buf.payload() == packed_bytes(model)


@pytest.mark.parametrize("tail", [0, 3, 4096, 4101])
def test_insert_into_full_buffer_raises(tail):
    # short and long tails into a buffer whose last byte is full: an
    # insert in range grows it by one slot; one past either end raises
    # and leaves it as it was, padding slots included
    codes = [i % 4 for i in range(4104)]
    for pos in (-1 - tail, len(codes) + 1 + tail):
        buf = leaf(codes)
        with pytest.raises(IndexError):
            buf.insert(pos, 1)
        assert buf.length == len(codes) and buf.payload() == packed_bytes(codes)
    buf.insert(len(codes) - tail, 1)
    model = codes[: len(codes) - tail] + [1] + codes[len(codes) - tail :]
    assert buf._buf.bit_length() <= 2 * len(model)
    assert buf.payload() == packed_bytes(model)


def fenwick_values(tree) -> list:
    """The per-leaf values that the Fenwick `tree` sums."""
    values = list(tree[1:])
    for node in range(len(values), 0, -1):
        if (up := node + (node & -node)) <= len(values):
            values[up - 1] -= values[node - 1]
    return values


def test_rope_flatten_over_odd_leaf_lengths(monkeypatch):
    # 8-symbol leaves split into 4 + 4 and grow one symbol at a time, so
    # leaves end at every slot offset; each is exactly its symbols, the
    # flat BWT is the oracle's, and the spent state flattens once
    monkeypatch.setattr(packedbuf, "LEAF", 8)
    rng = random.Random(9)
    text = PackedSequence.from_codes([rng.randrange(4) for _ in range(300)])
    expected = oracle.full_index(text, k=4)
    for advance in (construct.step, construct.prefetch_step):
        state = construct.SaiiState(4)
        ends = set()
        for code in reversed(text.codes()):
            advance(state, code)
            ends |= {leaf.length % 4 for leaf in state.leaves}
        construct.prefetch_flush(state)
        lengths = [leaf.length for leaf in state.leaves]
        assert sum(lengths) == text.length + 1
        assert all(leaf._buf.bit_length() <= 2 * leaf.length for leaf in state.leaves)
        assert ends == {0, 1, 2, 3} and min(lengths) >= 4
        flat = state.as_index()
        assert flat.bwt.payload() == expected.bwt.payload() and flat == expected
        assert len(flat.bwt.data._buf) == (text.length + 4) // 4
        assert state.leaves == []
        with pytest.raises(RuntimeError):
            state.as_index()


def test_rope_set_keeps_ranks(monkeypatch):
    # after every overwrite and insertion of both schedules, the Fenwick
    # trees sum each leaf's codes and length, so every rank the descent
    # makes is the model's
    monkeypatch.setattr(packedbuf, "LEAF", 8)
    rng = random.Random(10)
    codes = [rng.randrange(4) for _ in range(120)]
    for advance in (construct.step, construct.prefetch_step):
        state = construct.SaiiState(4)
        for code in reversed(codes):
            advance(state, code)
            leaves = state.leaves
            assert fenwick_values(state.trees[4]) == [leaf.length for leaf in leaves]
            for a in range(4):
                assert fenwick_values(state.trees[a]) == [leaf.count_code(a, 0, leaf.length) for leaf in leaves]
            assert len(state.steps) == (len(leaves) - 1).bit_length()
        text = PackedSequence.from_codes(codes)
        assert state.as_index() == oracle.full_index(text, k=4)
