import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saii import packedbuf
from saii.alphabet import PackedSequence
from saii.errors import InvalidCharacter
from saii.packedbuf import PackedBuffer, Rope

from helpers import packed_bytes, traced

codes_lists = st.lists(st.integers(0, 3), max_size=300)


@given(codes_lists)
# on either side of the 128-code edge of one `fold`
@example([3] * 127 + [1])
@example([2] * 128 + [1])
def test_from_codes_roundtrip(codes):
    buf = PackedBuffer.from_codes(codes)
    assert buf.codes() == codes and isinstance(buf._buf, bytearray)
    assert buf.payload() == packed_bytes(codes) == PackedBuffer.from_codes(tuple(codes)).payload()
    assert len(buf.payload()) == (len(codes) + 3) // 4
    # a bytes-backed text and a bytearray-backed leaf of the same codes
    # are one type and read alike
    n = len(codes)
    text = PackedBuffer(packed_bytes(codes), n)
    assert text == buf and text.payload() == buf.payload() and text.codes() == codes
    assert [text.code_at(i) for i in range(n)] == [buf.code_at(i) for i in range(n)] == codes
    assert text.count_range(0, n) == buf.count_range(0, n) == [codes.count(a) for a in range(4)]
    for i in (-1, n):
        with pytest.raises(IndexError):
            buf.code_at(i)
    with pytest.raises(ValueError):
        PackedBuffer(bytearray(2), 4)


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
    # each padding bit of the last byte, alone, in bytes and a bytearray:
    # a buffer's payload is its codes, so equal codes compare equal
    used = (length & 3) << 1
    data = packed_bytes([3] * length)
    for payload in (data, bytearray(data)):
        assert PackedBuffer(payload, length) == PackedBuffer.from_codes([3] * length)
    for bit in range(used, 8):
        dirty = data[:-1] + bytes([data[-1] | 1 << bit])
        for payload in (dirty, bytearray(dirty)):
            with pytest.raises(ValueError, match="padding bits"):
                PackedBuffer(payload, length)
    with pytest.raises(ValueError, match="padding bits"):
        PackedSequence(b"\xff", 1)


@pytest.mark.parametrize("length", [-1, -2, -3, -4])
def test_negative_length_rejected(length):
    # lengths -1 to -3 expect an empty payload, which would make an empty
    # text that builds to the sentinel-only index
    with pytest.raises(ValueError):
        PackedSequence(b"", length)


@given(codes_lists, st.integers(0, 3), st.data())
def test_insert_matches_list_model(codes, code, data):
    pos = data.draw(st.integers(0, len(codes)))
    buf = PackedBuffer.from_codes(codes)
    buf.insert(pos, code)
    model = codes[:pos] + [code] + codes[pos:]
    assert buf.codes() == model


def test_long_tail_inserts_match_list_model():
    # long tails, up to the whole 5,000-symbol buffer
    rng = random.Random(7)
    codes = [rng.randrange(4) for _ in range(5000)]
    buf = PackedBuffer.from_codes(codes)
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
            buf = PackedBuffer.from_codes(codes)
            buf.insert(pos, 2)
            model = codes[:pos] + [2] + codes[pos:]
            assert buf.payload() == packed_bytes(model), (n, tail)


def test_count_code_allocation():
    # one occ_count scan at the default k = 2048; the byte-value
    # histogram this replaced allocated 6.5 KB
    buf = PackedBuffer.from_codes([i % 4 for i in range(4096)])
    assert traced(lambda: buf.count_code(2, 1, 2048))[2] < 4096


def test_insert_allocation_bounded_by_tail():
    # an insertion holds a few copies of the tail's packed bytes (1 KB
    # here), never of the buffer's 16 KB, while the last byte has a free
    # slot; when it is full, the one-byte growth may also move the buffer
    # once (CPython over-allocates it, so the next insertion does not).
    # Construction inserts only into leaves of at most LEAF / 4 bytes.
    bound = 8192
    for n in (65_537, 65_536):
        assert bound < n // 4
        buf = PackedBuffer.from_codes([i % 4 for i in range(n)])
        moved = (n % 4 == 0) * 5 * (n // 4) // 4
        assert traced(lambda: buf.insert(n - 4095, 1))[2] < bound + moved
        assert traced(lambda: buf.insert(n - 4095, 1))[2] < bound


def test_unused_slots_stay_zero():
    buf = PackedBuffer.from_codes([3, 3, 3])
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


def test_count_bytes_and_bytearray_match():
    # count_range and count_code read immutable packed bytes and
    # bytearrays alike; buffers of 0-12 codes take every range, so ranges
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
            for data in (payload, bytearray(payload)):
                buf = PackedBuffer(data, length)
                assert buf.count_range(start, stop) == expected, (length, start, stop)
                assert [buf.count_code(a, start, stop) for a in range(4)] == expected


def test_set_out_of_range_raises():
    # a write past either end would land in a padding slot, or the last
    # byte's top slot for i = -1, and break equality with the codes
    codes = [1, 2, 3, 0, 1]
    for i in (len(codes), -1):
        buf = PackedBuffer.from_codes(codes)
        with pytest.raises(IndexError):
            buf.set(i, 3)
        assert buf.payload() == b"9\x01" and buf == PackedBuffer.from_codes(codes)
    buf.set(4, 3)
    assert buf.codes() == [1, 2, 3, 0, 3]


def test_insert_into_exact_buffer():
    # every position and code on buffers of 0..12 codes: a buffer holds
    # exactly ceil(length / 4) bytes, so it grows by one byte exactly
    # when its last byte was full, and the padding slots stay zero
    for n in range(13):
        codes = [(i * 3 + i // 2) % 4 for i in range(n)]
        for pos in range(n + 1):
            for code in range(4):
                buf = PackedBuffer.from_codes(codes)
                buf.insert(pos, code)
                model = codes[:pos] + [code] + codes[pos:]
                assert len(buf._buf) == (n + 3) // 4 + (n % 4 == 0), (n, pos)
                assert not any(buf.count_range(n + 1, (n + 4) & ~3)[1:])
                assert buf.payload() == packed_bytes(model)


@pytest.mark.parametrize("tail", [0, 3, 4096, 4101])
def test_insert_into_full_buffer_raises(tail):
    # short and long tails into a buffer whose last byte is full: an
    # insert in range grows it by one byte; one past either end raises
    # and leaves it as it was, padding slots included
    codes = [i % 4 for i in range(4104)]
    for pos in (-1 - tail, len(codes) + 1 + tail):
        buf = PackedBuffer.from_codes(codes)
        with pytest.raises(IndexError):
            buf.insert(pos, 1)
        assert buf.length == len(codes) and buf.payload() == packed_bytes(codes)
    buf.insert(len(codes) - tail, 1)
    model = codes[: len(codes) - tail] + [1] + codes[len(codes) - tail :]
    assert len(buf._buf) == len(codes) // 4 + 1
    assert buf.payload() == packed_bytes(model)



def test_rope_flatten_over_odd_leaf_lengths(monkeypatch):
    # 8-symbol leaves split into 4 + 4 and grow one symbol at a time, so
    # leaves end at every slot offset of a byte
    monkeypatch.setattr(packedbuf, "LEAF", 8)
    rng = random.Random(9)
    model = [2, 1, 3]
    rope = Rope(PackedBuffer.from_codes(model))
    for _ in range(300):
        pos, code = rng.randrange(len(model) + 1), rng.randrange(4)
        j, off, before = rope.locate(pos, code)
        assert before + rope.leaves[j].count_code(code, 0, off) == model[:pos].count(code)
        rope.insert(j, off, code)
        model.insert(pos, code)
    lengths = [leaf.length for leaf in rope.leaves]
    assert sum(lengths) == rope.length == len(model)
    assert all(len(leaf._buf) == (leaf.length + 3) // 4 for leaf in rope.leaves)
    assert {n % 4 for n in lengths} == {0, 1, 2, 3} and min(lengths) >= 4
    flat = rope.flatten()
    assert flat.codes() == model
    assert flat.payload() == packed_bytes(model) and len(flat._buf) == (len(model) + 3) // 4
    assert rope.leaves == []
    with pytest.raises(RuntimeError):
        rope.flatten()


def test_rope_set_keeps_ranks(monkeypatch):
    monkeypatch.setattr(packedbuf, "LEAF", 8)
    rng = random.Random(10)
    model = [rng.randrange(4) for _ in range(40)]
    rope = Rope(PackedBuffer.from_codes(model[:1]))
    for pos in range(1, len(model)):
        rope.insert(*rope.locate(pos, 0)[:2], model[pos])
    for _ in range(200):
        pos, code = rng.randrange(len(model)), rng.randrange(4)
        j, off, _ = rope.locate(pos, code)
        rope.set(j, off, model[pos], code)
        model[pos] = code
        for p in (0, pos, len(model)):
            for a in range(4):
                j, off, before = rope.locate(p, a)
                assert before + rope.leaves[j].count_code(a, 0, off) == model[:p].count(a)
    assert rope.flatten().codes() == model
