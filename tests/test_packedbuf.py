import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saii.packedbuf import _INSERT_VECTOR_MIN, PackedBuffer, pack, tally

codes_lists = st.lists(st.integers(0, 3), max_size=300)


def with_room(codes, room):
    """Buffer holding `codes` with room to insert `room` more."""
    return PackedBuffer(pack(codes, len(codes) + room), len(codes))


@given(codes_lists)
def test_from_codes_roundtrip(codes):
    buf = PackedBuffer.from_codes(codes)
    assert buf.codes() == codes
    assert len(buf.payload()) == (len(codes) + 3) // 4


@given(codes_lists, st.integers(0, 3), st.data())
def test_insert_matches_list_model(codes, code, data):
    pos = data.draw(st.integers(0, len(codes)))
    buf = with_room(codes, 1)
    buf.insert(pos, code)
    model = codes[:pos] + [code] + codes[pos:]
    assert buf.codes() == model


def test_insert_int_and_vector_paths_match_list_model():
    rng = random.Random(7)
    codes = [rng.randrange(4) for _ in range(5000)]
    buf = with_room(codes, 60)
    model = list(codes)
    for _ in range(60):
        pos = rng.randrange(len(model) + 1)
        c = rng.randrange(4)
        buf.insert(pos, c)
        model.insert(pos, c)
    assert buf.codes() == model


def test_insert_path_boundaries():
    # tails on both sides of the int/vector switch and short ones, at every
    # slot offset of the insertion point and of the length
    t = _INSERT_VECTOR_MIN
    for n in range(t + 8, t + 12):
        codes = [(i * 7 + i // 5) % 4 for i in range(n)]
        for tail in (0, 1, 2, 3, t - 1, t, t + 1):
            pos = n - tail
            buf = with_room(codes, 1)
            buf.insert(pos, 2)
            model = codes[:pos] + [2] + codes[pos:]
            payload = buf.payload()
            assert payload == pack(model, len(model)), (n, tail)
            assert not any(buf._buf[len(payload) :])


def peak_bytes(op) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_count_code_allocation():
    # one occ_count scan at the default k = 2048; the byte-value
    # histogram this replaced allocated 6.5 KB
    buf = PackedBuffer.from_codes([i % 4 for i in range(4096)])
    assert peak_bytes(lambda: buf.count_code(2, 1, 2048)) < 4096


def test_int_insert_allocation_bounded_by_threshold():
    # the int path holds a few copies of the tail's packed bytes, never
    # of the buffer's 16 KB
    n = 65_536
    bound = 2 * _INSERT_VECTOR_MIN
    assert bound < n // 4
    buf = with_room([i % 4 for i in range(n)], 1)
    assert peak_bytes(lambda: buf.insert(n - (_INSERT_VECTOR_MIN - 1), 1)) < bound


def test_unused_slots_stay_zero():
    buf = with_room([3, 3, 3], 2)
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
    rng = random.Random(11)
    codes = [rng.randrange(4) for _ in range(4096)]
    buf = PackedBuffer.from_codes(codes)
    for start, stop in [(0, 4096), (1, 4095), (3, 3001), (130, 131), (500, 500)]:
        counts = buf.count_range(start, stop)
        assert counts == [codes[start:stop].count(a) for a in range(4)]


def test_tally_bytes_matches():
    # the tally behind count_range also reads immutable packed bytes
    rng = random.Random(3)
    for length in [0, 1, 5, 63, 64, 65, 1000]:
        codes = [rng.randrange(4) for _ in range(length)]
        payload = PackedBuffer.from_codes(codes).payload()
        # mid-byte starts and stops, one symbol, empty and reversed
        ranges = [(0, length), (1, length), (length // 3, length - 2), (2, min(3, length))]
        ranges += [(length, length), (length, 0)]
        for data in (payload, bytearray(payload), np.frombuffer(payload, dtype=np.uint8)):
            for start, stop in ranges:
                assert tally(data, start, stop) == [codes[start:stop].count(a) for a in range(4)]


@pytest.mark.parametrize("tail", [0, 3, _INSERT_VECTOR_MIN, _INSERT_VECTOR_MIN + 5])
def test_insert_into_full_buffer_raises(tail):
    # both shift paths: the capacity is fixed when the buffer is made
    codes = [i % 4 for i in range(_INSERT_VECTOR_MIN + 8)]
    buf = PackedBuffer.from_codes(codes)
    with pytest.raises(IndexError):
        buf.insert(len(codes) - tail, 1)
    assert buf.codes() == codes


def test_shift_scratch_follows_buffer_size():
    codes = [i % 4 for i in range(_INSERT_VECTOR_MIN + 1)]
    buf = PackedBuffer.from_codes(codes)
    # vector path: the tail holds more than _INSERT_VECTOR_MIN symbols;
    # scratch for this 1 KB buffer fits, two full 4 KB shift chunks would not
    assert peak_bytes(lambda: buf.insert(0, 3)) < 4096
    assert buf.codes() == [3] + codes
