import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saii.packedbuf import PackedBuffer, tally

codes_lists = st.lists(st.integers(0, 3), max_size=300)


@given(codes_lists)
def test_from_codes_roundtrip(codes):
    buf = PackedBuffer.from_codes(codes)
    assert buf.codes() == codes
    assert len(buf.payload()) == (len(codes) + 3) // 4


@given(codes_lists, st.integers(0, 3), st.data())
def test_insert_matches_list_model(codes, code, data):
    pos = data.draw(st.integers(0, len(codes)))
    buf = PackedBuffer.from_codes(codes)
    buf.insert(pos, code)
    model = codes[:pos] + [code] + codes[pos:]
    assert buf.codes() == model


def test_insert_vector_path_matches_scalar():
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


def test_count_vector_path():
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
        payload = np.frombuffer(PackedBuffer.from_codes(codes).payload(), dtype=np.uint8)
        assert tally(payload, 0, length) == [codes.count(a) for a in range(4)]
        for start, stop in [(1, length), (length // 3, length - 2)]:
            assert tally(payload, start, stop) == [codes[start:stop].count(a) for a in range(4)]


def test_reserve_keeps_contents():
    buf = PackedBuffer.from_codes([1, 2, 3])
    buf._view()  # force a live numpy export
    buf.reserve(10_000)
    assert buf.codes() == [1, 2, 3]
    buf.append(2)
    assert buf.codes() == [1, 2, 3, 2]


def test_shift_scratch_follows_buffer_size():
    codes = [i % 4 for i in range(300)]
    buf = PackedBuffer.from_codes(codes)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        buf.insert(0, 3)  # vector path: the tail is longer than 48 symbols
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2048  # two full 4 KB shift chunks would not fit
    # growth drops the small scratch, so a long shift gets a full-size one
    model = [3] + codes
    for i in range(20_000):
        buf.append(i % 4)
        model.append(i % 4)
    buf.insert(1, 2)
    model.insert(1, 2)
    assert buf.codes() == model
