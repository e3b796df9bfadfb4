import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saii import construct, oracle
from saii.alphabet import PackedSequence, decode, encode_text
from saii.errors import CapacityExceeded, EmptyText
from saii.fmindex import first_mismatch, search
from saii.occtable import SampledOccTable


def random_text(rng, max_len, min_len=1):
    return PackedSequence.from_codes(
        [rng.randrange(4) for _ in range(rng.randint(min_len, max_len))]
    )


def test_init_state():
    state = construct.init_state(k=4)
    assert state.bwt.decode_with_sentinel() == "$"
    assert state.q == 0
    assert state.c.counts == [0, 0, 0, 0]
    assert list(state.occ.checkpoints()[0]) == [0, 0, 0, 0]
    assert state.occ.num_checkpoints == 1


def test_single_step_counts():
    for code in range(4):
        state = construct.init_state(k=4)
        construct.step(state, code)
        assert state.bwt.data.length == 2
        raw = state.bwt.data.count_range(0, 2)
        assert raw[code] >= 1 and sum(raw) == 2
        assert state.bwt.dollar_pos is not None


def test_build_worked_example():
    index = construct.build(encode_text("ACGCTTG"), k=4)
    assert index.bwt.decode_with_sentinel() == "G$AGTCTC"
    assert index.bwt.dollar_pos == 1
    assert index.c.counts == [0, 1, 3, 5]


def test_build_single_character():
    index = construct.build(encode_text("A"), k=4)
    assert index.bwt.decode_with_sentinel() == "A$"


def test_build_acgct_stepwise_matches_oracle_suffixes():
    # target ACGCT: every intermediate state must index the current suffix
    text = encode_text("ACGCT")
    codes = text.codes()
    state = construct.init_state(k=2)
    for i in range(len(codes) - 1, -1, -1):
        construct.step(state, codes[i])
        expected = oracle.full_index(text.suffix(i), k=2)
        assert first_mismatch(state.as_index(), expected) is None
        assert state.q == state.bwt.dollar_pos


def test_incremental_states_match_oracle_random():
    rng = random.Random(42)
    for _ in range(60):
        text = random_text(rng, 48)
        codes = text.codes()
        state = construct.init_state(k=4)
        for i in range(len(codes) - 1, -1, -1):
            construct.step(state, codes[i])
            expected = oracle.full_index(text.suffix(i), k=4)
            assert first_mismatch(state.as_index(), expected) is None


def test_extended_suffix_occurs_once():
    # the sentinel row is the unique row of the running suffix
    rng = random.Random(43)
    for _ in range(20):
        text = random_text(rng, 24)
        codes = text.codes()
        state = construct.init_state(k=1)
        for i in range(len(codes) - 1, -1, -1):
            construct.step(state, codes[i])
            rng_ = search(state.as_index(), text.suffix(i))
            assert rng_.low == rng_.high == state.q


def test_build_matches_oracle_many_k():
    rng = random.Random(44)
    for _ in range(40):
        text = random_text(rng, 80)
        for k in (1, 2, 3, 5, 16, 2048):
            built = construct.build(text, k=k)
            assert first_mismatch(built, oracle.full_index(text, k=k)) is None


def test_prefetch_q_sequence_and_final_state():
    rng = random.Random(45)
    for _ in range(200):
        text = random_text(rng, 64)
        codes = text.codes()
        std = construct.init_state(k=4)
        pre = construct.init_state(k=4)
        q_std, q_pre = [], []
        for i in range(len(codes) - 1, -1, -1):
            q_std.append(construct.step(std, codes[i]))
            q_pre.append(construct.prefetch_step(pre, codes[i]))
        assert q_std == q_pre
        construct.prefetch_flush(pre)
        assert first_mismatch(std.as_index(), pre.as_index()) is None
        assert pre.bwt.dollar_pos == pre.q


def test_prefetch_intermediate_states_lag_by_one():
    text = encode_text("ACGCT")
    codes = text.codes()
    pre = construct.init_state(k=4)
    for i in range(len(codes) - 1, -1, -1):
        q = construct.prefetch_step(pre, codes[i])
        # physical buffer is one short: the sentinel is pending at row q
        assert pre.bwt.data.length == len(codes) - i
        assert pre.bwt.dollar_pos is None
        assert pre.q == q
    construct.prefetch_flush(pre)
    assert pre.bwt.dollar_pos == pre.q
    assert first_mismatch(pre.as_index(), oracle.full_index(text, k=4)) is None


def test_prefetch_single_character_degenerates():
    text = encode_text("G")
    std = construct.build(text, k=4, schedule="standard")
    pre = construct.build(text, k=4, schedule="prefetch")
    assert first_mismatch(std, pre) is None
    assert pre.prefetch_built and not std.prefetch_built


def test_build_schedule_equivalence():
    rng = random.Random(46)
    for _ in range(100):
        text = random_text(rng, 48)
        a = construct.build(text, k=4, schedule="standard")
        b = construct.build(text, k=4, schedule="prefetch")
        assert first_mismatch(a, b) is None


def test_empty_text_rejected():
    with pytest.raises(EmptyText):
        construct.build(PackedSequence(b"", 0), k=4)


def test_unknown_schedule_rejected():
    with pytest.raises(ValueError):
        construct.build(encode_text("ACG"), k=4, schedule="eager")


def test_build_strict_capacity_bound():
    text = PackedSequence.from_codes([0] * 10)
    old = construct.HARDWARE_MAX_LEN
    construct.HARDWARE_MAX_LEN = 8
    try:
        with pytest.raises(CapacityExceeded):
            construct.build(text, k=4, strict_capacity=True)
        construct.build(PackedSequence.from_codes([0] * 8), k=4, strict_capacity=True)
    finally:
        construct.HARDWARE_MAX_LEN = old


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=150),
    st.sampled_from([1, 2, 3, 4, 7, 64]),
    st.booleans(),
)
@example([(i * i + 3 * i + i // 5) % 4 for i in range(150)], 7, False)
@example([(i * i + 3 * i + i // 5) % 4 for i in range(150)], 64, True)
def test_delta_checkpoints_match_rebuild_after_every_edit(codes, k, reserved):
    # k = 64 covers both k > n and texts crossing a few boundaries;
    # without a reservation the rows also grow during the build
    reserve = len(codes) + 1 if reserved else 0
    std = construct.init_state(k, reserve=reserve)
    pre = construct.init_state(k, reserve=reserve)
    for code in reversed(codes):
        construct.step(std, code)
        assert std.occ == SampledOccTable.build(std.bwt, k)
        construct.prefetch_step(pre, code)
        assert pre.occ == SampledOccTable.build(pre.bwt, k)
    construct.prefetch_flush(pre)
    assert pre.occ == SampledOccTable.build(pre.bwt, k)
    assert first_mismatch(std.as_index(), oracle.full_index(PackedSequence.from_codes(codes), k=k)) is None


@pytest.mark.parametrize("schedule", ["standard", "prefetch"])
def test_build_tallies_only_completed_blocks(schedule, monkeypatch):
    blocks = []
    rebuild_from = SampledOccTable.rebuild_from

    def counted(table, bwt, from_block):
        blocks.append(bwt.data.length // table.k + 1 - max(from_block, 1))
        return rebuild_from(table, bwt, from_block)

    monkeypatch.setattr(SampledOccTable, "rebuild_from", counted)
    rng = random.Random(47)
    for n, k in [(1, 1), (40, 1), (40, 3), (257, 16), (300, 64), (50, 2048)]:
        blocks.clear()
        text = random_text(rng, n, min_len=n)
        construct.build(text, k=k, schedule=schedule)
        assert sum(blocks) == (n + 1) // k
