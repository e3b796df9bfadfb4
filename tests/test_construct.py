import copy
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saii import construct, oracle, packedbuf
from saii.alphabet import PackedSequence, decode, encode_text
from saii.errors import CapacityExceeded, EmptyText, InvalidParams
from saii.fmindex import first_mismatch, search
from saii.occtable import SampledOccTable
from saii.packedbuf import PackedBuffer

from helpers import decode_with_sentinel, traced


def random_text(rng, max_len, min_len=1):
    return PackedSequence.from_codes(
        [rng.randrange(4) for _ in range(rng.randint(min_len, max_len))]
    )


def snapshot(state):
    """The index a state holds, leaving the state itself unspent."""
    return copy.deepcopy(state).as_index()


def test_init_state():
    state = construct.init_state(4)
    assert state.q == 0 and not state.pending and state.rope.length == 1
    index = snapshot(state)
    assert decode_with_sentinel(index.bwt) == "$"
    assert index.c.counts == [0, 0, 0, 0]
    assert list(index.occ.checkpoints()[0]) == [0, 0, 0, 0]
    assert index.occ.checkpoints().shape == (1, 4)
    assert len(state.rope.leaves[0]._buf) == 1


def test_single_step_counts():
    for code in range(4):
        state = construct.init_state(4)
        construct.step(state, code)
        assert state.rope.length == 2
        assert not state.pending
        index = snapshot(state)
        raw = index.bwt.data.count_range(0, 2)
        assert raw[code] >= 1 and sum(raw) == 2
        assert index.bwt.dollar_pos == state.q


def test_spent_state_cannot_be_flattened_twice():
    state = construct.init_state(4)
    for code in (2, 1, 3):
        construct.prefetch_step(state, code)
    first = state.as_index()
    assert first_mismatch(first, oracle.full_index(encode_text("TCG"), k=4)) is None
    with pytest.raises(RuntimeError):
        state.as_index()


def test_build_worked_example():
    index = construct.build(encode_text("ACGCTTG"), k=4)
    assert decode_with_sentinel(index.bwt) == "G$AGTCTC"
    assert index.bwt.dollar_pos == 1
    assert index.c.counts == [0, 1, 3, 5]


def test_build_single_character():
    index = construct.build(encode_text("A"), k=4)
    assert decode_with_sentinel(index.bwt) == "A$"


def test_build_acgct_stepwise_matches_oracle_suffixes():
    # target ACGCT: every intermediate state must index the current suffix
    text = encode_text("ACGCT")
    codes = text.codes()
    state = construct.init_state(2)
    for i in range(len(codes) - 1, -1, -1):
        construct.step(state, codes[i])
        expected = oracle.full_index(PackedSequence.from_codes(text.codes()[i:]), k=2)
        assert first_mismatch(snapshot(state), expected) is None
        assert not state.pending
        assert state.rope.length == len(codes) - i + 1


def test_incremental_states_match_oracle_random():
    rng = random.Random(42)
    for _ in range(60):
        text = random_text(rng, 48)
        codes = text.codes()
        state = construct.init_state(4)
        for i in range(len(codes) - 1, -1, -1):
            construct.step(state, codes[i])
            expected = oracle.full_index(PackedSequence.from_codes(text.codes()[i:]), k=4)
            assert first_mismatch(snapshot(state), expected) is None


def test_extended_suffix_occurs_once():
    # the sentinel row is the unique row of the running suffix
    rng = random.Random(43)
    for _ in range(20):
        text = random_text(rng, 24)
        codes = text.codes()
        state = construct.init_state(1)
        for i in range(len(codes) - 1, -1, -1):
            construct.step(state, codes[i])
            rng_ = search(snapshot(state), PackedSequence.from_codes(text.codes()[i:]))
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
        std = construct.init_state(4)
        pre = construct.init_state(4)
        q_std, q_pre = [], []
        for i in range(len(codes) - 1, -1, -1):
            q_std.append(construct.step(std, codes[i]))
            q_pre.append(construct.prefetch_step(pre, codes[i]))
        assert q_std == q_pre
        assert pre.pending and pre.rope.length == std.rope.length - 1
        construct.prefetch_flush(pre)
        assert not pre.pending and pre.q == std.q
        assert first_mismatch(std.as_index(), pre.as_index()) is None


def test_prefetch_intermediate_states_lag_by_one():
    text = encode_text("ACGCT")
    codes = text.codes()
    pre = construct.init_state(4)
    for i in range(len(codes) - 1, -1, -1):
        q = construct.prefetch_step(pre, codes[i])
        # the rope is one short: the sentinel is pending at row q
        assert pre.rope.length == len(codes) - i
        assert pre.pending
        assert pre.q == q
        expected = oracle.full_index(PackedSequence.from_codes(text.codes()[i:]), k=4)
        assert first_mismatch(snapshot(pre), expected) is None
        assert pre.rope.length == len(codes) - i
    construct.prefetch_flush(pre)
    assert not pre.pending
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


def test_built_bwt_has_no_slack():
    # a 1,000-bp build is one leaf that grew byte by byte; the flatten
    # copies it into an exact buffer rather than keeping its growth slack
    text = random_text(random.Random(21), 1000, min_len=1000)
    for schedule in ("standard", "prefetch"):
        buf = construct.build(text, k=64, schedule=schedule).bwt.data._buf
        assert len(buf) == (1001 + 3) // 4
        assert sys.getsizeof(buf) == sys.getsizeof(bytearray(bytes(buf)))


def test_unknown_schedule_rejected():
    with pytest.raises(InvalidParams):
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
    st.sampled_from([8, 16]),
)
@example([(i * i + 3 * i + i // 5) % 4 for i in range(150)], 7, 8)
@example([(i * i + 3 * i + i // 5) % 4 for i in range(150)], 64, 16)
def test_rope_states_match_oracle_after_every_step(codes, k, leaf):
    # leaves of 8 or 16 symbols split all through the build; k = 64
    # covers both k > n and texts crossing a few boundaries
    text = PackedSequence.from_codes(codes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packedbuf, "LEAF", leaf)
        std = construct.init_state(k)
        pre = construct.init_state(k)
        for i in range(len(codes) - 1, -1, -1):
            construct.step(std, codes[i])
            construct.prefetch_step(pre, codes[i])
            expected = oracle.full_index(PackedSequence.from_codes(text.codes()[i:]), k=k)
            assert first_mismatch(snapshot(std), expected) is None
            assert first_mismatch(snapshot(pre), expected) is None
        # a text of `leaf` symbols or more has split its first leaf
        assert (len(std.rope.leaves) > 1) == (len(codes) >= leaf)


def test_rope_memory_bound(monkeypatch):
    # 5,000 bp in 64-symbol leaves: every leaf at least half full and
    # exactly as long as its symbols just before the flatten
    monkeypatch.setattr(packedbuf, "LEAF", 64)
    text = random_text(random.Random(48), 5000, min_len=5000)
    codes = text.codes()
    n = len(codes) + 1
    for advance in (construct.step, construct.prefetch_step):
        state = construct.init_state(64)
        for code in reversed(codes):
            advance(state, code)
        construct.prefetch_flush(state)
        leaves = state.rope.leaves
        assert state.rope.length == sum(leaf.length for leaf in leaves) == n
        assert all(leaf.length >= 32 for leaf in leaves)
        assert sum(len(leaf._buf) for leaf in leaves) == sum(-(-leaf.length // 4) for leaf in leaves)
        assert all(len(tree) == len(leaves) + 1 <= n // 32 + 1 for tree in state.rope._trees)
        index = state.as_index()
        assert len(index.bwt.data._buf) == (n + 3) // 4
        assert first_mismatch(index, oracle.full_index(text, k=64)) is None


def held_by_build(codes, k) -> tuple:
    """(bytes traced as held by the state after the last standard step,
    the spent state's index)."""

    def steps():
        state = construct.init_state(k)
        for code in reversed(codes):
            construct.step(state, code)
        return state

    state, held, _ = traced(steps)
    return held, state.as_index()


def test_build_memory_does_not_depend_on_k():
    # the state holds no checkpoint rows: the table is tallied once, by
    # as_index, so a k = 1 build holds what a k = 2048 build holds, where
    # rows allocated up front would hold 32 bytes per symbol
    text = random_text(random.Random(50), 4096, min_len=4096)
    codes = text.codes()
    held = {}
    for k in (1, 2048):
        held[k], index = held_by_build(codes, k)
        assert first_mismatch(index, oracle.full_index(text, k=k)) is None
    assert held[2048] > 1024
    assert abs(held[1] - held[2048]) < 256


@pytest.mark.parametrize("schedule", ["standard", "prefetch"])
def test_insert_shifts_stay_inside_a_leaf(schedule, monkeypatch):
    tails = []
    insert = PackedBuffer.insert

    def counted(buf, pos, code):
        tails.append(buf.length - pos)
        return insert(buf, pos, code)

    monkeypatch.setattr(PackedBuffer, "insert", counted)
    text = random_text(random.Random(49), 6000, min_len=6000)
    index = construct.build(text, k=64, schedule=schedule)
    assert len(tails) == 6000
    assert max(tails) < packedbuf.LEAF
    assert first_mismatch(index, oracle.full_index(text, k=64)) is None


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
