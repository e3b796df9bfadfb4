import random

import numpy as np
import pytest

from saii import oracle
from saii.alphabet import PackedSequence, encode_text
from saii.errors import SaiiError
from saii.occtable import SampledOccTable, occ_count


def make_bwt(text):
    return oracle.bwt_from_suffix_array(text, oracle.suffix_array(text))


def test_checkpoints_against_full_table():
    rng = random.Random(5)
    for _ in range(60):
        codes = [rng.randrange(4) for _ in range(rng.randint(1, 256))]
        text = PackedSequence.from_codes(codes)
        bwt = make_bwt(text)
        full = oracle.full_occ_table(bwt)
        n = bwt.data.length
        for k in (2, 4, 16, 2048):
            table = SampledOccTable.build(bwt, k)
            assert table.num_checkpoints == n // k + 1
            for a in range(4):
                assert occ_count(table, bwt, a, -1) == 0
                for i in range(n):
                    assert occ_count(table, bwt, a, i) == int(full[i][a])


def test_block_sums_equal_k():
    rng = random.Random(6)
    codes = [rng.randrange(4) for _ in range(500)]
    bwt = make_bwt(PackedSequence.from_codes(codes))
    k = 16
    table = SampledOccTable.build(bwt, k)
    cps = table.checkpoints()
    assert list(cps[0]) == [0, 0, 0, 0]
    deltas = np.diff(cps, axis=0)
    assert np.all(deltas >= 0)
    assert np.all(deltas.sum(axis=1) == k)


def test_table_entry_count():
    bwt = make_bwt(encode_text("ACGCTTG" * 40))
    n = bwt.data.length
    for k in (2, 4, 16, 2048):
        table = SampledOccTable.build(bwt, k)
        assert table.checkpoints().shape == (n // k + 1, 4)


def test_rebuild_from_partial():
    rng = random.Random(7)
    codes = [rng.randrange(4) for _ in range(200)]
    bwt = make_bwt(PackedSequence.from_codes(codes))
    k = 8
    table = SampledOccTable.build(bwt, k)
    # mutate one symbol, then refresh only the blocks that can be stale
    pos = 117
    old = bwt.code_at(pos)
    bwt.data.set(pos, (old + 1) % 4)
    table.rebuild_from(bwt, pos // k)
    assert table == SampledOccTable.build(bwt, k)


def test_rebuild_appends_checkpoint_at_boundary():
    k = 4
    bwt = make_bwt(encode_text("ACG"))  # length 4 = k exactly
    table = SampledOccTable.build(bwt, k)
    assert table.num_checkpoints == 2
    bwt.insert_symbol(0, 2)
    table.rebuild_from(bwt, 0)
    assert table.num_checkpoints == 2  # 5 // 4 + 1
    bwt.insert_symbol(0, 1)
    bwt.insert_symbol(0, 1)
    bwt.insert_symbol(0, 1)
    table.rebuild_from(bwt, 0)
    assert table.num_checkpoints == 3


def test_invalid_k():
    with pytest.raises(ValueError):
        SampledOccTable(0)


def test_invalid_k_is_typed():
    for k in (0, -1):
        with pytest.raises(SaiiError, match="sampling rate"):
            SampledOccTable(k)


@pytest.mark.parametrize("length", [10, 15])  # 15: the insertion completes a block
def test_apply_insert_matches_rebuild(length):
    k = 4
    text = PackedSequence.from_codes([i * 7 % 4 for i in range(length - 1)])
    # at 0, at j*k - 1 and j*k for two boundaries, and at the end
    for pos in (0, k - 1, k, 2 * k - 1, 2 * k, length):
        for code in range(4):
            bwt = make_bwt(text)
            table = SampledOccTable.build(bwt, k)
            bwt.insert_symbol(pos, code)
            table.apply_insert(bwt, pos, code)
            assert table == SampledOccTable.build(bwt, k), (pos, code)


def test_apply_overwrite_matches_rebuild():
    k = 4
    for pos in (0, k - 1, k, 2 * k - 1, 2 * k, 12):
        for code in range(4):
            bwt = make_bwt(encode_text("ACGCTTGACGTA"))
            table = SampledOccTable.build(bwt, k)
            old = bwt.code_at(pos)
            bwt.data.set(pos, code)
            table.apply_overwrite(pos, old, code)
            assert table == SampledOccTable.build(bwt, k), (pos, code)
