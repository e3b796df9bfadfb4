import random

import numpy as np
import pytest

from saii import construct, oracle
from saii.alphabet import PackedSequence, encode_text
from saii.errors import SaiiError
from saii.occtable import SampledOccTable, occ_count
from saii.serialize import dumps_index, loads_index

from helpers import record_count_reads


def make_bwt(text):
    """The oracle's BWT of `text`."""
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
            assert table.checkpoints().shape == (n // k + 1, 4)
            for a in range(4):
                assert occ_count(table, bwt, a, -1) == 0
                for i in range(n):
                    assert occ_count(table, bwt, a, i) == int(full[i][a])


def test_checkpoint_rows_against_full_table():
    # row j tallies BWT[0 : j*k]: the oracle's row j*k - 1, with the
    # sentinel slot counted as an A once the row passes it; at k = 4,096
    # a row is longer than the 2,048-slot 01-pair mask and makes its own
    rng = random.Random(31)
    for length in [1, 2, 3, 4, 5, 6, 63, 64, 2047, 2048, 4095, 4096, 4097, 5000]:
        bwt = make_bwt(PackedSequence.from_codes([rng.randrange(4) for _ in range(length)]))
        full = oracle.full_occ_table(bwt)
        for k in (1, 3, 7, 64, 2048, 4096):
            ends = np.arange(k, bwt.data.length + 1, k)
            expected = np.zeros((len(ends) + 1, 4), dtype=np.int64)
            expected[1:] = full[ends - 1]
            expected[1:, 0] += ends > bwt.dollar_pos
            assert np.array_equal(SampledOccTable.build(bwt, k).checkpoints(), expected), (length, k)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 2048])
def test_occ_count_reads_one_word(k, monkeypatch):
    # n on, one past and mid a 32-symbol directory word: every count at
    # every k equals the full table, and none scans the BWT
    rng = random.Random(k)
    for n in (64, 65, 80):
        text = PackedSequence.from_codes([rng.randrange(4) for _ in range(n - 1)])
        bwt = make_bwt(text)
        full = oracle.full_occ_table(bwt)
        table = SampledOccTable.build(bwt, k)
        reads = record_count_reads(monkeypatch)
        for a in range(4):
            assert occ_count(table, bwt, a, -1) == 0
            for i in range(n):
                assert occ_count(table, bwt, a, i) == int(full[i][a]), (n, a, i)
        assert reads == []
        monkeypatch.undo()


def test_rank_directory_made_by_the_first_count():
    # builds and loads never count, so they make no directory; the first
    # count makes it at 8 bytes of BWT word and 16 of tallies per 32 symbols
    rng = random.Random(9)
    for n in (1, 31, 32, 33, 300):
        text = PackedSequence.from_codes([rng.randrange(4) for _ in range(n)])
        built = construct.build(text, k=7)
        loaded = loads_index(dumps_index(built))
        for index in (built, loaded):
            assert index.occ._rank is None
            occ_count(index.occ, index.bwt, 0, 0)
            assert sum(part.nbytes for part in index.occ._rank) == 24 * (index.n // 32 + 1)


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
    old = bwt.data.code_at(pos)
    bwt.data.set(pos, (old + 1) % 4)
    occ_count(table, bwt, 0, 0)  # a directory of the BWT before the edit
    table.rebuild_from(bwt, pos // k)
    assert table._rank is None
    assert np.array_equal(table.checkpoints(), SampledOccTable.build(bwt, k).checkpoints())
    full = oracle.full_occ_table(bwt)
    for a in range(4):
        for i in range(bwt.data.length):
            assert occ_count(table, bwt, a, i) == int(full[i][a]), (a, i)


def test_invalid_k():
    with pytest.raises(ValueError):
        SampledOccTable(0, 1)


def test_invalid_k_is_typed():
    for k in (0, -1, 1 << 32):
        with pytest.raises(SaiiError, match="sampling rate"):
            SampledOccTable(k, 1)
        with pytest.raises(SaiiError, match="sampling rate"):
            construct.init_state(k)  # before the first step

