import itertools
import random

import numpy as np
import pytest

from saii import oracle, packedbuf
from saii.alphabet import PackedSequence, decode, encode_text
from saii.errors import EmptyText
from saii.fmindex import Bwt
from saii.packedbuf import PackedBuffer

from helpers import decode_with_sentinel, full_occ_table, invert_bwt, naive_count, sorted_suffixes, traced


def test_suffix_array_worked_example():
    assert oracle.suffix_array(encode_text("ACGCTTG")) == [7, 0, 1, 3, 6, 2, 5, 4]


def test_suffix_array_trivial_cases():
    assert oracle.suffix_array(encode_text("A")) == [1, 0]
    assert oracle.suffix_array(encode_text("AAAA")) == [4, 3, 2, 1, 0]
    with pytest.raises(EmptyText):
        oracle.suffix_array(PackedSequence(b"", 0))


def test_suffix_array_is_sorted_permutation():
    rng = random.Random(1)
    for _ in range(50):
        text = PackedSequence.from_codes([rng.randrange(4) for _ in range(rng.randint(1, 40))])
        sa = oracle.suffix_array(text)
        n = text.length + 1
        assert sorted(sa) == list(range(n))
        assert sa[0] == n - 1
        sufs = sorted_suffixes(text)
        assert all(sufs[i] < sufs[i + 1] for i in range(n - 1))


def slice_sorted(codes) -> list:
    """The suffix array by the definition: sort the suffix code slices."""
    ext = codes + [-1]
    return sorted(range(len(ext)), key=lambda i: ext[i:])


def test_suffix_array_equals_slice_sort():
    # every text of length 1-6, then seeded random texts up to 300
    for length in range(1, 7):
        for codes in itertools.product(range(4), repeat=length):
            codes = list(codes)
            assert oracle.suffix_array(PackedSequence.from_codes(codes)) == slice_sorted(codes)
    rng = random.Random(4)
    for _ in range(100):
        codes = [rng.randrange(rng.randint(1, 4)) for _ in range(rng.randint(1, 300))]
        assert oracle.suffix_array(PackedSequence.from_codes(codes)) == slice_sorted(codes)


def test_suffix_array_memory_is_linear():
    # a sort keyed by suffix slices holds n^2 / 2 list slots: 64.5 MB here
    text = PackedSequence.from_codes([random.Random(3).randrange(4) for _ in range(4096)])
    _, _, peak = traced(lambda: oracle.suffix_array(text))
    assert peak < 2 * 1024 * 1024


def test_oracle_counts_keep_the_pair_mask_small():
    # the oracle's C array counts the whole 8,193-code BWT, four times
    # the count kernel's fixed 01-pair mask: that count makes its own
    # mask and drops it, so the kept one stays 2,048 slots and the
    # counts hold no memory once they return
    mask = packedbuf._PAIRS
    text = PackedSequence.from_codes([random.Random(14).randrange(4) for _ in range(8192)])
    invert_bwt(oracle.full_index(text, k=256).bwt)  # warm any lazily created objects
    inverts, held, _ = traced(lambda: invert_bwt(oracle.full_index(text, k=256).bwt) == text)
    assert inverts
    assert packedbuf._PAIRS is mask and mask.bit_length() == 2 * packedbuf._PAIR_SLOTS - 1
    assert held < 1024


def test_bwt_worked_example():
    text = encode_text("ACGCTTG")
    bwt = oracle.bwt_from_suffix_array(text, oracle.suffix_array(text))
    assert decode_with_sentinel(bwt) == "G$AGTCTC"
    assert bwt.dollar_pos == 1


def test_bwt_single_character():
    text = encode_text("A")
    bwt = oracle.bwt_from_suffix_array(text, oracle.suffix_array(text))
    assert decode_with_sentinel(bwt) == "A$"
    assert bwt.dollar_pos == 1


def test_bwt_inversion_roundtrip():
    rng = random.Random(2)
    for _ in range(1000):
        codes = [rng.randrange(4) for _ in range(rng.randint(1, 64))]
        text = PackedSequence.from_codes(codes)
        bwt = oracle.bwt_from_suffix_array(text, oracle.suffix_array(text))
        assert invert_bwt(bwt) == text


@pytest.mark.parametrize(
    "seq, swaps, broken", [("ACGCTTGACGTTAG", 12, 9), ("GATTACAGATTACACCGT", 16, 15)]
)
def test_invert_bwt_rejects_in_block_swaps_that_break_the_cycle(seq, swaps, broken):
    # swapping two different symbols inside one k = 4 block leaves C and
    # every checkpoint valid; only the LF cycle can tell
    text = encode_text(seq)
    bwt = oracle.bwt_from_suffix_array(text, oracle.suffix_array(text))
    codes = bwt.data.codes()
    rows = [i for i in range(len(codes)) if i != bwt.dollar_pos]
    tried = rejected = 0
    for i, j in itertools.combinations(rows, 2):
        if i // 4 != j // 4 or codes[i] == codes[j]:
            continue
        swapped = codes[:]
        swapped[i], swapped[j] = codes[j], codes[i]
        forged = Bwt(PackedBuffer.from_codes(swapped), bwt.dollar_pos)
        tried += 1
        try:
            inverted = invert_bwt(forged)
        except ValueError:
            rejected += 1
            continue
        # what survives is the BWT of another text, exactly
        again = oracle.bwt_from_suffix_array(inverted, oracle.suffix_array(inverted))
        assert (again.dollar_pos, again.payload()) == (forged.dollar_pos, forged.payload())
    assert (tried, rejected) == (swaps, broken)


def test_bwt_equals_last_column_of_sorted_rotations():
    # exhaustive over a 2-letter alphabet up to length 10
    for length in range(1, 11):
        for codes in itertools.product((0, 3), repeat=length):
            text = PackedSequence.from_codes(list(codes))
            s = decode(text) + "$"
            rotations = sorted(s[i:] + s[:i] for i in range(len(s)))
            expected = "".join(r[-1] for r in rotations)
            bwt = oracle.bwt_from_suffix_array(text, oracle.suffix_array(text))
            assert decode_with_sentinel(bwt) == expected


def test_full_occ_table_row_sums():
    text = encode_text("ACGCTTG")
    bwt = oracle.bwt_from_suffix_array(text, oracle.suffix_array(text))
    table = full_occ_table(bwt)
    for i in range(len(table)):
        expected = i + 1 - (1 if bwt.dollar_pos <= i else 0)
        assert int(table[i].sum()) == expected
    assert np.all(np.diff(table, axis=0) >= 0)


def test_full_index_fields():
    text = encode_text("ACGCTTG")
    index = oracle.full_index(text, k=4)
    assert index.c.counts == (0, 1, 3, 5)
    assert oracle.suffix_array(text) == [7, 0, 1, 3, 6, 2, 5, 4]
    assert index.n == 8
    table = full_occ_table(index.bwt)
    assert int(table[index.n - 1].sum()) == index.n - 1


def test_naive_count():
    text = encode_text("ACGCTTG")
    assert naive_count(text, encode_text("CT")) == 1
    assert naive_count(text, encode_text("TT")) == 1
    assert naive_count(text, encode_text("GG")) == 0
    assert naive_count(encode_text("AAAA"), encode_text("AA")) == 3
