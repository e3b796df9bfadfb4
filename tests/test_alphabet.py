import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from saii.alphabet import PackedSequence, decode, encode_text
from saii.errors import EmptyText, InvalidCharacter

acgt = st.text(alphabet="ACGT", min_size=1, max_size=64)


def test_alphabet_identity():
    assert encode_text("ACGT").codes() == [0, 1, 2, 3]


def test_example_lookup():
    seq = encode_text("ACGCTTG")
    assert seq.codes() == [0, 1, 2, 1, 3, 3, 2]
    assert decode(seq) == "ACGCTTG"


def test_invalid_character_position():
    with pytest.raises(InvalidCharacter) as err:
        encode_text("ACGN")
    assert err.value.position == 3
    assert err.value.char == "N"


def test_substitution_mode_maps_to_a():
    assert decode(encode_text("ACGN", substitute=True)) == "ACGA"


def test_case_folding():
    assert decode(encode_text("acgt")) == "ACGT"
    assert encode_text("aCgT") == encode_text("ACGT")


def test_empty_text_rejected():
    with pytest.raises(EmptyText):
        encode_text("")


def test_empty_sequence_decodes_to_empty():
    assert decode(PackedSequence(b"", 0)) == ""


def test_payload_size_exact():
    for n in range(1, 10):
        seq = encode_text("A" * n)
        assert len(seq.data) == (n + 3) // 4


@given(acgt)
def test_roundtrip(s):
    assert decode(encode_text(s)) == s


@given(acgt, acgt)
def test_order_preserved(s, t):
    assert (s < t) == (encode_text(s) < encode_text(t))


def test_encode_text_streams():
    # packing must not materialize a per-character intermediate
    text = "ACGT" * 1024
    encode_text(text)  # warm any lazily created objects
    tracemalloc.start()
    try:
        encode_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text)


def test_suffix_and_code_at():
    seq = encode_text("ACGCTTG")
    assert decode(seq.suffix(3)) == "CTTG"
    assert seq.code_at(4) == 3
    with pytest.raises(IndexError):
        seq.code_at(7)
