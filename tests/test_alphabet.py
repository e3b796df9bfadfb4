import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from saii.alphabet import SYMBOLS, PackedSequence, decode, encode_text
from saii.errors import EmptyText, InvalidCharacter

from helpers import traced

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


def test_invalid_character_pickles():
    # the package's own pool re-raises every error as a plain SaiiError
    # naming the record, but a caller's process pool sends it back pickled
    err = pickle.loads(pickle.dumps(InvalidCharacter(3, "N")))
    assert (err.position, err.char) == (3, "N")
    assert str(err) == "invalid character 'N' at position 3"


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
        assert len(seq.payload()) == (n + 3) // 4


@given(acgt)
def test_roundtrip(s):
    assert decode(encode_text(s)) == s


@given(acgt, acgt)
def test_order_preserved(s, t):
    assert (s < t) == (encode_text(s).codes() < encode_text(t).codes())


def test_encode_text_streams():
    # packing must not materialize a per-character intermediate
    text = "ACGT" * 1024
    encode_text(text)  # warm any lazily created objects
    _, _, peak = traced(lambda: encode_text(text))
    assert peak < len(text)


def test_encode_text_equals_from_codes_across_chunk_edges():
    # texts shorter than one 128-character chunk and on either side of
    # its edge, in both cases; a bad character just before or just after
    # the edge is reported at its own position, the first one winning
    rng = random.Random(19)
    for n in [*range(1, 10), 127, 128, 129, 255, 256, 257]:
        codes = [rng.randrange(4) for _ in range(n)]
        text = "".join(rng.choice((ch, ch.lower())) for ch in (SYMBOLS[c] for c in codes))
        assert encode_text(text) == PackedSequence.from_codes(codes), n
        for pos in {0, n - 1, 126, 127, 128} & set(range(n)):
            for bad in "N?é-\x00":
                broken = text[:pos] + bad + text[pos + 1 :] + bad
                with pytest.raises(InvalidCharacter) as err:
                    encode_text(broken)
                assert (err.value.position, err.value.char) == (pos, bad)
                substituted = codes[:pos] + [0] + codes[pos + 1 :] + [0]
                assert encode_text(broken, substitute=True) == PackedSequence.from_codes(substituted)


def test_suffix_and_code_at():
    seq = encode_text("ACGCTTG")
    assert decode(seq.suffix(3)) == "CTTG"
    assert seq.code_at(4) == 3
    with pytest.raises(IndexError):
        seq.code_at(7)
