import contextlib
import io
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saii import cli, construct, oracle
from saii.packedbuf import LEAF, PackedBuffer
from saii.alphabet import PackedSequence, encode_text
from saii.errors import IndexFormatError
from saii.fmindex import count, first_mismatch
from saii.serialize import dump_index, dumps_index, load_index, loads_index

from helpers import invert_bwt, record_count_reads


def test_roundtrip_fields():
    for k in (4, (1 << 32) - 1):  # the largest k the u32 field holds
        index = construct.build(encode_text("ACGCTTG"), k=k)
        loaded = loads_index(dumps_index(index))
        assert first_mismatch(index, loaded) is None
        assert loaded.k == k
        assert loaded.prefetch_built == index.prefetch_built
        assert count(loaded, encode_text("CT")) == 1


def test_prefetch_flag_survives():
    index = construct.build(encode_text("ACGCTTG"), k=4, schedule="prefetch")
    assert loads_index(dumps_index(index)).prefetch_built


def test_canonical_bytes():
    rng = np.random.default_rng(123)
    for _ in range(25):
        text = PackedSequence.from_codes(rng.integers(0, 4, size=int(rng.integers(1, 200))).tolist())
        k = int(rng.choice([1, 2, 7, 16, 2048]))
        blob = dumps_index(construct.build(text, k=k))
        assert dumps_index(loads_index(blob)) == blob


def test_load_counts_no_range_longer_than_a_leaf(monkeypatch):
    # a build ranks within leaves of LEAF = 1,024 codes and a load
    # tallies k-blocks, so neither counts the whole 8,193-code BWT
    reads = record_count_reads(monkeypatch)
    text = PackedSequence.from_codes(np.random.default_rng(14).integers(0, 4, size=8192).tolist())
    index = construct.build(text, k=256)
    assert reads and max(stop - start for start, stop in reads) <= LEAF
    reads.clear()
    assert loads_index(dumps_index(index)) == index
    assert reads and max(stop - start for start, stop in reads) <= index.k
    # exactly the k-block rows: the padding, the tail and C are read off
    # the load's unpack, not counted
    k = index.k
    assert reads == [((j - 1) * k, j * k) for j in range(1, index.n // k + 1)]


def test_every_single_byte_corruption_detected():
    blob = bytearray(dumps_index(construct.build(encode_text("ACGCTTGACGT"), k=4)))
    for pos in range(len(blob)):
        bad = bytearray(blob)
        bad[pos] ^= 0x5A
        with pytest.raises(IndexFormatError):
            loads_index(bytes(bad))


def _forge(blob: bytes, edit) -> bytes:
    """`blob` with `edit` applied to its body and the CRC recomputed."""
    body = bytearray(blob[:-4])
    edit(body)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def _add_u64(offset: int, delta: int):
    return lambda body: struct.pack_into("<Q", body, offset, struct.unpack_from("<Q", body, offset)[0] + delta)


def _sentinel_to_c(body) -> None:
    (dollar,) = struct.unpack_from("<Q", body, 20)
    body[60 + (dollar >> 2)] |= 1 << ((dollar & 3) << 1)


def _padding_to_t(body) -> None:
    body[63] |= 0xC0


def _unknown_flags(body) -> None:
    struct.pack_into("<H", body, 6, 0xFFFE)


def _dollar_to_n(body) -> None:
    struct.pack_into("<Q", body, 20, 15)  # one past the last BWT slot


# n = 15 at k = 4: the BWT is bytes 60..63 with one padding slot in the
# top bits of byte 63, and checkpoint row j starts at byte 64 + 32 j.
@pytest.mark.parametrize(
    "edit, message",
    [
        (_sentinel_to_c, "sentinel"),
        (_padding_to_t, "padding"),
        (_add_u64(64 + 32 + 24, 1), "checkpoints"),  # row 1, count of T
        (_add_u64(28 + 24, 1), "C array"),  # C[T]
        (_unknown_flags, "flag bits"),  # every bit but the prefetch bit
        (_dollar_to_n, "inconsistent header fields"),
    ],
    ids=["sentinel", "padding", "checkpoint", "c", "flags", "dollar"],
)
def test_forged_field_rejected(edit, message):
    blob = dumps_index(construct.build(encode_text("ACGCTTGACGTTAG"), k=4))
    loads_index(_forge(blob, lambda body: None))  # the forging alone keeps a file valid
    with pytest.raises(IndexFormatError, match=message):
        loads_index(_forge(blob, edit))


def _loads_as_its_own_text(blob: bytes) -> bool:
    """False if the load rejects `blob`; True if it loads to the oracle
    index of the text its BWT spells.  Anything else fails the test."""
    try:
        loaded = loads_index(blob)
    except IndexFormatError:
        return False
    assert loaded == oracle.full_index(invert_bwt(loaded.bwt), k=4)
    return True


@pytest.mark.parametrize(
    "seq, swaps, broken", [("ACGCTTGACGTTAG", 12, 9), ("GATTACAGATTACACCGT", 16, 15)]
)
def test_in_block_swaps_that_break_the_lf_cycle_rejected(seq, swaps, broken):
    # swapping two different symbols inside one k = 4 block leaves C and
    # every checkpoint row valid; only the LF cycle can tell
    index = construct.build(encode_text(seq), k=4)
    blob = dumps_index(index)
    codes, dollar = index.bwt.data.codes(), index.bwt.dollar_pos
    tried = rejected = 0
    for i in range(len(codes)):
        for j in range(i + 1, len(codes)):
            if i // 4 != j // 4 or dollar in (i, j) or codes[i] == codes[j]:
                continue
            swapped = codes[:]
            swapped[i], swapped[j] = codes[j], codes[i]
            payload = PackedBuffer.from_codes(swapped).payload()

            def write_bwt(body, payload=payload):
                body[60 : 60 + len(payload)] = payload

            tried += 1
            rejected += not _loads_as_its_own_text(_forge(blob, write_bwt))
    assert (tried, rejected) == (swaps, broken)


def test_every_bwt_byte_value_rejected_or_a_valid_index():
    blob = dumps_index(construct.build(encode_text("ACGCTTGACGTTAG"), k=4))
    loaded = 0
    for pos in range(60, 64):  # n = 15: the BWT is bytes 60..63
        for value in range(256):

            def write_byte(body, pos=pos, value=value):
                body[pos] = value

            loaded += _loads_as_its_own_text(_forge(blob, write_byte))
    assert loaded == 8  # the unedited file once per byte, and four BWTs of other texts


def _consistent_edit(body, index, rng) -> None:
    """Edit the body of `index`'s file, drawing from `rng`, so that C and
    every checkpoint row stay valid: set padding bits in the last BWT
    byte, or swap two different codes inside one k-block (or inside the
    tail past the last row), never the sentinel slot.  No edit when there
    is neither.  Only the padding and the LF cycle can tell."""
    codes, dollar, k, n = index.bwt.data.codes(), index.bwt.dollar_pos, index.k, index.n
    used = (n & 3) << 1
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, min(n, (i // k + 1) * k))
        if codes[i] != codes[j] and dollar not in (i, j)
    ]
    if used and (not pairs or rng.random() < 0.5):
        body[60 + ((n - 1) >> 2)] |= rng.randrange(1, 1 << (8 - used)) << used
    elif pairs:
        i, j = rng.choice(pairs)
        codes[i], codes[j] = codes[j], codes[i]
        payload = PackedBuffer.from_codes(codes).payload()
        body[60 : 60 + len(payload)] = payload


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=300),
    st.sampled_from([1, 3, 4, 7, 64, 2048]),
    st.sampled_from(["standard", "prefetch"]),
    st.sampled_from(["bytes", "resize", "consistent"]),
    st.integers(0, (1 << 32) - 1),
)
# seeds whose edits load: a BWT byte that spells another text, and the flag bit
@example(encode_text("ACGCTTGACGTTAG").codes(), 4, "standard", "bytes", 765)
@example(encode_text("ACGCTTGACGTTAG").codes(), 4, "standard", "bytes", 14439)
def test_seeded_corruption_rejected_or_a_valid_index(tmp_path_factory, codes, k, schedule, mode, seed):
    # 1-3 bytes anywhere in the body set, the body cut or extended by
    # 1-40 bytes, or an edit that keeps C and the rows valid, all drawn
    # from `seed`, with the CRC recomputed; a load must reject the file
    # or give the oracle index of its BWT's text
    index = construct.build(PackedSequence.from_codes(codes), k=k, schedule=schedule)
    blob = dumps_index(index)
    rng = random.Random(seed)

    def apply(body):
        if mode == "bytes":
            for _ in range(rng.randint(1, 3)):
                body[rng.randrange(len(body))] = rng.randrange(256)
        elif mode == "consistent":
            _consistent_edit(body, index, rng)
        elif rng.random() < 0.5:
            del body[-rng.randint(1, 40) :]
        else:
            body += rng.randbytes(rng.randint(1, 40))

    bad = _forge(blob, apply)
    try:
        loaded = loads_index(bad)
    except IndexFormatError:
        pass
    else:
        assert loaded == oracle.full_index(invert_bwt(loaded.bwt), loaded.k)
        assert dumps_index(loaded) == bad
    path = tmp_path_factory.getbasetemp() / "corrupt.saii"
    path.write_bytes(bad)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["count", str(path), "ACG"]) in (0, 1)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("k", [1, 4])
def test_sentinel_only_file_rejected(tmp_path, capsys, k):
    # a CRC-valid file of n = 1 is the empty text's index, which no build
    # writes: the sentinel alone, its slot counted as an A in row 1 at k = 1
    rows = np.zeros((1 // k + 1, 4), dtype="<u8")
    rows[1:, 0] = 1
    body = struct.pack("<4sHHQIQ4Q", b"SAII", 1, 0, 1, k, 0, 0, 0, 0, 0) + b"\0" + rows.tobytes()
    path = tmp_path / "empty.saii"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(IndexFormatError, match="header"):
        load_index(path)
    assert cli.main(["count", str(path), "A"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inconsistent header fields") and "Traceback" not in err


def test_truncated_file_rejected():
    blob = dumps_index(construct.build(encode_text("ACGT"), k=4))
    with pytest.raises(IndexFormatError):
        loads_index(blob[:10])
    with pytest.raises(IndexFormatError):
        loads_index(blob[:-1])


def test_file_roundtrip(tmp_path):
    index = oracle.full_index(encode_text("ACGCTTG"), k=2)
    path = tmp_path / "x.saii"
    dump_index(index, path)
    loaded = load_index(path)
    assert first_mismatch(index, loaded) is None
