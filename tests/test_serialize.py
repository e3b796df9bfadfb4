import struct
import zlib

import numpy as np
import pytest

from saii import construct, oracle
from saii.packedbuf import LEAF, PackedBuffer
from saii.alphabet import encode_text
from saii.errors import IndexFormatError
from saii.fmindex import count, first_mismatch
from saii.serialize import dump_index, dumps_index, load_index, loads_index
from saii.textgen import random_sequence


def test_roundtrip_fields():
    index = construct.build(encode_text("ACGCTTG"), k=4)
    loaded = loads_index(dumps_index(index))
    assert first_mismatch(index, loaded) is None
    assert loaded.prefetch_built == index.prefetch_built
    assert count(loaded, encode_text("CT")) == 1


def test_prefetch_flag_survives():
    index = construct.build(encode_text("ACGCTTG"), k=4, schedule="prefetch")
    assert loads_index(dumps_index(index)).prefetch_built


def test_canonical_bytes():
    rng = np.random.default_rng(123)
    for _ in range(25):
        text = random_sequence(rng, int(rng.integers(1, 200)))
        k = int(rng.choice([1, 2, 7, 16, 2048]))
        blob = dumps_index(construct.build(text, k=k))
        assert dumps_index(loads_index(blob)) == blob


def test_load_counts_no_range_longer_than_a_leaf(monkeypatch):
    # a build ranks within leaves of LEAF = 1,024 codes and a load
    # tallies k-blocks, so neither counts the whole 8,193-code BWT
    ranges = []
    count_range, count_code = PackedBuffer.count_range, PackedBuffer.count_code

    def logged_range(self, start, stop):
        ranges.append(stop - start)
        return count_range(self, start, stop)

    def logged_code(self, code, start, stop):
        ranges.append(stop - start)
        return count_code(self, code, start, stop)

    monkeypatch.setattr(PackedBuffer, "count_range", logged_range)
    monkeypatch.setattr(PackedBuffer, "count_code", logged_code)
    index = construct.build(random_sequence(np.random.default_rng(14), 8192), k=256)
    assert ranges and max(ranges) <= LEAF
    ranges.clear()
    assert loads_index(dumps_index(index)) == index
    assert ranges and max(ranges) <= index.k


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
    ],
    ids=["sentinel", "padding", "checkpoint", "c", "flags"],
)
def test_forged_field_rejected(edit, message):
    blob = dumps_index(construct.build(encode_text("ACGCTTGACGTTAG"), k=4))
    loads_index(_forge(blob, lambda body: None))  # the forging alone keeps a file valid
    with pytest.raises(IndexFormatError, match=message):
        loads_index(_forge(blob, edit))


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
