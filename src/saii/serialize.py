"""Binary index file format.

Little-endian throughout:

    magic    4 bytes  "SAII"
    version  u16      currently 1
    flags    u16      bit 0: built by the prefetch schedule (informational)
    n        u64      indexed length including the sentinel
    k        u32      occurrence-table sampling rate
    dollar   u64      sentinel position in the BWT
    c        4 x u64  cumulative smaller-symbol counts
    bwt      ceil(n/4) bytes of 2-bit codes (sentinel slot reads as A)
    occ      (n // k + 1) x 4 x u64 checkpoint rows
    crc32    u32      over all preceding bytes

The CRC is verified before anything is parsed, so any single corrupted
byte fails the load.  Serialization is canonical: load followed by dump
reproduces the input byte for byte.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .bwt import Bwt
from .errors import IndexFormatError
from .fmindex import CArray, FmIndex
from .occtable import SampledOccTable
from .packedbuf import PackedBuffer

MAGIC = b"SAII"
VERSION = 1
_HEADER = struct.Struct("<4sHHQIQ4Q")
_FLAG_PREFETCH = 1


def dumps_index(index: FmIndex) -> bytes:
    """Serialize an index to bytes (the suffix array is never stored)."""
    n, k = index.n, index.k
    flags = _FLAG_PREFETCH if index.prefetch_built else 0
    header = _HEADER.pack(MAGIC, VERSION, flags, n, k, index.bwt.dollar_pos, *index.c.counts)
    payload = index.bwt.payload()
    checkpoints = index.occ.checkpoints()
    body = header + payload + checkpoints.astype("<u8").tobytes()
    return body + struct.pack("<I", zlib.crc32(body))


def loads_index(blob: bytes) -> FmIndex:
    if len(blob) < _HEADER.size + 4:
        raise IndexFormatError("file too short to be an index")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise IndexFormatError("checksum mismatch: file is corrupt")
    magic, version, flags, n, k, dollar, c0, c1, c2, c3 = _HEADER.unpack_from(body)
    if magic != MAGIC:
        raise IndexFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise IndexFormatError(f"unsupported format version {version}")
    if n < 1 or k < 1 or not dollar < n:
        raise IndexFormatError("inconsistent header fields")
    payload_len = (n + 3) >> 2
    rows = n // k + 1
    expected = _HEADER.size + payload_len + rows * 32
    if len(body) != expected:
        raise IndexFormatError(f"file holds {len(body)} bytes, expected {expected}")
    checkpoints = (
        np.frombuffer(body, dtype="<u8", count=rows * 4, offset=_HEADER.size + payload_len)
        .reshape(rows, 4)
        .astype(np.int64)
    )
    return FmIndex(
        bwt=Bwt(PackedBuffer(body[_HEADER.size : _HEADER.size + payload_len], n), dollar),
        c=CArray([c0, c1, c2, c3]),
        occ=SampledOccTable.from_rows(k, checkpoints),
        sa=None,
        prefetch_built=bool(flags & _FLAG_PREFETCH),
    )


def dump_index(index: FmIndex, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dumps_index(index))


def load_index(path) -> FmIndex:
    with open(path, "rb") as fh:
        return loads_index(fh.read())
