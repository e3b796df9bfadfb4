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
byte fails the load.  A file with a valid CRC must also be one that a
build could have written: only flag bit 0 may be set, no padding bit is
set (`PackedBuffer` refuses one), the sentinel slot reads as A, C and
every checkpoint row agree with the BWT, and the last-to-first (LF) walk
from row 0 passes through all n rows before it returns, so the BWT is
that of some text.  The load reads the sentinel slot, C and the walk off
one unpack of the BWT.  The first column is the stable sort of the BWT,
sentinel first (Burrows & Wheeler, SRC Research Report 124, 1994): C
tallies it, and its sort order, the inverse of LF, has LF's cycles.  The
rows are tallied by the build's row kernel and must match the file's
byte for byte.  So a file loads only if a build of some text at its k
writes those bytes, the prefetch flag aside.  Serialization is
canonical: load followed by dump reproduces the input byte for byte.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .alphabet import A
from .errors import IndexFormatError
from .fmindex import Bwt, CArray, FmIndex
from .occtable import SampledOccTable
from .packedbuf import PackedBuffer

MAGIC = b"SAII"
VERSION = 1
_HEADER = struct.Struct("<4sHHQIQ4Q")
_FLAG_PREFETCH = 1


def dumps_index(index: FmIndex) -> bytes:
    """Serialize an index to bytes."""
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
    if flags & ~_FLAG_PREFETCH:
        raise IndexFormatError(f"unknown flag bits {flags:#06x}")
    if n < 1 or k < 1 or not dollar < n:
        raise IndexFormatError("inconsistent header fields")
    rows_at = _HEADER.size + ((n + 3) >> 2)
    expected = rows_at + (n // k + 1) * 32
    if len(body) != expected:
        raise IndexFormatError(f"file holds {len(body)} bytes, expected {expected}")
    try:
        bwt = Bwt(PackedBuffer(bytearray(body[_HEADER.size : rows_at]), n), dollar)
    except ValueError as err:  # the size is right, so padding bits are set
        raise IndexFormatError(str(err)) from None
    c = CArray([c0, c1, c2, c3])
    occ = _check_consistent(bwt, c, k, body[rows_at:])
    return FmIndex(bwt=bwt, c=c, occ=occ, prefetch_built=bool(flags & _FLAG_PREFETCH))


def _check_consistent(bwt: Bwt, c: CArray, k: int, rows: bytes) -> SampledOccTable:
    """The occurrence table of `bwt`; IndexFormatError unless the file's
    checkpoint `rows` and `c` agree with the BWT and the BWT is one LF
    cycle of all its n rows.  Every check but the rows reads one unpack
    of the payload; the rows come from `SampledOccTable.build`.  The
    padding needs no check: `PackedBuffer` refuses a set padding bit."""
    n = bwt.data.length
    packed = np.frombuffer(bwt.payload(), dtype=np.uint8)
    codes = ((packed[:, None] >> np.array([0, 2, 4, 6], dtype=np.uint8)) & 3).reshape(-1)
    if codes[bwt.dollar_pos] != A:
        raise IndexFormatError("sentinel slot does not read as A")
    occ = SampledOccTable.build(bwt, k)
    if occ.checkpoints().astype("<u8").tobytes() != rows:
        raise IndexFormatError("occurrence checkpoints disagree with the BWT")
    # first-column key: the sentinel 0, each code c as c + 1
    key = codes[:n] + 1
    key[bwt.dollar_pos] = 0
    if c.counts != CArray.from_tally(np.bincount(key, minlength=5)[1:].tolist()).counts:
        raise IndexFormatError("C array disagrees with the BWT")
    # the stable sort of the BWT is its first column: row i of it holds
    # BWT row first[i], so `first` is the inverse of LF and has its cycles
    first = np.argsort(key, kind="stable").tolist()
    row, steps = first[0], 1
    while row:
        row, steps = first[row], steps + 1
    if steps != n:
        raise IndexFormatError(f"BWT is not one LF cycle: row 0 recurs after {steps} of {n} rows")
    return occ


def dump_index(index: FmIndex, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dumps_index(index))


def load_index(path) -> FmIndex:
    with open(path, "rb") as fh:
        return loads_index(fh.read())
