"""Byte parity: index files and cost-model tables hash to recorded digests.

The digests were recorded from the code as it stood before the helpers
of `saii` moved into their callers, so any change to the bytes a build
writes or to the model's figures fails here.  A change that means to
alter them records new digests and says why.
"""

import hashlib
import struct

import numpy as np

from saii import HardwareParams, PackedSequence, construct, dumps_index, emit_scaling_table, search

# one text of each length: short texts, k-block and leaf edges, and one past a leaf split
LENGTHS = (1, 2, 3, 4, 5, 17, 100, 257, 1023, 1025, 2049, 3000)
KS = (1, 3, 4, 7, 64, 2048, 4096)


def test_index_files_and_scaling_tables_match_recorded_digests():
    rng = np.random.default_rng(18)
    files = hashlib.sha256()
    for n in LENGTHS:
        text = PackedSequence.from_codes(rng.integers(0, 4, size=n).tolist())
        for k in KS:
            for schedule in ("standard", "prefetch"):
                files.update(dumps_index(construct.build(text, k=k, schedule=schedule)))
    assert files.hexdigest() == "9e69d8a9e1ed63785f61f96fd667242453b8c65384a875fa97ca275c8865390d"
    tables = hashlib.sha256()
    for m in (1, 3):
        for k in (1, 3, 2048):
            tables.update(emit_scaling_table(HardwareParams(m=m, k=k), [1, 7, 2047, 2049, 131073]).encode())
    assert tables.hexdigest() == "1dfb73c561a053a3eb89d46fe085f868800ef04a239064841a1e1c92997a7013"


def test_search_intervals_match_recorded_digest():
    # texts ending on, one past and mid a 32-symbol word, and past a k-block
    rng = np.random.default_rng(19)
    digest = hashlib.sha256()
    for n in (31, 32, 47, 1000, 4999):
        codes = rng.integers(0, 4, size=n).tolist()
        for k in (1, 3, 7, 64, 2048):
            index = construct.build(PackedSequence.from_codes(codes), k=k)
            for i in range(60):
                m = int(rng.integers(1, 65))
                if i % 2 == 0 and m <= n:
                    start = int(rng.integers(0, n - m + 1))
                    query = codes[start : start + m]
                else:
                    query = rng.integers(0, 4, size=m).tolist()
                found = search(index, PackedSequence.from_codes(query))
                digest.update(struct.pack("<qq", found.low, found.high))
    assert digest.hexdigest() == "122ab5910b8f20c1cb618500f72f8b9013fa3e8dc1f9af41ed3b5cf7bfb315ec"
