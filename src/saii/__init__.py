"""Incremental FM-index construction and search for DNA sequences.

The index of a text is grown right to left using only the index built
so far, with no working memory beyond the index itself.  The package
also ships the query side (counting and backward search), a
brute-force oracle used as ground truth, a cycle cost model of the
reference hardware, and a small CLI (`saii build | count | verify |
bench`).
"""

from .alphabet import PackedSequence, decode, encode_text
from .construct import build
from .errors import (
    CapacityExceeded,
    EmptyText,
    IndexFormatError,
    IndexOutOfRange,
    InvalidCharacter,
    InvalidParams,
    SaiiError,
)
from .fmindex import (
    Bwt,
    CArray,
    FmIndex,
    SearchRange,
    backward_extend,
    count,
    first_mismatch,
    occ_query,
    search,
)
from .costmodel import CostReport, HardwareParams, emit_scaling_table, predict_cycles
from .occtable import DEFAULT_K, SampledOccTable
from .serialize import dump_index, dumps_index, load_index, loads_index

__version__ = "0.1.0"

__all__ = [
    "Bwt",
    "CArray",
    "CapacityExceeded",
    "CostReport",
    "DEFAULT_K",
    "EmptyText",
    "FmIndex",
    "HardwareParams",
    "IndexFormatError",
    "IndexOutOfRange",
    "InvalidCharacter",
    "InvalidParams",
    "PackedSequence",
    "SaiiError",
    "SampledOccTable",
    "SearchRange",
    "backward_extend",
    "build",
    "count",
    "decode",
    "dump_index",
    "dumps_index",
    "emit_scaling_table",
    "encode_text",
    "first_mismatch",
    "load_index",
    "loads_index",
    "occ_query",
    "predict_cycles",
    "search",
]
