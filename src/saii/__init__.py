"""Incremental FM-index construction and search for DNA sequences.

The index of a text is grown right to left using only the index built
so far, with no working memory beyond the index itself.  The package
also ships the query side (counting, backward search, bracket lookups),
a brute-force oracle used as ground truth, a cycle cost model of the
reference hardware, and a small CLI (`saii build | count | verify |
bench`).
"""

from .alphabet import PackedSequence, decode, encode_text
from .bwt import Bwt
from .construct import DEFAULT_K, SaiiState, build
from .errors import (
    CapacityExceeded,
    EmptyText,
    IndexFormatError,
    IndexOutOfRange,
    InvalidCharacter,
    InvalidParams,
    MissingSuffixArray,
    SaiiError,
)
from .fmindex import (
    CArray,
    FmIndex,
    SearchRange,
    backward_extend,
    bracket,
    build_c_array,
    count,
    first_mismatch,
    locate,
    occ_query,
    search,
)
from .costmodel import CostReport, HardwareParams, emit_scaling_table, predict_cycles, simulate_fsm
from .occtable import SampledOccTable
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
    "MissingSuffixArray",
    "PackedSequence",
    "SaiiError",
    "SaiiState",
    "SampledOccTable",
    "SearchRange",
    "backward_extend",
    "bracket",
    "build",
    "build_c_array",
    "count",
    "decode",
    "dump_index",
    "dumps_index",
    "emit_scaling_table",
    "encode_text",
    "first_mismatch",
    "load_index",
    "loads_index",
    "locate",
    "occ_query",
    "predict_cycles",
    "search",
    "simulate_fsm",
]
