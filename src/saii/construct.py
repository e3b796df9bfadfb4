"""Incremental FM-index construction by right-to-left symbol insertion.

Starting from the index of the sentinel alone, each step absorbs the
next symbol to the left using only the index built so far: the symbol
overwrites the sentinel slot, the sentinel's new row is one
backward-search step (the sentinel row *is* the row of the current
suffix, so no full search is ever run), and the sentinel is reinserted
there.  After every step the state is exactly the index of the current
suffix.

The prefetch schedule defers each sentinel insertion and merges it with
the next symbol's update: since the next symbol lands precisely where
the sentinel would have gone, both writes collapse into a single
insertion pass.  Between steps the sentinel is then pending: it is not
in the buffer, `bwt.dollar_pos` is None, and `SaiiState.q` alone holds
its row.  A step's row query stops below `q`, where the buffer agrees
with the logical index, so it needs no correction.  The final flush
inserts the last sentinel, and the result is bit-identical to the
standard schedule.

Checkpoints follow each edit by an exact delta rather than a re-count
(see `saii.occtable`): every row past the edit moves by one symbol.
The standard schedule pays two deltas per symbol, one for the
overwrite and one for the sentinel insertion; the prefetch schedule
pays one for the merged insertion, and the flush one more.  This is
the 2i/w against i/w Update charge of `saii.costmodel`.  A row is
tallied from the buffer only when the text completes a block.

Construction allocates nothing proportional to the text beyond the
index itself: the BWT buffer and checkpoint rows are reserved up front,
edits run in place, and symbols are read from the packed text one at
a time.
"""

from __future__ import annotations

from .alphabet import A, PackedSequence
from .bwt import Bwt
from .errors import CapacityExceeded, EmptyText
from .fmindex import CArray, FmIndex
from .occtable import SampledOccTable, occ_count

DEFAULT_K = 2048
HARDWARE_MAX_LEN = 131_072  # BRAM budget of the reference hardware


class SaiiState:
    """Running index of the suffix absorbed so far.

    `q` is the sentinel row in both schedules.  Between steps the
    standard schedule has the sentinel in the buffer at `bwt.dollar_pos
    == q`; the prefetch schedule leaves it pending (`bwt.dollar_pos` is
    None) until the next step or `prefetch_flush` inserts it at `q`.
    """

    __slots__ = ("bwt", "c", "occ", "q")

    def __init__(self, bwt: Bwt, c: CArray, occ: SampledOccTable):
        self.bwt = bwt
        self.c = c
        self.occ = occ
        self.q = 0

    def as_index(self, prefetch_built: bool = False) -> FmIndex:
        return FmIndex(bwt=self.bwt, c=self.c, occ=self.occ, sa=None, prefetch_built=prefetch_built)


def init_state(k: int = DEFAULT_K, *, reserve: int = 0) -> SaiiState:
    """Index of the empty text: BWT is the sentinel alone, row 0."""
    bwt = Bwt(reserve=max(reserve, 1))
    bwt.data.append(0)  # sentinel slot, stored as code A
    bwt.dollar_pos = 0
    occ = SampledOccTable(k, reserve_len=max(reserve, 1))
    occ.rebuild_from(bwt, 0)
    return SaiiState(bwt, CArray(), occ)


def step(state: SaiiState, code: int) -> int:
    """Absorb the next symbol leftward (standard schedule); returns the
    new sentinel row."""
    bwt = state.bwt
    occ = state.occ
    q_old = state.q
    bwt.overwrite(q_old, code)
    occ.apply_overwrite(q_old, A, code)  # the sentinel slot held raw A
    # One backward-search step for the extended suffix.  The query
    # prefix ends below q_old, so the overwrite cannot be seen.
    q_new = state.c.counts[code] + occ_count(occ, bwt, code, q_old - 1) + 1
    bwt.insert_sentinel(q_new)
    occ.apply_insert(bwt, q_new, A)
    state.c.add_symbol(code)
    state.q = q_new
    return q_new


def prefetch_step(state: SaiiState, code: int) -> int:
    """Absorb the next symbol with the deferred-insertion schedule;
    returns the new sentinel row (identical to the standard schedule's)."""
    bwt = state.bwt
    occ = state.occ
    q_old = state.q
    # The query prefix ends below q_old, where the buffer already
    # agrees with the logical index whether or not a sentinel is pending.
    q_new = state.c.counts[code] + occ_count(occ, bwt, code, q_old - 1) + 1
    if bwt.dollar_pos is None:
        # merged pass: the deferred sentinel slot takes this symbol
        # directly, one insertion instead of insert-then-overwrite
        bwt.insert_symbol(q_old, code)
        occ.apply_insert(bwt, q_old, code)
    else:
        # nothing deferred yet: plain overwrite of the sentinel slot
        bwt.overwrite(q_old, code)
        occ.apply_overwrite(q_old, A, code)
    state.c.add_symbol(code)
    state.q = q_new
    return q_new


def prefetch_flush(state: SaiiState) -> None:
    """Insert the pending sentinel, if any, at row `q`; afterwards the
    state is exact (there is no further symbol to merge it with)."""
    if state.bwt.dollar_pos is None:
        state.bwt.insert_sentinel(state.q)
        state.occ.apply_insert(state.bwt, state.q, A)


def build(
    text: PackedSequence,
    k: int = DEFAULT_K,
    schedule: str = "standard",
    *,
    strict_capacity: bool = False,
) -> FmIndex:
    """Build the FM-index of text + sentinel incrementally.

    Both schedules produce identical indexes; no suffix array is built.
    """
    if text.length == 0:
        raise EmptyText("cannot index an empty text")
    if schedule not in ("standard", "prefetch"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if strict_capacity and text.length > HARDWARE_MAX_LEN:
        raise CapacityExceeded(
            f"text of {text.length} symbols exceeds the hardware bound of {HARDWARE_MAX_LEN}"
        )
    state = init_state(k, reserve=text.length + 1)
    advance = step if schedule == "standard" else prefetch_step
    for i in range(text.length - 1, -1, -1):
        advance(state, text.code_at(i))
    prefetch_flush(state)
    return state.as_index(prefetch_built=schedule == "prefetch")
