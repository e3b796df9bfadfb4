"""Incremental FM-index construction by right-to-left symbol insertion.

Starting from the index of the sentinel alone, each step absorbs the
next symbol to the left using only the index built so far.  The
sentinel's new row is one backward-search step (the sentinel row *is*
the row of the current suffix, so no full search is ever run); the
symbol then takes the sentinel's old slot, and the sentinel moves to
the new row.

There is one step, `prefetch_step`, after the paper's prefetch
controller: it leaves the sentinel pending, out of the buffer with
`bwt.dollar_pos` None and its row held by `SaiiState.q` alone.  The
next step puts its symbol where the sentinel would have gone, so both
writes collapse into a single insertion; `prefetch_flush` inserts the
last sentinel.  The standard schedule, `step`, is that same step with
the flush run at once: the symbol overwrites the sentinel slot and the
sentinel is reinserted, so after every standard step the state is
exactly the index of the current suffix.  A step's row query stops
below `q`, where the buffer agrees with the logical index either way,
and both schedules give bit-identical indexes.

Checkpoints follow each edit by an exact delta rather than a re-count
(see `saii.occtable`): every row past the edit moves by one symbol.
The standard schedule pays two deltas per symbol, one for the
overwrite and one for the sentinel insertion; the prefetch schedule
pays one for the merged insertion, and the flush one more.  This is
the 2i/w against i/w Update charge of `saii.costmodel`.  A row is
tallied from the buffer only when the text completes a block.

Construction allocates nothing proportional to the text beyond the
index itself: like the hardware's memory, the BWT buffer and checkpoint
rows are sized once, for the whole text, before the first step; edits
run in place, and symbols are read from the packed text one at a time.
"""

from __future__ import annotations

from .alphabet import A, PackedSequence
from .bwt import Bwt
from .errors import CapacityExceeded, EmptyText
from .fmindex import CArray, FmIndex
from .occtable import SampledOccTable, occ_count
from .packedbuf import PackedBuffer

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
        return FmIndex(bwt=self.bwt, c=self.c, occ=self.occ, prefetch_built=prefetch_built)


def init_state(k: int, capacity: int) -> SaiiState:
    """Index of the empty text, with room for a BWT of `capacity`
    symbols: the BWT is the sentinel alone, at row 0.  The buffer starts
    zeroed, so the sentinel slot already stores code A."""
    bwt = Bwt(PackedBuffer(bytearray((capacity + 3) >> 2), 1), 0)
    occ = SampledOccTable(k, capacity)
    occ.rebuild_from(bwt, 0)
    return SaiiState(bwt, CArray(), occ)


def step(state: SaiiState, code: int) -> int:
    """Absorb the next symbol leftward (standard schedule): the prefetch
    step with its sentinel inserted at once.  Returns the new sentinel
    row."""
    prefetch_step(state, code)
    prefetch_flush(state)
    return state.q


def prefetch_step(state: SaiiState, code: int) -> int:
    """Absorb the next symbol with the deferred-insertion schedule;
    returns the new sentinel row, and leaves the sentinel pending."""
    bwt = state.bwt
    occ = state.occ
    q_old = state.q
    # One backward-search step for the extended suffix.  The query
    # prefix ends below q_old, where the buffer agrees with the logical
    # index whether or not a sentinel is pending, and neither edit
    # below moves a checkpoint the query reads.
    q_new = state.c.counts[code] + occ_count(occ, bwt, code, q_old - 1) + 1
    if bwt.dollar_pos is None:
        # merged pass: the deferred sentinel slot takes this symbol
        # directly, one insertion instead of insert-then-overwrite
        bwt.data.insert(q_old, code)
        occ.apply_insert(bwt, q_old, code)
    else:
        # the sentinel is in the buffer: overwrite its slot
        bwt.data.set(q_old, code)
        bwt.dollar_pos = None
        occ.apply_overwrite(q_old, A, code)  # the sentinel slot held raw A
    state.c.add_symbol(code)
    state.q = q_new
    return q_new


def prefetch_flush(state: SaiiState) -> None:
    """Insert the pending sentinel, if any, at row `q`; afterwards the
    state is exact."""
    bwt = state.bwt
    if bwt.dollar_pos is None:
        bwt.data.insert(state.q, A)  # the sentinel slot stores raw A
        bwt.dollar_pos = state.q
        state.occ.apply_insert(bwt, state.q, A)


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
    state = init_state(k, text.length + 1)
    advance = step if schedule == "standard" else prefetch_step
    for i in range(text.length - 1, -1, -1):
        advance(state, text.code_at(i))
    prefetch_flush(state)
    return state.as_index(prefetch_built=schedule == "prefetch")
