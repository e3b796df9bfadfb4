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
insertion pass.  The buffer then lags the standard schedule by one
pending sentinel, tracked by a monitor so lower-bound queries still see
the logical index; the final flush materializes the last sentinel and
the result is bit-identical to the standard schedule.

Checkpoints follow each edit by an exact delta rather than a re-count
(see `saii.occtable`): every row past the edit moves by one symbol.
The standard schedule pays two deltas per symbol, one for the
overwrite and one for the sentinel insertion; the prefetch schedule
pays one for the merged insertion, and the flush one more.  This is
the 2i/w against i/w Update charge of `saii.costmodel`.  A row is
tallied from the buffer only when the text completes a block.

Construction allocates nothing proportional to the text beyond the
index itself: the BWT buffer and checkpoint rows are reserved up front
and edits run in place.
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

    `q` is the sentinel row; at every standard-schedule iteration
    boundary it equals `bwt.dollar_pos`.
    """

    __slots__ = ("bwt", "c", "occ", "q", "chars_consumed", "max_len")

    def __init__(self, bwt: Bwt, c: CArray, occ: SampledOccTable, max_len: int | None):
        self.bwt = bwt
        self.c = c
        self.occ = occ
        self.q = 0
        self.chars_consumed = 0
        self.max_len = max_len

    def as_index(self, prefetch_built: bool = False) -> FmIndex:
        return FmIndex(
            bwt=self.bwt,
            c=self.c,
            occ=self.occ,
            n=self.bwt.data.length,
            k=self.occ.k,
            sa=None,
            prefetch_built=prefetch_built,
        )

    def _check_capacity(self) -> None:
        if self.max_len is not None and self.chars_consumed >= self.max_len:
            raise CapacityExceeded(
                f"text exceeds the configured maximum of {self.max_len} symbols"
            )


class PrefetchMonitor:
    """Tracks the one outstanding deferred sentinel insertion.

    While an insertion is pending the physical buffer is one symbol
    short of the logical index; `corrected_occ` answers occurrence
    queries against the logical index so the lower-bound computation
    matches the standard schedule exactly.
    """

    __slots__ = ("pending_pos", "pending_symbol")

    def __init__(self):
        self.pending_pos: int | None = None
        self.pending_symbol: int | None = None

    def corrected_occ(self, state: SaiiState, code: int, i: int) -> int:
        if self.pending_pos is None or i < self.pending_pos:
            return occ_count(state.occ, state.bwt, code, i)
        # positions at or past the pending sentinel sit one slot lower
        # physically, and the sentinel itself contributes nothing
        return occ_count(state.occ, state.bwt, code, i - 1)


def init_state(k: int = DEFAULT_K, *, reserve: int = 0, max_len: int | None = None) -> SaiiState:
    """Index of the empty text: BWT is the sentinel alone, row 0."""
    bwt = Bwt(reserve=max(reserve, 1))
    bwt.data.append(0)  # sentinel slot, stored as code A
    bwt.dollar_pos = 0
    occ = SampledOccTable(k, reserve_len=max(reserve, 1))
    occ.rebuild_from(bwt, 0)
    return SaiiState(bwt, CArray(), occ, max_len)


def step(state: SaiiState, code: int) -> int:
    """Absorb the next symbol leftward (standard schedule); returns the
    new sentinel row."""
    state._check_capacity()
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
    state.chars_consumed += 1
    return q_new


def prefetch_step(state: SaiiState, monitor: PrefetchMonitor, code: int) -> int:
    """Absorb the next symbol with the deferred-insertion schedule;
    returns the new sentinel row (identical to the standard schedule's)."""
    state._check_capacity()
    bwt = state.bwt
    if monitor.pending_pos is None:
        # first symbol: nothing deferred yet, plain overwrite of the
        # initial sentinel slot
        q_old = state.q
        q_new = state.c.counts[code] + monitor.corrected_occ(state, code, q_old - 1) + 1
        bwt.overwrite(q_old, code)
        state.occ.apply_overwrite(q_old, A, code)
    else:
        q_old = monitor.pending_pos
        q_new = state.c.counts[code] + monitor.corrected_occ(state, code, q_old - 1) + 1
        # merged pass: the deferred sentinel slot takes this symbol
        # directly, one insertion instead of insert-then-overwrite
        bwt.insert_symbol(q_old, code)
        state.occ.apply_insert(bwt, q_old, code)
    state.c.add_symbol(code)
    monitor.pending_pos = q_new
    monitor.pending_symbol = code
    state.q = q_new
    state.chars_consumed += 1
    return q_new


def prefetch_flush(state: SaiiState, monitor: PrefetchMonitor) -> None:
    """Materialize the last deferred sentinel; afterwards the state is
    exact (there is no further symbol to merge it with)."""
    if monitor.pending_pos is None:
        return
    state.bwt.insert_sentinel(monitor.pending_pos)
    state.occ.apply_insert(state.bwt, monitor.pending_pos, A)
    monitor.pending_pos = None
    monitor.pending_symbol = None


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
    max_len = HARDWARE_MAX_LEN if strict_capacity else None
    if max_len is not None and text.length > max_len:
        raise CapacityExceeded(
            f"text of {text.length} symbols exceeds the hardware bound of {max_len}"
        )
    state = init_state(k, reserve=text.length + 1, max_len=max_len)
    data = text.data
    if schedule == "standard":
        for i in range(text.length - 1, -1, -1):
            step(state, (data[i >> 2] >> ((i & 3) << 1)) & 3)
    else:
        monitor = PrefetchMonitor()
        for i in range(text.length - 1, -1, -1):
            prefetch_step(state, monitor, (data[i >> 2] >> ((i & 3) << 1)) & 3)
        prefetch_flush(state, monitor)
    return state.as_index(prefetch_built=schedule == "prefetch")
