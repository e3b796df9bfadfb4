"""Incremental FM-index construction by right-to-left symbol insertion.

Starting from the index of the sentinel alone, each step absorbs the
next symbol to the left using only the index built so far.  The
sentinel's new row is one backward-search step (the sentinel row *is*
the row of the current suffix, so no full search is ever run); the
symbol then takes the sentinel's old slot, and the sentinel moves to
the new row.

There is one step, `prefetch_step`, after the paper's prefetch
controller: it leaves the sentinel pending (`SaiiState.pending`, its
row held by `SaiiState.q`), so the next step's symbol goes where the
sentinel would have, one insertion instead of two writes;
`prefetch_flush` inserts the last sentinel.  The standard `step` runs
the flush at once, so after it the state is exactly the BWT of the
current suffix.  A rank stops below `q`, where the BWT agrees with the
logical index either way: both schedules give bit-identical indexes.

The BWT grows in a `saii.packedbuf.Rope`.  One Fenwick descent at `q`
gives the leaf, the offset in it and the count of the symbol in the
leaves before it; the rank adds a tally of the leaf's head, and the
same leaf and offset take the edit.  The standard schedule pays two
descents per symbol, the prefetch schedule one: the 2i/w against i/w
Update charge of `saii.costmodel`.  The k-sampled occurrence table is
tallied once, by `SaiiState.as_index`, from the finished BWT.

Memory: each leaf holds exactly its symbols, in ceil(length / 4) bytes.
A text shorter than `LEAF` is one leaf; once a leaf has split, every
leaf holds at least `LEAF / 2` symbols, so n symbols take at most
2n / LEAF leaves of ceil(n / 4) + 2n / LEAF bytes in all, and five
Fenwick arrays of at most 2n / LEAF + 1 entries.  The state holds no
checkpoint rows, so its size does not depend on k; `as_index` releases
each leaf as it writes the flat BWT, then tallies the rows once.
"""

from __future__ import annotations

from . import packedbuf
from .alphabet import A, PackedSequence
from .errors import CapacityExceeded, EmptyText, InvalidParams
from .fmindex import Bwt, CArray, FmIndex
from .occtable import SampledOccTable, _checked_rate, occ_count  # noqa: F401 -- bench/tracing.py wraps construct.occ_count

DEFAULT_K = 2048
HARDWARE_MAX_LEN = 131_072  # BRAM budget of the reference hardware


class SaiiState:
    """Running index of the suffix absorbed so far.

    `q` is the sentinel row in both schedules.  Between steps the
    standard schedule has the sentinel in the rope at row `q` (its slot
    stores code A); the prefetch schedule leaves it out of the rope,
    `pending`.  `k` is the sampling rate of the table `as_index` tallies.
    """

    __slots__ = ("rope", "pending", "c", "k", "q")

    def __init__(self, rope: packedbuf.Rope, c: CArray, k: int):
        self.rope, self.c, self.k = rope, c, k
        self.pending, self.q = False, 0

    def as_index(self, prefetch_built: bool = False) -> FmIndex:
        """The finished index, after inserting a pending sentinel.  Final:
        the rope's leaves go into the flat BWT, so the state is spent and a
        second call raises RuntimeError; deep-copy a state to look at it."""
        prefetch_flush(self)
        bwt = Bwt(self.rope.flatten(), self.q)
        occ = SampledOccTable.build(bwt, self.k)
        return FmIndex(bwt=bwt, c=self.c, occ=occ, prefetch_built=prefetch_built)


def init_state(k: int) -> SaiiState:
    """Index of the empty text: the sentinel alone, at row 0, in a
    one-byte leaf whose zero slot already stores code A.  Raises
    InvalidSamplingRate unless 1 <= k < 2^32, before any step."""
    first = packedbuf.PackedBuffer(bytearray(1), 1)
    return SaiiState(packedbuf.Rope(first), CArray([0, 0, 0, 0]), _checked_rate(k))


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
    rope = state.rope
    q_old = state.q
    # one backward-search step for the extended suffix: the rank counts
    # rope[0, q_old), the same whether or not a sentinel is pending
    j, off, before = rope.locate(q_old, code)
    q_new = state.c.counts[code] + before + rope.leaves[j].count_code(code, 0, off) + 1
    if state.pending:
        # merged pass: the deferred sentinel slot takes this symbol
        # directly, one insertion instead of insert-then-overwrite
        rope.insert(j, off, code)
    else:
        # the sentinel is in the rope: overwrite its slot
        rope.set(j, off, A, code)  # the sentinel slot held raw A
        state.pending = True
    counts = state.c.counts
    for b in range(code + 1, 4):
        counts[b] += 1  # one more text symbol smaller than b
    state.q = q_new
    return q_new


def prefetch_flush(state: SaiiState) -> None:
    """Insert the pending sentinel, if any, at row `q`; afterwards the
    state is exact."""
    if state.pending:
        j, off, _ = state.rope.locate(state.q, A)
        state.rope.insert(j, off, A)  # the sentinel slot stores raw A
        state.pending = False


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
        raise InvalidParams(f"unknown schedule {schedule!r}")
    if strict_capacity and text.length > HARDWARE_MAX_LEN:
        raise CapacityExceeded(
            f"text of {text.length} symbols exceeds the hardware bound of {HARDWARE_MAX_LEN}"
        )
    state = init_state(k)
    advance = step if schedule == "standard" else prefetch_step
    for i in range(text.length - 1, -1, -1):
        advance(state, text.code_at(i))
    return state.as_index(prefetch_built=schedule == "prefetch")
