"""Incremental FM-index construction by right-to-left symbol insertion.

Starting from the index of the sentinel alone, each step absorbs the
next symbol to the left, which `build` reads in place from the text's
payload, using only the index built so far.  The sentinel's new row is
one backward-search step (the sentinel row *is* the row of the current
suffix, so no full search is ever run); the symbol then takes the
sentinel's old slot, and the sentinel moves to the new row.

There is one step, `prefetch_step`, after the paper's prefetch
controller: it leaves the sentinel pending (`SaiiState.pending`, its
row held by `SaiiState.q`), so the next step's symbol goes where the
sentinel would have, one insertion instead of two writes;
`prefetch_flush` inserts the last sentinel.  The standard `step` runs
the flush at once, so after it the state is exactly the BWT of the
current suffix.  A rank stops below `q`, where the BWT agrees with the
logical index either way: both schedules give bit-identical indexes.

The BWT grows in `SaiiState.leaves`, int-backed `PackedBuffer` leaves
of at most `LEAF` symbols, under Fenwick trees `trees[c]` of each
leaf's count of code c and `trees[4]` of their lengths (the ropebwt2
layout: Li, Bioinformatics 2014; Fenwick, Software: Practice and
Experience 1994).  A step makes one call per leaf operation: one
descent at `q` finds the leaf, the offset in it and the count of the
symbol before it, the rank counts the leaf's head (`count_code`), and
the same leaf and offset take the edit and one Fenwick update.  The
standard schedule's overwrite is one OR, as the sentinel's slot holds
A = 0; an insertion is one `PackedBuffer.insert`.  The standard
schedule pays two descents per symbol, the prefetch schedule one: the
2i/w against i/w Update charge of `saii.costmodel`.

Memory: each leaf is one int of exactly its symbols' 2 bits each.  A
full leaf splits into two exact halves, so n symbols take at most
2n / LEAF leaves and five Fenwick lists of at most 2n / LEAF + 1
entries.  The state holds no checkpoint rows, so its size does not
depend on k: `as_index` ORs the leaves, each released as it goes in,
into the flat BWT, then tallies the k-sampled rows once.
"""

from __future__ import annotations

from . import packedbuf
from .alphabet import A, PackedSequence
from .errors import CapacityExceeded, EmptyText, InvalidParams
from .fmindex import Bwt, CArray, FmIndex
from .occtable import DEFAULT_K, SampledOccTable, _checked_rate, occ_count  # noqa: F401 -- bench/tracing.py wraps construct.occ_count
from .packedbuf import PackedBuffer

HARDWARE_MAX_LEN = 131_072  # BRAM budget of the reference hardware
_ABOVE = ((1, 2, 3), (2, 3), (3,), ())  # the codes above each code


class SaiiState:
    """Running index of the suffix absorbed so far; a new state is the
    empty text's index, the sentinel alone at row 0, and raises
    InvalidSamplingRate unless 1 <= k < 2^32, before any step.

    `q` is the sentinel row in both schedules.  Between steps the
    standard schedule has the sentinel in the leaves at row `q` (its
    slot stores code A); the prefetch schedule leaves it out, `pending`.
    `counts` is the running C, `steps` the strides of a Fenwick descent
    and `k` the sampling rate of the table `as_index` tallies.
    """

    __slots__ = ("leaves", "trees", "steps", "counts", "k", "q", "pending")

    def __init__(self, k: int):
        self.leaves = [PackedBuffer(0, 1)]  # the sentinel's slot holds A = 0
        self.trees = [[0, 1], [0, 0], [0, 0], [0, 0], [0, 1]]
        self.steps = ()
        self.counts = [0, 0, 0, 0]
        self.k, self.q, self.pending = _checked_rate(k), 0, False

    def as_index(self, prefetch_built: bool = False) -> FmIndex:
        """The finished index, after inserting a pending sentinel.  Final:
        the leaves go into the flat BWT, so the state is spent and a
        second call raises RuntimeError; deep-copy a state to look at it."""
        prefetch_flush(self)
        leaves = self.leaves
        if not leaves:
            raise RuntimeError("construction state already spent")
        n = sum(leaf.length for leaf in leaves)
        self.trees = None
        x = 0
        while leaves:  # each leaf's int below the ones after it
            leaf = leaves.pop()
            x = x << (leaf.length << 1) | leaf._buf
        bwt = Bwt(PackedBuffer(x.to_bytes((n + 3) >> 2, "little"), n), self.q)
        del x  # released before the table is tallied
        occ = SampledOccTable.build(bwt, self.k)
        return FmIndex(bwt=bwt, c=CArray(tuple(self.counts)), occ=occ, prefetch_built=prefetch_built)


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
    leaves, trees = state.leaves, state.trees
    # one backward-search step for the extended suffix: the rank counts
    # the leaves' [0, q), the same whether or not a sentinel is pending;
    # a leaf boundary lands at the start of the later leaf
    j = before = 0
    off = state.q
    if state.steps:
        sizes, tally, last = trees[4], trees[code], len(leaves) - 1
        for stride in state.steps:
            i = j + stride
            if i <= last and (size := sizes[i]) <= off:
                j, off, before = i, off - size, before + tally[i]
    leaf = leaves[j]
    counts = state.counts
    q_new = counts[code] + before + leaf.count_code(code, 0, off) + 1
    if state.pending:
        # merged pass: the deferred sentinel slot takes this symbol
        # directly, one insertion instead of insert-then-overwrite
        if leaf.length == packedbuf.LEAF:
            j, off, leaf = _split(state, j, off)
        leaf.insert(off, code)
        other, delta = trees[4], 1
    else:
        leaf._buf |= code << (off << 1)  # over the sentinel's A = 0
        other, delta = trees[A], -1
        state.pending = True
    tally, m = trees[code], len(leaves)
    j += 1
    while j <= m:
        tally[j] += 1
        other[j] += delta
        j += j & -j
    for b in _ABOVE[code]:
        counts[b] += 1  # one more text symbol smaller than b
    state.q = q_new
    return q_new


def prefetch_flush(state: SaiiState) -> None:
    """Insert the pending sentinel, if any, at row `q`; afterwards the
    state is exact."""
    if not state.pending:
        return
    leaves, sizes = state.leaves, state.trees[4]
    j, off, last = 0, state.q, len(leaves) - 1
    for stride in state.steps:  # the descent of `prefetch_step`
        i = j + stride
        if i <= last and (size := sizes[i]) <= off:
            j, off = i, off - size
    leaf = leaves[j]
    if leaf.length == packedbuf.LEAF:
        j, off, leaf = _split(state, j, off)
    leaf.insert(off, A)  # the sentinel slot stores raw A
    tally, m = state.trees[A], len(leaves)
    j += 1
    while j <= m:
        sizes[j] += 1
        tally[j] += 1
        j += j & -j
    state.pending = False


def _split(state: SaiiState, j: int, off: int) -> tuple:
    """Split full leaf j into two exact halves, leaf j keeping the first,
    and rebuild the trees; (leaf index, offset, leaf) of offset `off`."""
    leaf, half = state.leaves[j], packedbuf.LEAF >> 1
    right = PackedBuffer(leaf._buf >> (half << 1), half)
    leaf._buf, leaf.length = leaf._buf & ((1 << (half << 1)) - 1), half
    state.leaves.insert(j + 1, right)
    for tree, value in zip(state.trees, leaf.count_range(0, half) + [half]):
        _split_node(tree, j + 1, value)
    state.steps = tuple(1 << b for b in reversed(range((len(state.leaves) - 1).bit_length())))
    return (j + 1, off - half, right) if off > half else (j, off, leaf)


def _split_node(tree: list, i: int, left: int) -> None:
    """Rebuild Fenwick `tree` with leaf i split into `left` and the rest."""
    m = len(tree) - 1
    for node in range(m, 0, -1):  # node sums back to leaf values
        if (up := node + (node & -node)) <= m:
            tree[up] -= tree[node]
    tree[i : i + 1] = [left, tree[i] - left]
    for node in range(1, m + 2):
        if (up := node + (node & -node)) <= m + 1:
            tree[up] += tree[node]


def build(
    text: PackedSequence,
    k: int = DEFAULT_K,
    schedule: str = "standard",
    *,
    strict_capacity: bool = False,
) -> FmIndex:
    """Build the FM-index of text + sentinel incrementally.

    Both schedules produce identical indexes; no suffix array is built.
    Each code is read in place from the text's payload, last symbol
    first, so no step reads a code through a call.
    """
    if text.length == 0:
        raise EmptyText("cannot index an empty text")
    if schedule not in ("standard", "prefetch"):
        raise InvalidParams(f"unknown schedule {schedule!r}")
    if strict_capacity and text.length > HARDWARE_MAX_LEN:
        raise CapacityExceeded(
            f"text of {text.length} symbols exceeds the hardware bound of {HARDWARE_MAX_LEN}"
        )
    state = SaiiState(k)
    advance = step if schedule == "standard" else prefetch_step
    data = text.payload()
    for i in range(text.length - 1, -1, -1):
        advance(state, data[i >> 2] >> ((i & 3) << 1) & 3)
    return state.as_index(prefetch_built=schedule == "prefetch")
