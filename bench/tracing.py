"""Spans and per-layer counters recorded by wrappers installed from outside.

`Tracer.add` registers a module function or class method, and
`Tracer.installed` swaps in, for the length of a block, a wrapper that
records one span per call (name, start, end, parent, op) and adds the
call's duration, self time and work units to per-name totals.  Work units are computed from the call's arguments before the
call, so with a fixed seed they repeat exactly.  Functions imported by
name into another module are wrapped in that module's namespace too.
Spans stay in memory, up to `span_cap`, and are written out by the
caller; totals cover every call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from saii import alphabet, construct, fasta, fmindex, occtable, packedbuf, serialize


class Totals:
    __slots__ = ("calls", "ns", "self_ns", "work")

    def __init__(self):
        self.calls = self.ns = self.self_ns = self.work = 0


class Tracer:
    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.spans: list = []
        self.spans_dropped = 0
        self.totals: dict = {}
        self.op = -1  # ordinal of the benchmark op in progress
        self._stack: list = []  # [span index, child ns] per open call
        self._targets: list = []  # (owner, attribute, wrapper)

    def add(self, owner, attr: str, name, work=None) -> None:
        """Register owner.attr for wrapping; `name` is a string or a
        function of (args, kwargs); `work` counts units from the arguments."""
        self._targets.append((owner, attr, self._wrap(getattr(owner, attr), name, work)))

    def _wrap(self, fn, name, work):
        spans, stack, totals = self.spans, self._stack, self.totals
        clock = time.perf_counter_ns
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            label = fixed or name(args, kwargs)
            units = work(args, kwargs) if work is not None else 0
            parent = stack[-1][0] if stack else -1
            if len(spans) < self.span_cap:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                self.spans_dropped += 1
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                t = totals.get(label)
                if t is None:
                    t = totals[label] = Totals()
                t.calls += 1
                t.ns += took
                t.self_ns += took - frame[1]
                t.work += units
                if index >= 0:
                    spans[index] = (label, start, end, parent, self.op)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrappers in place for the duration of the block only."""
        for owner, attr, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, wrapper in self._targets:
                setattr(owner, attr, wrapper.__wrapped__)

    def counts(self) -> dict:
        """(calls, work) per span name so far."""
        return {name: (t.calls, t.work) for name, t in self.totals.items()}


def add_saii_layers(tracer: Tracer) -> None:
    """Register the layer boundaries of the `saii` package."""

    def schedule_of(args, kwargs):
        schedule = args[2] if len(args) > 2 else kwargs.get("schedule", "standard")
        return f"construct.build.{schedule}"

    def scan_syms(args, kwargs):
        table, i = args[0], args[3]
        return i - (i // table.k) * table.k + 1 if i >= 0 else 0

    def blocks(args, kwargs):
        table, bwt, from_block = args
        return max(0, bwt.data.length // table.k + 1 - max(from_block, 1))

    tracer.add(alphabet, "encode_text", "alphabet.encode_text", lambda a, kw: len(a[0]))
    tracer.add(fasta, "parse_fasta", "fasta.parse_fasta")
    tracer.add(construct, "build", schedule_of, lambda a, kw: a[0].length)
    tracer.add(construct, "step", "construct.step")
    tracer.add(construct, "prefetch_step", "construct.prefetch_step")
    for module in (occtable, construct, fmindex):
        tracer.add(module, "occ_count", "occtable.occ_count", scan_syms)
    tracer.add(occtable.SampledOccTable, "rebuild_from", "occtable.rebuild_from", blocks)
    tracer.add(packedbuf.PackedBuffer, "insert", "packedbuf.insert", lambda a, kw: a[0].length - a[1])
    tracer.add(packedbuf.PackedBuffer, "count_range", "packedbuf.count_range")
    tracer.add(packedbuf.PackedBuffer, "count_code", "packedbuf.count_code")
    tracer.add(fmindex, "search", "fmindex.search", lambda a, kw: a[1].length)
    tracer.add(serialize, "dumps_index", "serialize.dumps_index")
    tracer.add(serialize, "loads_index", "serialize.loads_index")


def per_layer_metrics(totals: dict, window: dict, overhead_pct: float) -> dict:
    """Per-layer metrics: times over every traced call, counts over the window.

    A layer that the workload never calls reads 0.
    """
    none = Totals()

    def per_call(name, unit_ns):
        t = totals.get(name, none)
        return t.ns / t.calls / unit_ns if t.calls else 0.0

    def self_per_call_us(name):
        t = totals.get(name, none)
        return t.self_ns / t.calls / 1e3 if t.calls else 0.0

    def per_work(name, unit_ns):
        t = totals.get(name, none)
        return t.ns / t.work / unit_ns if t.work else 0.0

    def calls(name):
        return window.get(name, (0, 0))[0]

    def work(name):
        return window.get(name, (0, 0))[1]

    return {
        "alphabet.encode_text.ns_per_sym": (per_work("alphabet.encode_text", 1), "ns/sym"),
        "fasta.parse_fasta.ms": (per_call("fasta.parse_fasta", 1e6), "ms"),
        "construct.build.standard.us_per_sym": (per_work("construct.build.standard", 1e3), "us/sym"),
        "construct.build.prefetch.us_per_sym": (per_work("construct.build.prefetch", 1e3), "us/sym"),
        "construct.step.self_us": (self_per_call_us("construct.step"), "us"),
        "construct.prefetch_step.self_us": (self_per_call_us("construct.prefetch_step"), "us"),
        "occtable.rebuild_from.calls": (calls("occtable.rebuild_from"), "count"),
        "occtable.rebuild_from.blocks": (work("occtable.rebuild_from"), "count"),
        "occtable.rebuild_from.ms": (per_call("occtable.rebuild_from", 1e6), "ms"),
        "occtable.occ_count.calls": (calls("occtable.occ_count"), "count"),
        "occtable.occ_count.scan_syms": (work("occtable.occ_count"), "count"),
        "occtable.occ_count.ms": (per_call("occtable.occ_count", 1e6), "ms"),
        "packedbuf.insert.calls": (calls("packedbuf.insert"), "count"),
        "packedbuf.insert.shift_syms": (work("packedbuf.insert"), "count"),
        "packedbuf.insert.ms": (per_call("packedbuf.insert", 1e6), "ms"),
        "packedbuf.count_range.ms": (per_call("packedbuf.count_range", 1e6), "ms"),
        "packedbuf.count_code.ms": (per_call("packedbuf.count_code", 1e6), "ms"),
        "fmindex.search.ms": (per_call("fmindex.search", 1e6), "ms"),
        "fmindex.search.syms": (work("fmindex.search"), "count"),
        "serialize.dumps_index.us": (per_call("serialize.dumps_index", 1e3), "us"),
        "serialize.loads_index.ms": (per_call("serialize.loads_index", 1e6), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def window_counts(before: dict, after: dict) -> dict:
    """(calls, work) done between two `Tracer.counts` readings."""
    return {
        name: (calls - before.get(name, (0, 0))[0], work - before.get(name, (0, 0))[1])
        for name, (calls, work) in after.items()
    }
