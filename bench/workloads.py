"""The three workloads: reference builds, read-level builds, count queries.

Each workload makes its inputs from the seed, then exposes
`setup()` (the program's set-up work, timed as setup_s),
`check_setup()`, `ops(r)` (the timed operations of round r, each a
(symbols, callable) pair) and `check(r, outputs)`.  The program is
called through module attributes so that tracing wrappers, when
installed, see every call.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
from saii import alphabet, construct, fasta, fmindex, serialize

from reference import codes_of, expected_index, suffix_array

K = 2048
SCHEDULES = ("standard", "prefetch")
_ACGT = np.frombuffer(b"ACGT", dtype=np.uint8)


def random_acgt(rng: np.random.Generator, length: int) -> str:
    return _ACGT[rng.integers(0, 4, size=length)].tobytes().decode("ascii")


def fasta_text(records, width: int) -> str:
    lines = []
    for name, seq in records:
        lines.append(f">{name}")
        lines.extend(seq[i : i + width] for i in range(0, len(seq), width))
    return "\n".join(lines) + "\n"


def build_op(seq: str, schedule: str):
    index = construct.build(alphabet.encode_text(seq), k=K, schedule=schedule)
    return index, serialize.dumps_index(index)


def build_ok(expected, schedule: str, output) -> bool:
    """Index and file match the reference, and survive a load round trip."""
    index, blob = output
    return (
        expected.matches(index)
        and blob == expected.blob(SCHEDULES.index(schedule))
        and expected.matches(serialize.loads_index(blob))
    )


class RefBuild:
    """One 65,536-bp uniform reference, indexed once with each schedule.

    Round r is one build with schedule r % 2, and a run holds exactly two.
    """

    name = "ref_build"
    length = 65_536
    warm_length = 16_384  # eight k-blocks, so the warm-up refreshes checkpoints too
    setup_reps = 2
    min_rounds = max_rounds = 2
    window_rounds = 2
    alloc_length = 4_096  # tracemalloc slows a build about tenfold

    def __init__(self, seed: int):
        self.text = random_acgt(np.random.default_rng(seed), self.length)
        self.fasta = fasta_text([("ref", self.text)], 80)
        codes = codes_of(self.text)
        self.expected = expected_index(codes, K)
        self.expected_warm = expected_index(codes[: self.warm_length], K)

    def setup(self) -> None:
        self.seq = fasta.parse_fasta(self.fasta)[0].sequence
        self.warm = [build_op(self.seq[: self.warm_length], s) for s in SCHEDULES]

    def check_setup(self) -> bool:
        return self.seq == self.text and all(
            build_ok(self.expected_warm, s, out) for s, out in zip(SCHEDULES, self.warm)
        )

    def ops(self, r: int):
        schedule = SCHEDULES[r % 2]
        return [(self.length, lambda: build_op(self.seq, schedule))]

    def alloc_ops(self):
        return [lambda s=s: build_op(self.seq[: self.alloc_length], s) for s in SCHEDULES]

    def check(self, r: int, outputs) -> bool:
        return all(build_ok(self.expected, SCHEDULES[r % 2], out) for out in outputs if out is not None)


class ReadBuild:
    """3,000 uniform reads of 100-300 bp, each indexed with each schedule."""

    name = "read_build"
    reads = 3_000
    min_len, max_len = 100, 300
    warm_rounds = 64  # about 0.5 s of builds
    setup_reps = 12  # a set-up this short swings by about a fifth alone
    min_rounds = 500  # 1,000 ops, enough for a p99
    max_rounds = None
    window_rounds = 100

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(self.min_len, self.max_len + 1, size=self.reads)
        self.texts = [random_acgt(rng, int(n)) for n in lengths]
        self.fasta = fasta_text([(f"read{i}", t) for i, t in enumerate(self.texts)], self.max_len)

    def setup(self) -> None:
        self.seqs = [rec.sequence for rec in fasta.parse_fasta(self.fasta)]
        self.warm = [[op() for _, op in self.ops(r)] for r in range(self.warm_rounds)]

    def check_setup(self) -> bool:
        return self.seqs == self.texts and all(
            self.check(r, outs) for r, outs in enumerate(self.warm)
        )

    def ops(self, r: int):
        seq = self.seqs[r % self.reads]
        return [(len(seq), lambda s=s: build_op(seq, s)) for s in SCHEDULES]

    def alloc_ops(self):
        return [op for r in range(16) for _, op in self.ops(r)]

    def check(self, r: int, outputs) -> bool:
        expected = expected_index(codes_of(self.texts[r % self.reads]), K)
        return all(
            build_ok(expected, s, out) for s, out in zip(SCHEDULES, outputs) if out is not None
        )


class RefCount:
    """Count queries of 16-64 bp against a 32,768-bp reference, one caller.

    Even queries are substrings of the reference, odd ones uniform random.
    """

    name = "ref_count"
    length = 32_768
    query_count = 8_192  # even, so every round holds one query of each kind
    min_len, max_len = 16, 64
    warm_queries = 16
    setup_reps = 4
    min_rounds = 500
    max_rounds = None
    window_rounds = 500

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.text = random_acgt(rng, self.length)
        self.fasta = fasta_text([("ref", self.text)], 80)
        codes = codes_of(self.text)
        self.expected = expected_index(codes, K)
        self.queries = []
        for i in range(self.query_count):
            m = int(rng.integers(self.min_len, self.max_len + 1))
            if i % 2 == 0:
                start = int(rng.integers(0, self.length - m + 1))
                self.queries.append(self.text[start : start + m])
            else:
                self.queries.append(random_acgt(rng, m))
        suffixes = self.text + "$"  # '$' sorts below every base, like the sentinel
        sa = suffix_array(codes).tolist()
        self.answers = [
            (bisect_left(sa, q, key=lambda p, m=len(q): suffixes[p : p + m]), overlapping(self.text, q))
            for q in self.queries
        ]

    def setup(self) -> None:
        self.seq = fasta.parse_fasta(self.fasta)[0].sequence
        built = construct.build(alphabet.encode_text(self.seq), k=K)
        self.blob = serialize.dumps_index(built)
        self.index = serialize.loads_index(self.blob)
        for q in self.queries[: self.warm_queries]:
            fmindex.search(self.index, alphabet.encode_text(q))

    def check_setup(self) -> bool:
        return (
            self.seq == self.text
            and self.blob == self.expected.blob(0)
            and self.expected.matches(self.index)
        )

    def ops(self, r: int):
        start = 2 * r % self.query_count
        return [
            (len(q), lambda q=q: fmindex.search(self.index, alphabet.encode_text(q)))
            for q in self.queries[start : start + 2]
        ]

    def alloc_ops(self):
        return [op for r in range(128) for _, op in self.ops(r)]

    def check(self, r: int, outputs) -> bool:
        start = 2 * r % self.query_count
        for (low, n), rng in zip(self.answers[start : start + 2], outputs):
            if rng is not None and (rng.low != low or rng.count != n):
                return False
        return True


def overlapping(text: str, query: str) -> int:
    found, at = 0, text.find(query)
    while at >= 0:
        found += 1
        at = text.find(query, at + 1)
    return found


WORKLOADS = {w.name: w for w in (RefBuild, ReadBuild, RefCount)}
