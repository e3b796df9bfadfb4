"""Command-line interface: build, count, verify, bench."""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import construct, oracle
from .alphabet import PackedSequence, decode, encode_text
from .costmodel import HardwareParams, emit_scaling_table
from .errors import InvalidParams, SaiiError
from .fasta import read_sequences
from .fmindex import first_mismatch, search
from .serialize import dumps_index, load_index


def _random_sequence(rng: np.random.Generator, length: int) -> PackedSequence:
    """Uniform ACGT sequence of exactly `length` symbols."""
    return PackedSequence.from_codes(rng.integers(0, 4, size=length, dtype=np.uint8).tolist())


def _build_record(job):
    ordinal, where, sequence, k, schedule, strict, substitute = job
    try:
        text = encode_text(sequence, substitute=substitute)
        index = construct.build(text, k=k, schedule=schedule, strict_capacity=strict)
    except SaiiError as err:
        if where is None:
            raise
        raise SaiiError(f"{err} in {where}") from None
    return ordinal, dumps_index(index), index.n


def cmd_build(args) -> int:
    """Build every record before writing any file, so a failing record
    leaves nothing behind.  The pool forks all its workers at once, so
    it gets no more of them than there are records."""
    if args.jobs < 0:
        raise InvalidParams(f"--jobs must be >= 0, got {args.jobs}")
    records = read_sequences(args.input)
    out = args.out if args.out else args.input + ".saii"
    many = len(records) > 1
    jobs = [
        (i, f"record {i} ({rec.id})" if many else None, rec.sequence, args.k, args.schedule, args.strict_capacity, args.substitute)
        for i, rec in enumerate(records, start=1)
    ]
    workers = min(args.jobs or os.cpu_count() or 1, len(records))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_build_record, jobs))
    else:
        results = [_build_record(job) for job in jobs]
    for ordinal, blob, n in results:
        path = f"{out}.{ordinal}.saii" if many else out
        with open(path, "wb") as fh:
            fh.write(blob)
        label = records[ordinal - 1].id or f"record {ordinal}"
        print(f"wrote {path} ({label}: n={n}, k={args.k}, schedule={args.schedule})")
    return 0


def cmd_count(args) -> int:
    index = load_index(args.index)
    rng = search(index, encode_text(args.query))
    print(f"{rng.count} {rng.low} {rng.high}")
    return 0


def _verify_one(text: PackedSequence, k: int) -> tuple:
    """(ok, step, field, detail) for one text, each schedule against the oracle."""
    expected = oracle.full_index(text, k=k)
    for schedule in ("standard", "prefetch"):
        field = first_mismatch(construct.build(text, k=k, schedule=schedule), expected)
        if field is not None:
            return False, _locate_bad_step(text, k, schedule), field, f"{schedule} differs from oracle"
    return True, None, None, None


def _locate_bad_step(text: PackedSequence, k: int, schedule: str) -> int:
    """First step whose index is wrong.  The state after step s is the
    index of the suffix of length s + 1, so each suffix is built whole;
    the last step, the whole text, is known to be wrong."""
    for i in range(text.length - 1, 0, -1):
        suffix = PackedSequence.from_codes(text.codes()[i:])
        built = construct.build(suffix, k=k, schedule=schedule)
        if first_mismatch(built, oracle.full_index(suffix, k=k)) is not None:
            return text.length - 1 - i
    return text.length - 1


def cmd_verify(args) -> int:
    if args.trials < 1 or args.max_len < 1:
        raise InvalidParams(f"--trials and --max-len must be >= 1, got {args.trials} and {args.max_len}")
    if args.exhaustive and args.input:
        raise InvalidParams("--exhaustive checks every text up to --max-len and takes no input file")
    k = args.k
    failures = 0
    trials = 0
    print(f"# seed {args.seed}")
    if args.exhaustive:
        for length in range(1, args.max_len + 1):
            bad = 0
            for combo in itertools.product(range(4), repeat=length):
                trials += 1
                ok, step_at, field, detail = _verify_one(PackedSequence.from_codes(combo), k)
                if not ok:
                    failures += 1
                    bad += 1
                    print(
                        f"FAIL text={''.join('ACGT'[c] for c in combo)} "
                        f"step={step_at} field={field} ({detail})"
                    )
            print(f"len {length}: {4 ** length - bad}/{4 ** length} PASS")
    else:
        if args.input:
            texts = [encode_text(rec.sequence) for rec in read_sequences(args.input)]
        else:
            rng = np.random.default_rng(args.seed)
            texts = [
                _random_sequence(rng, int(rng.integers(1, args.max_len + 1)))
                for _ in range(args.trials)
            ]
        for t, text in enumerate(texts):
            trials += 1
            ok, step_at, field, detail = _verify_one(text, k)
            shown = decode(text) if text.length <= 60 else decode(text)[:57] + "..."
            if ok:
                print(f"trial {t}: len={text.length} PASS")
            else:
                failures += 1
                print(f"trial {t}: len={text.length} FAIL text={shown} step={step_at} field={field} ({detail})")
    print(f"{trials - failures}/{trials} passed (k={k}, seed={args.seed})")
    return 2 if failures else 0


def cmd_bench(args) -> int:
    try:
        lengths = sorted({int(part) for part in args.lengths.split(",") if part})
    except ValueError:
        raise InvalidParams(f"--lengths must be comma-separated integers, got {args.lengths!r}") from None
    if not lengths or lengths[0] < 1:
        raise InvalidParams(f"--lengths needs one or more lengths >= 1, got {args.lengths!r}")
    params = HardwareParams(m=args.m, k=args.k, clock_hz=args.clock_hz)
    if args.mode == "model":
        sys.stdout.write(emit_scaling_table(params, lengths))
        return 0
    print(f"# seed {args.seed}", file=sys.stderr)
    rng = np.random.default_rng(args.seed)
    measured = {}
    for n in lengths:
        text = _random_sequence(rng, n)
        started = time.perf_counter()
        construct.build(text, k=args.k)
        measured[n] = time.perf_counter() - started
    if args.mode == "measure":
        print("n,build_s")
        for n in lengths:
            print(f"{n},{measured[n]:.6f}")
        return 0
    header, *rows = emit_scaling_table(params, lengths).splitlines()
    print(f"{header},build_s")
    for n, row in zip(lengths, rows):
        print(f"{row},{measured[n]:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saii",
        description="Incremental FM-index construction and search for DNA sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="index a FASTA or raw-text file")
    p.add_argument("input", help="FASTA file or raw ACGT text ('>'-less)")
    p.add_argument("-o", "--out", help="output path (default: INPUT.saii); multi-record FASTA appends .<ordinal>.saii")
    p.add_argument("--k", type=int, default=construct.DEFAULT_K, help="occurrence checkpoint spacing (default %(default)s)")
    p.add_argument("--schedule", choices=("standard", "prefetch"), default="standard")
    p.add_argument("--strict-capacity", action="store_true", help=f"reject texts longer than {construct.HARDWARE_MAX_LEN} symbols")
    p.add_argument("--substitute", action="store_true", help="replace non-ACGT characters with A instead of failing")
    p.add_argument("--jobs", type=int, default=0, help="worker processes for multi-record input (default: all cores)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("count", help="count occurrences of a query in an index")
    p.add_argument("index", help="index file written by 'build'")
    p.add_argument("query", help="ACGT query string")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="check builds against the brute-force oracle")
    p.add_argument("input", nargs="?", help="optional FASTA/raw file; otherwise random texts")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--k", type=int, default=4, help="checkpoint spacing used for the verified builds")
    p.add_argument("--exhaustive", action="store_true", help="all texts of length 1..max-len")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="cycle-model table and wall-clock build times")
    p.add_argument("--lengths", default="16384,32768,65536,131072", help="comma-separated sequence lengths")
    p.add_argument("--mode", choices=("model", "measure", "both"), default="model")
    p.add_argument("--k", type=int, default=2048)
    p.add_argument("--m", type=int, default=3, help="search cycles per iteration")
    p.add_argument("--clock-hz", type=int, default=120_000_000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SaiiError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
