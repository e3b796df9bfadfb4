import contextlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import saii
from saii import cli, construct, oracle
from saii.alphabet import PackedSequence, encode_text
from saii.cli import main
from saii.costmodel import HardwareParams, emit_scaling_table
from saii.fasta import FastaFormatError, parse_fasta, read_sequences
from saii.fmindex import Bwt, FmIndex, first_mismatch
from saii.packedbuf import PackedBuffer
from saii.serialize import load_index

from helpers import decode_with_sentinel


def test_parse_fasta_records():
    records = parse_fasta(">r1 first\nACGT\nac gt\n\n>r2\nGG\nGA\n")
    assert [r.id for r in records] == ["r1 first", "r2"]
    assert records[0].sequence == "ACGTacgt"
    assert records[1].sequence == "GGGA"


def test_parse_fasta_errors():
    with pytest.raises(FastaFormatError):
        parse_fasta("ACGT\n")
    with pytest.raises(FastaFormatError):
        parse_fasta(">only header\n>next\nACGT\n")
    with pytest.raises(FastaFormatError):
        parse_fasta("")


def test_read_raw_text(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_text("ACG\nCTTG\n")
    (record,) = read_sequences(p)
    assert record.sequence == "ACGCTTG"
    assert record.id == ""


def test_build_and_count_raw(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_text("ACGCTTG\n")
    out = tmp_path / "t.saii"
    assert main(["build", str(src), "-o", str(out), "--k", "4"]) == 0
    capsys.readouterr()
    index = load_index(out)
    assert decode_with_sentinel(index.bwt) == "G$AGTCTC"

    assert main(["count", str(out), "CT"]) == 0
    assert capsys.readouterr().out.strip() == "1 3 3"
    assert main(["count", str(out), "T"]) == 0
    assert capsys.readouterr().out.strip() == "2 6 7"
    assert main(["count", str(out), "CA"]) == 0
    out_line = capsys.readouterr().out.split()
    assert out_line[0] == "0" and int(out_line[1]) > int(out_line[2])


def test_build_multi_record_fanout(tmp_path, capsys):
    src = tmp_path / "multi.fa"
    src.write_text(">a\nACGT\n>b\nGGAT\n>c\nTTTT\n")
    out = tmp_path / "multi.idx"
    assert main(["build", str(src), "-o", str(out), "--k", "4", "--jobs", "1"]) == 0
    capsys.readouterr()
    for i, seq in enumerate(["ACGT", "GGAT", "TTTT"], start=1):
        loaded = load_index(f"{out}.{i}.saii")
        assert first_mismatch(loaded, construct.build(encode_text(seq), k=4)) is None


def test_build_parallel_jobs(tmp_path, capsys):
    src = tmp_path / "multi.fa"
    src.write_text(">a\nACGTACGT\n>b\nGGATCC\n")
    out = tmp_path / "m.idx"
    assert main(["build", str(src), "-o", str(out), "--jobs", "2", "--k", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("wrote")


def test_build_pool_bounded_by_records(tmp_path, capsys, monkeypatch):
    # the pool forks every worker it is given at once; this stand-in
    # records how many, and the chunk size it is handed, and maps in this
    # process
    asked, chunks = [], []

    def pool_map(fn, jobs, chunksize=1):
        chunks.append(chunksize)
        return map(fn, jobs)

    def pool(max_workers):
        asked.append(max_workers)
        return contextlib.nullcontext(types.SimpleNamespace(map=pool_map))

    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    src = tmp_path / "multi.fa"
    src.write_text(">a\nACGTACGT\n>b\nGGATCC\n")
    out = str(tmp_path / "m.idx")
    assert main(["build", str(src), "-o", out, "--jobs", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: --jobs must be >= 0")
    assert not asked and not list(tmp_path.glob("*.saii"))
    assert main(["build", str(src), "-o", out, "--jobs", "8", "--k", "4"]) == 0
    assert asked == [2] and chunks == [1]
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
    # many records go to each worker a few chunks at a time, not one per
    # round trip
    src.write_text("".join(f">r{i}\nACGTTGCA\n" for i in range(100)))
    assert main(["build", str(src), "-o", out, "--jobs", "4", "--k", "4"]) == 0
    assert asked[-1] == 4 and chunks[-1] == 7  # ceil(100 / (4 * 4))
    assert len(capsys.readouterr().out.strip().splitlines()) == 100


def test_build_invalid_character_exit_code(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("ACGN\n")
    assert main(["build", str(src)]) == 1
    assert "invalid character" in capsys.readouterr().err
    assert main(["build", str(src), "--substitute", "-o", str(tmp_path / "ok.saii")]) == 0


def test_build_parallel_invalid_character_exit_code(tmp_path, capsys):
    # the error crosses back from a worker process
    src = tmp_path / "bad.fa"
    src.write_text(">a\nACGTACGT\n>b\nNNNN\n")
    assert main(["build", str(src), "-o", str(tmp_path / "m.idx"), "--jobs", "2"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: invalid character 'N'")
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_build_failing_record_writes_nothing(tmp_path, capsys, jobs):
    src = tmp_path / "bad.fa"
    src.write_text(">a\nACGTACGT\n>b\nNNNN\n")
    assert main(["build", str(src), "-o", str(tmp_path / "m.idx"), "--jobs", jobs]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "error: invalid character 'N' at position 0 in record 2 (b)"
    assert not list(tmp_path.glob("*.saii"))


def test_build_strict_capacity_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(construct, "HARDWARE_MAX_LEN", 8)
    src = tmp_path / "long.txt"
    src.write_text("ACGTACGTA\n")  # 9 symbols > 8
    assert main(["build", str(src), "--strict-capacity"]) == 1
    assert "exceeds" in capsys.readouterr().err


def test_count_corrupt_index_exit_code(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_text("ACGCTTG\n")
    out = tmp_path / "t.saii"
    main(["build", str(src), "-o", str(out)])
    capsys.readouterr()
    blob = bytearray(out.read_bytes())
    blob[len(blob) // 2] ^= 1
    out.write_bytes(bytes(blob))
    assert main(["count", str(out), "CT"]) == 1
    assert "corrupt" in capsys.readouterr().err


def test_count_invalid_query_exit_code(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_text("ACGCTTG\n")
    out = tmp_path / "t.saii"
    main(["build", str(src), "-o", str(out)])
    capsys.readouterr()
    assert main(["count", str(out), "CN"]) == 1


def test_verify_random_passes(capsys):
    assert main(["verify", "--trials", "8", "--max-len", "24", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "# seed 7" in out
    assert "8/8 passed" in out


def test_verify_seed_reproducible(capsys):
    main(["verify", "--trials", "5", "--max-len", "16", "--seed", "3"])
    first = capsys.readouterr().out
    main(["verify", "--trials", "5", "--max-len", "16", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_verify_exhaustive_small(capsys):
    assert main(["verify", "--exhaustive", "--max-len", "3"]) == 0
    out = capsys.readouterr().out
    assert "len 3: 64/64 PASS" in out
    assert "84/84 passed" in out


def test_verify_golden_output(capsys):
    assert main(["verify", "--trials", "5", "--max-len", "16", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        "# seed 3\n"
        "trial 0: len=13 PASS\n"
        "trial 1: len=13 PASS\n"
        "trial 2: len=6 PASS\n"
        "trial 3: len=8 PASS\n"
        "trial 4: len=12 PASS\n"
        "5/5 passed (k=4, seed=3)\n"
    )


def corrupt_prefetch_builds(monkeypatch):
    as_index = construct.SaiiState.as_index

    def corrupting_as_index(state, prefetch_built=False):
        # a build fault: one BWT symbol off after the prefetch schedule,
        # in a new index over the built one's C and rows
        index = as_index(state, prefetch_built)
        if prefetch_built:
            pos = 0 if index.bwt.dollar_pos != 0 else 1
            codes = index.bwt.data.codes()
            codes[pos] ^= 1
            bwt = Bwt(PackedSequence.from_codes(codes), index.bwt.dollar_pos)
            index = FmIndex(bwt=bwt, c=index.c, occ=index.occ, prefetch_built=True)
        return index

    monkeypatch.setattr(construct.SaiiState, "as_index", corrupting_as_index)


def test_verify_injected_fault_detected(capsys, monkeypatch):
    corrupt_prefetch_builds(monkeypatch)
    assert main(["verify", "--trials", "2", "--max-len", "12", "--seed", "5"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "field=bwt" in out


def test_verify_fail_lines_golden(capsys, monkeypatch):
    # the exact report of a fault, seeded and exhaustive
    corrupt_prefetch_builds(monkeypatch)
    fail = "step=0 field=bwt (prefetch differs from oracle)"
    assert main(["verify", "--trials", "2", "--max-len", "12", "--seed", "5"]) == 2
    assert capsys.readouterr().out == (
        "# seed 5\n"
        f"trial 0: len=9 FAIL text=TGATTGTAA {fail}\n"
        f"trial 1: len=6 FAIL text=ACTGCA {fail}\n"
        "0/2 passed (k=4, seed=5)\n"
    )
    assert main(["verify", "--exhaustive", "--max-len", "2"]) == 2
    one = [f"FAIL text={a} {fail}\n" for a in "ACGT"]
    two = [f"FAIL text={a}{b} {fail}\n" for a in "ACGT" for b in "ACGT"]
    assert capsys.readouterr().out == (
        "# seed 1\n" + "".join(one) + "len 1: 0/4 PASS\n" + "".join(two) + "len 2: 0/16 PASS\n0/20 passed (k=4, seed=1)\n"
    )


def test_verify_catches_a_count_kernel_fault(capsys, monkeypatch):
    # a fault in the kernel that tallies a build's checkpoint rows: one C
    # too many in every [4, 8) block; the oracle's rows do not run it
    count_range = PackedBuffer.count_range

    def off_by_one(buf, start, stop):
        counts = count_range(buf, start, stop)
        if (start, stop) == (4, 8):
            counts[1] += 1
        return counts

    monkeypatch.setattr(PackedBuffer, "count_range", off_by_one)
    assert main(["verify", "--trials", "3", "--max-len", "24", "--seed", "7"]) == 2
    fail = "step=6 field=occ (standard differs from oracle)"  # the first suffix of 8 symbols
    assert capsys.readouterr().out == (
        "# seed 7\n"
        f"trial 0: len=23 FAIL text=GCAGGCAGGTGTCTAGCCGTCAC {fail}\n"
        "trial 1: len=6 PASS\n"
        f"trial 2: len=7 FAIL text=TAGTCGG {fail}\n"
        "1/3 passed (k=4, seed=7)\n"
    )


def test_verify_file_input(tmp_path, capsys):
    src = tmp_path / "refs.fa"
    src.write_text(">x\nACGCTTG\n>y\nTTAGGC\n")
    assert main(["verify", str(src)]) == 0
    assert "2/2 passed" in capsys.readouterr().out
    # a bad character fails while the file is read, before the seed line
    src.write_text(">x\nACGCTTG\n>y\nTTNGGC\n")
    assert main(["verify", str(src)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: invalid character 'N' at position 2\n"


def test_verify_exhaustive_rejects_input_file(tmp_path, capsys):
    # --exhaustive checks generated texts; with a file it used to pass
    # without reading it
    src = tmp_path / "bad.fa"
    src.write_text(">x\nACGTNN\n")
    assert main(["verify", str(src), "--exhaustive", "--max-len", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --exhaustive")


def test_bench_model_csv(capsys):
    assert main(["bench", "--lengths", "131072", "--mode", "model"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,cycles_prefetch,cycles_baseline,wall_ms"
    assert out[1].startswith("131072,2523136,4653056,21.026")
    # 10^8 chunks at k = 1: the model holds no per-chunk state
    n = 10**8
    assert main(["bench", "--k", "1", "--lengths", str(n), "--mode", "model"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[1] == f"{n},{3 * n + n * (n + 1) // 4},{3 * n + n * (n + 1) // 2},20833336041.667"


def test_bench_measure_smoke(capsys):
    assert main(["bench", "--lengths", "256,128", "--mode", "both", "--seed", "9"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,cycles_prefetch,cycles_baseline,wall_ms,build_s"
    assert len(lines) == 3
    assert float(lines[1].rsplit(",", 1)[1]) > 0
    # the model columns are the model table's own lines
    table = emit_scaling_table(HardwareParams(), [128, 256]).splitlines()
    assert [line.rsplit(",", 1)[0] for line in lines] == table


def test_bench_bad_params(capsys):
    # every mode rejects the hardware parameters before any output
    bad = {"--m": "bad hardware parameters", "--clock-hz": "bad hardware parameters", "--k": "sampling rate must be >= 1"}
    for mode in ("model", "measure", "both"):
        for flag, message in bad.items():
            assert main(["bench", "--lengths", "100", "--mode", mode, flag, "0"]) == 1
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


@pytest.mark.parametrize("k", ["0", "-1", "4294967296"])
@pytest.mark.parametrize(
    "command", ["build", "verify", "verify-exhaustive", "verify-file", "bench", "bench-model", "bench-both"]
)
def test_invalid_k_exit_code(tmp_path, capsys, command, k):
    # 2^32 does not fit the index file's u32 k field, so every command
    # rejects it, like k < 1, before any output, and no file is written
    src = tmp_path / "t.fa"
    src.write_text(">t\nACGCTTG\n")
    argv = {
        "build": ["build", str(src), "-o", str(tmp_path / "t.saii")],
        "verify": ["verify", "--trials", "2"],
        "verify-exhaustive": ["verify", "--exhaustive", "--max-len", "2"],
        "verify-file": ["verify", str(src)],
        "bench": ["bench", "--mode", "measure", "--lengths", "64"],
        "bench-model": ["bench", "--mode", "model", "--lengths", "64"],
        "bench-both": ["bench", "--mode", "both", "--lengths", "64"],
    }[command]
    assert main(argv + ["--k", k]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: sampling rate must be >= 1")
    assert not (tmp_path / "t.saii").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--lengths", "abc"],
        ["bench", "--mode", "measure", "--lengths", "-5"],
        ["bench", "--mode", "measure", "--lengths", ","],
        ["verify", "--max-len", "0", "--trials", "2"],
        ["verify", "--trials", "-1"],
        ["verify", "--seed", "-1", "--trials", "1"],
        ["bench", "--mode", "measure", "--seed", "-1", "--lengths", "64"],
        ["bench", "--mode", "both", "--seed", "-1", "--lengths", "64"],
    ],
)
def test_bad_numeric_args_exit_code(capsys, argv):
    # rejected before any output: one error line, nothing on stdout
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["build", "verify"])
def test_non_utf8_input_exit_code(tmp_path, capsys, command):
    # a binary file, and a text file of whitespace alone
    for content, message in ((b"\xff\xfe\x00ACGT", "not a text file"), (b" \n\t\n", "no sequence data")):
        src = tmp_path / "in.fa"
        src.write_bytes(content)
        assert main([command, str(src)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {src}: {message}")


def test_module_entrypoint_smoke():
    # the child imports the same package as this process, installed or not
    src = str(Path(saii.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "saii", "bench", "--lengths", "2048", "--mode", "model"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,")
