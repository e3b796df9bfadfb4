import os
import subprocess
import sys
from pathlib import Path

import pytest

import saii
from saii import construct, oracle
from saii.alphabet import encode_text
from saii.cli import main
from saii.fasta import FastaFormatError, parse_fasta, read_sequences
from saii.fmindex import first_mismatch
from saii.serialize import load_index


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
    assert index.bwt.decode_with_sentinel() == "G$AGTCTC"

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


def test_build_invalid_character_exit_code(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("ACGN\n")
    assert main(["build", str(src)]) == 1
    assert "invalid character" in capsys.readouterr().err
    assert main(["build", str(src), "--substitute", "-o", str(tmp_path / "ok.saii")]) == 0


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


def test_verify_injected_fault_detected(capsys, monkeypatch):
    flush = construct.prefetch_flush

    def corrupting_flush(state):
        # a build fault: one BWT symbol off after the prefetch schedule
        flush(state)
        pos = 0 if state.bwt.dollar_pos != 0 else 1
        state.bwt.data.set(pos, state.bwt.code_at(pos) ^ 1)

    monkeypatch.setattr(construct, "prefetch_flush", corrupting_flush)
    assert main(["verify", "--trials", "2", "--max-len", "12", "--seed", "5"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "field=bwt" in out


def test_verify_file_input(tmp_path, capsys):
    src = tmp_path / "refs.fa"
    src.write_text(">x\nACGCTTG\n>y\nTTAGGC\n")
    assert main(["verify", str(src)]) == 0
    assert "2/2 passed" in capsys.readouterr().out


def test_bench_model_csv(capsys):
    assert main(["bench", "--lengths", "131072", "--mode", "model"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,cycles_prefetch,cycles_baseline,wall_ms"
    assert out[1].startswith("131072,2523136,4653056,21.026")


def test_bench_measure_smoke(capsys):
    assert main(["bench", "--lengths", "256,128", "--mode", "both", "--seed", "9"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,cycles_prefetch,cycles_baseline,wall_ms,build_s"
    assert len(lines) == 3
    assert float(lines[1].rsplit(",", 1)[1]) > 0


def test_bench_bad_params(capsys):
    assert main(["bench", "--lengths", "100", "--m", "0"]) == 1


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("command", ["build", "verify", "bench"])
def test_invalid_k_exit_code(tmp_path, capsys, command, k):
    src = tmp_path / "t.fa"
    src.write_text(">t\nACGCTTG\n")
    argv = {
        "build": ["build", str(src), "-o", str(tmp_path / "t.saii")],
        "verify": ["verify", "--trials", "2"],
        "bench": ["bench", "--mode", "measure", "--lengths", "64"],
    }[command]
    assert main(argv + ["--k", k]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: sampling rate must be >= 1")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--lengths", "abc"],
        ["bench", "--mode", "measure", "--lengths", "-5"],
        ["bench", "--mode", "measure", "--lengths", ","],
        ["verify", "--max-len", "0", "--trials", "2"],
        ["verify", "--trials", "-1"],
    ],
)
def test_bad_numeric_args_exit_code(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in captured.err
    assert "passed" not in captured.out


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
