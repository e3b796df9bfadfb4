"""The benchmark runs end to end on the package: a change that breaks
what bench/reference.py reads from an index (`bwt.payload()`,
`occ.checkpoints()`, `c.counts`), or the query texts that `ref_count`
searches with, fails here, not only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["ref_build", "read_build", "ref_count"])
def test_bench_run_smoke(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0
