"""The benchmark runs end to end on the package: a change that breaks
what bench/reference.py reads from an index (`bwt.payload()`,
`occ.checkpoints()`, `c.counts`), the query texts that `ref_count`
searches with, or a layer that bench/tracing.py wraps by name, fails
here, not only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
WORKLOADS = ["ref_build", "read_build", "ref_count"]


def run_bench(workload, *extra) -> dict:
    """The result line of one zero-second run, checked to be correct."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "0", *extra],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_run_smoke(workload):
    run_bench(workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_run_traced_smoke(workload):
    # the traced run wraps package functions by name (spans go to the
    # git-ignored bench/out/); it reports exactly the declared layers
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    result = run_bench(workload, "--trace", "1")
    assert sorted(result["metrics"]) == sorted(layer["name"] for layer in declared)
