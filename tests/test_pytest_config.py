"""The repo's pytest settings on a failing Hypothesis test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after():
    pass
"""


def test_failing_property_reports_its_example(tmp_path):
    # warnings are errors under these settings; one raised inside
    # Hypothesis's failure report must not end the session with an
    # INTERNALERROR (exit code 3) that hides the example and later tests
    (tmp_path / "test_fails.py").write_text(FAILING)
    argv = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
