"""The suite's warning filters let every test run.

pyproject.toml turns each DeprecationWarning into an error. When a
Hypothesis test fails, Hypothesis imports libcst, where it is installed, to
print a patch, and that import warns; unfiltered, the warning ends the run
with INTERNALERROR and the tests after the failure never run.
"""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None, reason="libcst not installed")
def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_pair.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x < 0

            def test_passes():
                pass
            """
        )
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_pair.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
