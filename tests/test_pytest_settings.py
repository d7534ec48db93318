"""The suite's own pytest settings: a failing hypothesis test is reported as a
failure, and the session goes on to the tests after it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, deadline=None)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # hypothesis's failure report imports mypy_extensions, which warns; as an
    # error under filterwarnings, that warning stopped pytest with exit code 3
    (tmp_path / "test_child.py").write_text(CHILD)
    done = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
         "-q", str(tmp_path / "test_child.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
