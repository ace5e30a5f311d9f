"""The test suite's own configuration in ``pyproject.toml``.

Every warning raised in-process is an error there, so a warning that a
test plugin raises while it reports a failure would turn that failure
into an INTERNALERROR and end the session before the other tests run.
"""
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

ALWAYS_FAILS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(x):
    assert x is None


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_property_test_is_reported(tmp_path):
    # hypothesis writes a patch of the failing example, for which it
    # imports libcst, which warns on mypy_extensions.TypedDict
    (tmp_path / "test_always_fails.py").write_text(textwrap.dedent(ALWAYS_FAILS))
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    argv += ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in run.stdout
