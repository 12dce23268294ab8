"""The pytest settings in pyproject.toml let a session report every failure."""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_property_test_stops_nothing(tmp_path):
    # Reporting a failing @given test imports libcst where it is installed,
    # and libcst's use of mypy_extensions.TypedDict warns. Turned into an
    # error, that warning stopped the session with an INTERNALERROR, exit 3,
    # before the next test ran.
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert proc.returncode == 1
