"""The pytest settings in pyproject.toml, and the Tier-1 command that CI runs
with them, let a session report every failure."""
import pathlib
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
'''


def run_probe(tmp_path, python_options=(), pytest_options=()):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, *python_options, "-m", "pytest", *pytest_options,
         "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
         str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert proc.returncode == 1


def ci_tier1_options():
    """The interpreter's and pytest's options in the workflow's one pytest
    command, `[VAR=value ...] python OPTIONS -m pytest OPTIONS`."""
    text = WORKFLOW.read_text(encoding="utf-8")
    # No command or env block may put src/ on the import path, so that CI
    # tests the package it installed.
    assert "PYTHONPATH" not in text
    lines = [line for line in text.splitlines() if "-m pytest" in line]
    assert len(lines) == 1, lines
    words = shlex.split(lines[0].strip().removeprefix("run:"))
    while "=" in words[0]:
        words.pop(0)
    assert words[0] == "python", words
    at = words.index("-m")
    assert words[at + 1] == "pytest", words
    return words[1:at], words[at + 2:]


def test_a_failing_property_test_stops_nothing(tmp_path):
    # Reporting a failing @given test imports libcst where it is installed,
    # and libcst's use of mypy_extensions.TypedDict warns. Turned into an
    # error, that warning stopped the session with an INTERNALERROR, exit 3,
    # before the next test ran.
    run_probe(tmp_path)


def test_the_ci_tier1_command_stops_at_no_failure(tmp_path):
    # Pytest's own `-W error` outranks pyproject.toml's ignore, so with it
    # the probe stops at an INTERNALERROR where libcst is installed.
    python_options, pytest_options = ci_tier1_options()
    assert "error" in python_options
    run_probe(tmp_path, python_options, pytest_options)
