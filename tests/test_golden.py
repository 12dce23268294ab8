"""Golden CLI corpus: same behaviour, checked byte for byte.

Every invocation in `corpus` reruns in-process through `cli.main`. Its exit
code and the SHA-256 of its stdout and stderr (and of the trace file, for the
trace run) must equal the pins in `tests/golden/pins.json`. For the names in
`FULL_TEXT` the whole output is also kept under `tests/golden/text/`, so the
corpus stays readable and a failure shows a diff.

The pins record current behaviour, not verified truth. A change that alters
one says which and why. To rewrite the pins, run this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from credalvote.cli import main
from credalvote.scenario import FAMILIES

GOLDEN = pathlib.Path(__file__).parent / "golden"
PINS = GOLDEN / "pins.json"
TEXT = GOLDEN / "text"

FIXTURES = ("equilibrium", "example4", "prop1_counterexample")
COMMANDS = ("simulate", "check", "verify")
TRACE_RUN = "simulate prop1_counterexample --trace"
# The roadmap's second reference campaign: its balls reach m = 6 and radius
# 3, with gaps far past the clip of the gap classes.
LARGE_CAMPAIGN = ("campaign theorem1_nested --count 5 --voters 200 "
                  "--candidates 6")
FULL_TEXT = ("simulate prop1_counterexample", "check prop1_counterexample",
             "verify example4", "campaign theorem1_nested",
             "simulate set_box_total", "simulate ball_past_cap",
             "simulate box_total_past_cap", "simulate misspelled_metric",
             "simulate belief_kind_list", "simulate format_version_true",
             "simulate hurwicz_third_cycle", "simulate hurwicz_third_cut",
             LARGE_CAMPAIGN, TRACE_RUN)
STREAMS = ("stdout", "stderr", "trace")


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def corpus(workdir: pathlib.Path) -> dict[str, dict]:
    """Run every invocation; name -> exit code and output texts."""
    results = {}
    for name in FIXTURES:
        for command in COMMANDS:
            results[f"{command} {name}"] = _run([command, name])
    for family in FAMILIES:
        for seed in (1, 2):
            gen = results[f"gen {family} {seed}"] = _run(
                ["gen", "--family", family, "--seed", str(seed),
                 "--voters", "9", "--candidates", "5"])
            path = workdir / f"{family}_{seed}.json"
            path.write_text(gen["stdout"], encoding="utf-8")
            for command in COMMANDS:
                results[f"{command} gen {family} {seed}"] = _run(
                    [command, str(path)])
        results[f"campaign {family}"] = _run(
            ["campaign", "--family", family, "--count", "20"])
    results[LARGE_CAMPAIGN] = _run(
        ["campaign", "--family", "theorem1_nested", "--count", "5",
         "--voters", "200", "--candidates", "6"])
    for path in sorted((GOLDEN / "scenarios").glob("*.json")):
        for command in COMMANDS:
            results[f"{command} {path.stem}"] = _run([command, str(path)])
    trace = workdir / "trace.jsonl"
    results[TRACE_RUN] = _run(["simulate", "prop1_counterexample",
                               "--trace", str(trace)])
    results[TRACE_RUN]["trace"] = trace.read_text(encoding="utf-8")
    return results


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pin(result: dict) -> dict:
    pin = {"exit": result["exit"]}
    pin.update({s: _digest(result[s]) for s in STREAMS if s in result})
    return pin


def _text_path(name: str, stream: str) -> pathlib.Path:
    return TEXT / f"{name.replace(' ', '_').replace('-', '')}.{stream}"


# Empty before the first rewrite, which
# `test_corpus_runs_every_pinned_invocation` reports as a failure.
PINNED = (json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists()
          else {})


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return corpus(tmp_path_factory.mktemp("golden"))


def test_corpus_runs_every_pinned_invocation(results):
    assert sorted(results) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_invocation_matches_pin(name, results):
    result = results[name]
    for stream in STREAMS:
        path = _text_path(name, stream)
        if path.exists():
            with open(path, encoding="utf-8", newline="") as fh:
                assert result[stream] == fh.read()
    assert _pin(result) == PINNED[name]


def _rewrite_pins() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        results = corpus(pathlib.Path(workdir))
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump({name: _pin(r) for name, r in sorted(results.items())},
                  fh, indent=1)
        fh.write("\n")
    TEXT.mkdir(exist_ok=True)
    for old in TEXT.iterdir():
        old.unlink()
    for name in FULL_TEXT:
        for stream in STREAMS:
            if results[name].get(stream):
                with open(_text_path(name, stream), "w", encoding="utf-8",
                          newline="") as fh:
                    fh.write(results[name][stream])
    print(f"pinned {len(results)} invocations in {PINS}", file=sys.stderr)


if __name__ == "__main__":
    _rewrite_pins()
