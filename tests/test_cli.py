import json
import subprocess
import sys

import pytest

from credalvote import parse_scenario, parse_trace
from credalvote.cli import main
from credalvote.scenario import (
    MEIR_R0,
    PIGNISTIC_UNIFORM,
    THEOREM1_NESTED,
    fixture_text,
    generate_instance,
    scenario_to_setup,
)


def fake_family_setup(seed, family, n, m):
    """Stand-in generator whose runs always hit the step limit."""
    scenario = parse_scenario(fixture_text("prop1_counterexample"))
    setup = scenario_to_setup(scenario)
    return type(setup)(initial=setup.initial, configs=setup.configs,
                       tie=setup.tie, max_steps=1)


class TestSimulate:
    def test_stable_fixture(self, capsys):
        assert main(["simulate", "equilibrium"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["status"] == "converged"
        assert summary["steps"] == 0
        assert summary["winner"] == "a"
        assert summary["final_scores"] == [3, 0, 0]

    def test_trace_file(self, capsys, tmp_path):
        trace_path = tmp_path / "moves.jsonl"
        assert main(["simulate", "prop1_counterexample",
                     "--trace", str(trace_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "converged"
        assert summary["steps"] == 5
        assert summary["final_scores"] == [0, 5, 5, 0]
        assert summary["winner"] == "b"
        records = parse_trace(trace_path.read_text())
        assert len(records) == 5
        assert records[0].frm == "a" and records[0].to == "b"

    def test_trace_interleaved_on_stdout(self, capsys):
        assert main(["simulate", "prop1_counterexample"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert all(json.loads(line) for line in lines)
        assert json.loads(lines[-1])["status"] == "converged"

    def test_path_beats_fixture_lookup(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(fixture_text("equilibrium"))
        assert main(["simulate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "converged"


class TestCheck:
    def test_equilibrium(self, capsys):
        assert main(["check", "equilibrium"]) == 0
        assert capsys.readouterr().out == "equilibrium: true\n"

    def test_witness(self, capsys):
        assert main(["check", "prop1_counterexample"]) == 0
        out = capsys.readouterr().out
        assert "equilibrium: false" in out
        assert "witness: voter=0 from=a to=b" in out


class TestVerify:
    @pytest.mark.parametrize("name", ["example4", "equilibrium",
                                      "prop1_counterexample"])
    def test_fixtures_agree(self, name, capsys):
        assert main(["verify", name]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert out.strip().endswith("all checks agree")

    def test_reports_each_move(self, capsys):
        main(["verify", "example4"])
        out = capsys.readouterr().out
        assert "ok: voter 1: pignistic transform agrees" in out
        assert "ok: voter 1: move b->c lower/upper agree" in out


class TestCampaign:
    def test_csv_and_exit_zero(self, capsys):
        assert main(["campaign", "--family", MEIR_R0, "--count", "10"]) == 0
        captured = capsys.readouterr()
        rows = captured.out.strip().splitlines()
        assert rows[0] == "seed,status,steps,cycle_len"
        assert len(rows) == 11
        assert all(row.split(",")[1] == "converged" for row in rows[1:])
        assert "convergence_rate: 1 (1.0000)" in captured.err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "summary.csv"
        assert main(["campaign", "--family", MEIR_R0, "--count", "3",
                     "--seed", "5", "--out", str(out_path)]) == 0
        rows = out_path.read_text().strip().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["5", "6", "7"]

    def test_asserting_family_fails_on_nonconvergence(self, capsys,
                                                      monkeypatch):
        monkeypatch.setattr("credalvote.cli.family_setup", fake_family_setup)
        assert main(["campaign", "--family", THEOREM1_NESTED,
                     "--count", "2"]) == 2
        captured = capsys.readouterr()
        assert "asserts convergence; run failed" in captured.err
        assert all(row.split(",")[1] == "step_limit"
                   for row in captured.out.strip().splitlines()[1:])

    def test_observational_family_tolerates_nonconvergence(self, capsys,
                                                           monkeypatch):
        monkeypatch.setattr("credalvote.cli.family_setup", fake_family_setup)
        assert main(["campaign", "--family", PIGNISTIC_UNIFORM,
                     "--count", "2"]) == 0

    def test_count_validation(self, capsys):
        assert main(["campaign", "--family", MEIR_R0, "--count", "0"]) == 1
        assert "error: --count must be at least 1" in capsys.readouterr().err


class TestGen:
    def test_matches_library_generation(self, capsys):
        assert main(["gen", "--family", MEIR_R0, "--seed", "3",
                     "--voters", "4", "--candidates", "3"]) == 0
        emitted = capsys.readouterr().out
        assert parse_scenario(emitted) == generate_instance(
            3, n=4, m=3, family=MEIR_R0)


class TestErrors:
    def test_unknown_fixture(self, capsys):
        assert main(["simulate", "missing_thing"]) == 1
        err = capsys.readouterr().err
        assert "error: missing_thing: no such file and no fixture" in err

    def test_malformed_scenario_lists_every_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format_version": 7,
            "candidates": ["a", "b", "c"],
            "voters": [{"preference": ["a", "b", "c"],
                        "belief": {"kind": "warped"},
                        "rule": {"kind": "optimistic"},
                        "utility": "meir_sign"}],
        }))
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: format_version: expected 1" in err
        assert "error: voters[0].belief.kind: unknown belief kind" in err
        assert "error: voters[0].rule.kind: unknown rule 'optimistic'" in err

    def test_directory_as_scenario(self, capsys, tmp_path):
        assert main(["simulate", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(tmp_path) in captured.err

    def test_output_into_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        assert main(["gen", "--family", MEIR_R0, "--seed", "1",
                     "--voters", "3", "--candidates", "3",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(out) in captured.err
        assert not out.parent.exists()

    def test_missing_arguments(self, capsys):
        assert main(["simulate"]) == 1
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "credalvote", "check", "equilibrium"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "equilibrium: true\n"
