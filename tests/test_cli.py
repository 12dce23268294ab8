import json
import pathlib
import subprocess
import sys
import time

import pytest

from credalvote import parse_scenario, parse_trace
from credalvote.cli import main
from credalvote.oracles import oracle_evaluation
from credalvote.scenario import (
    MEIR_R0,
    PIGNISTIC_UNIFORM,
    THEOREM1_NESTED,
    fixture_text,
    generate_instance,
    scenario_to_setup,
)

from test_acceptance import CONTESTED_RACE
from test_scenario import DEEP_JSON, PARTIAL_PREFERENCE


def fake_family_setup(seed, family, n, m):
    """Stand-in generator whose runs always hit the step limit."""
    scenario = parse_scenario(fixture_text("prop1_counterexample"))
    setup = scenario_to_setup(scenario)
    return type(setup)(initial=setup.initial, configs=setup.configs,
                       tie=setup.tie, max_steps=1)


def cycling_family_setup(seed, family, n, m):
    """Stand-in generator whose runs always end in a cycle of length 4."""
    return scenario_to_setup(parse_scenario(CONTESTED_RACE))


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

    def test_huge_swap_radius(self, capsys, tmp_path):
        # With three votes every reachable score is two reassignments away,
        # so a radius of 10**8 must build the same small ball, at once.
        belief = {"kind": "nested", "metric": "voter_swap",
                  "radii": [10**8], "weights": ["1"]}
        path = tmp_path / "huge_swap.json"
        path.write_text(json.dumps({
            "format_version": 1, "candidates": ["a", "b", "c"],
            "voters": [{"preference": pref, "belief": belief,
                        "rule": {"kind": "pessimistic"},
                        "utility": "meir_sign"}
                       for pref in (["a", "b", "c"], ["b", "c", "a"],
                                    ["c", "a", "b"])]}))
        start = time.perf_counter()
        assert main(["simulate", str(path)]) == 0
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().out == (
            '{"status": "converged", "steps": 0, "final_scores": [1, 1, 1], '
            '"final_ballots": ["a", "b", "c"], "winner": "a"}\n')


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
        assert "ok: voter 1: move b->c evaluation agrees" in out

    def test_checks_every_move_past_the_selection_caps(self, capsys):
        # 21 voters and 5 candidates over voter-swap balls of 17 and 93
        # points, past what the selection-product oracle enumerates: each
        # of the 21 * 4 moves is still checked.
        path = (pathlib.Path(__file__).parent / "golden" / "scenarios"
                / "voter_swap_nested.json")
        assert main(["verify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        moves = [line for line in lines if line.endswith("evaluation agrees")]
        assert len(moves) == 84
        assert all(line.startswith("ok: ") for line in moves)
        assert not any("skipped" in line for line in lines)

    def test_a_disagreement_fails_with_exit_2(self, capsys, monkeypatch):
        # The oracle is made to disagree on the first move it checks.
        calls = []

        def wrong_once(*args):
            calls.append(args)
            return None if len(calls) == 1 else oracle_evaluation(*args)

        monkeypatch.setattr("credalvote.cli.oracle_evaluation", wrong_once)
        assert main(["verify", "example4"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if not line.startswith("ok: ")] == [
            "MISMATCH: voter 0: move a->b evaluation agrees",
            "1 mismatch(es)"]
        assert len(calls) == 6


class TestCampaign:
    def test_csv_and_exit_zero(self, capsys):
        assert main(["campaign", "--family", MEIR_R0, "--count", "10"]) == 0
        captured = capsys.readouterr()
        rows = captured.out.strip().splitlines()
        assert rows[0] == "seed,status,steps,cycle_len"
        assert len(rows) == 11
        assert all(row.split(",")[1] == "converged" for row in rows[1:])
        assert "convergence_rate: 1 (1.0000)" in captured.err

    def test_large_electorate_csv(self, capsys):
        # Two hundred voters put the race far from most candidates, so the
        # fast path evaluates its moves at recentred neighbourhoods.
        assert main(["campaign", "--family", THEOREM1_NESTED, "--count", "5",
                     "--voters", "200", "--candidates", "6"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "seed,status,steps,cycle_len\r\n"
            "0,converged,115,\r\n"
            "1,converged,0,\r\n"
            "2,converged,100,\r\n"
            "3,converged,0,\r\n"
            "4,converged,121,\r\n")
        assert captured.err == ("convergence_rate: 1 (1.0000)\n"
                                "max_steps_observed: 121\n"
                                "cycles: 0\n")

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
        monkeypatch.setattr("credalvote.cli.family_setup",
                            cycling_family_setup)
        assert main(["campaign", "--family", THEOREM1_NESTED,
                     "--count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ("seed,status,steps,cycle_len\r\n"
                                "0,cycle,7,4\r\n")
        assert captured.err == (
            "convergence_rate: 0 (0.0000)\n"
            "max_steps_observed: 7\n"
            "cycles: 1\n"
            "cycle at seed 0: length 4\n"
            "family 'theorem1_nested' asserts convergence; run failed\n")

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

    def test_partial_preference(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(PARTIAL_PREFERENCE)
        for command in ("simulate", "check"):
            assert main([command, str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: voters[1].preference: "
                                    "expected 4 labels, got 3\n")

    def test_box_past_the_cap_is_a_parse_error(self, capsys, tmp_path):
        # A focal element is capped when it is built, so each voter's
        # 47**3-point box is reported at its path before anything runs.
        box = {"box": [[0, 46]] * 3}
        path = tmp_path / "big_box.json"
        path.write_text(json.dumps({
            "format_version": 1, "candidates": ["a", "b", "c"],
            "voters": [{"preference": pref,
                        "belief": {"kind": "set", "focal": box},
                        "rule": {"kind": "pessimistic"},
                        "utility": "meir_sign"}
                       for pref in (["a", "b", "c"], ["b", "c", "a"])]}))
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: voters[0].belief.focal: box expands past cap 100000\n"
            "error: voters[1].belief.focal: box expands past cap 100000\n")

    def test_exponent_weight_is_refused_at_once(self, capsys, tmp_path):
        # Read as a Fraction, this weight is a ten-million-digit power of ten.
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps({
            "format_version": 1, "candidates": ["a", "b", "c"],
            "voters": [{"preference": ["a", "b", "c"],
                        "belief": {"kind": "nested", "radii": [0, 1],
                                   "weights": ["1e-10000000", "1"]},
                        "rule": {"kind": "pessimistic"},
                        "utility": "meir_sign"}]}))
        for command in ("check", "simulate", "verify"):
            start = time.perf_counter()
            assert main([command, str(path)]) == 1
            assert time.perf_counter() - start < 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: voters[0].belief.weights[0]: not a "
                                    "rational number: '1e-10000000'\n")

    def test_a_ball_past_the_cap_while_running(self, capsys, tmp_path):
        # 120 ballots spread over six candidates: the radius-12 ball around
        # (20, ..., 20) passes the cap only once the dynamics centre it.
        labels = list("abcdef")
        belief = {"kind": "nested", "metric": "l1_addremove", "radii": [12],
                  "weights": ["1"]}
        path = tmp_path / "big_ball.json"
        path.write_text(json.dumps({
            "format_version": 1, "candidates": labels,
            "voters": [{"preference": labels[c:] + labels[:c],
                        "belief": belief, "rule": {"kind": "pessimistic"},
                        "utility": "meir_sign"}
                       for c in range(6) for _ in range(20)]}))
        assert main(["simulate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: neighborhood expands past cap 100000\n"

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        for command in ("simulate", "check", "verify"):
            done = subprocess.run(
                [sys.executable, "-m", "credalvote", command, str(path)],
                capture_output=True, text=True)
            assert done.returncode == 1
            assert done.stdout == ""
            assert done.stderr == "error: invalid JSON: nested too deeply\n"

    def test_more_than_26_candidates(self, capsys):
        for command in (["gen", "--seed", "1"], ["campaign", "--count", "1"]):
            assert main(command + ["--family", MEIR_R0, "--voters", "3",
                                   "--candidates", "27"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: need at most 26 candidates, "
                                    "one per letter a-z\n")

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
