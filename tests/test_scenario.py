import json
from fractions import Fraction

import pytest

from credalvote import (
    LayeredBelief,
    CONVERGED,
    CYCLE,
    CampaignSummary,
    DIRECT_BEST_RESPONSE,
    FAMILIES,
    HURWICZ_ALPHAS,
    MEIR_R0,
    MassFunction,
    PESSIMISTIC,
    THEOREM1_NESTED,
    THEOREM2_HURWICZ,
    ScenarioError,
    emit_scenario,
    emit_trace,
    fixture_text,
    generate_instance,
    parse_scenario,
    parse_trace,
    run,
    scenario_to_setup,
    summary_csv,
    trace_record,
)

MINIMAL = """
{
  "format_version": 1,
  "candidates": ["a", "b", "c"],
  "voters": [
    {"preference": ["b", "a", "c"],
     "belief": {"kind": "nested", "radii": [1], "weights": ["1"]},
     "rule": {"kind": "pessimistic"},
     "utility": "meir_sign"}
  ]
}
"""

FIXTURES = ("example4", "prop1_counterexample", "equilibrium")


def voter_json(belief, rule='{"kind": "pessimistic"}', family=None):
    family_field = f', "family": "{family}"' if family else ""
    return f"""
    {{
      "format_version": 1,
      "candidates": ["a", "b", "c"],
      "voters": [
        {{"preference": ["a", "b", "c"], "belief": {belief},
          "rule": {rule}, "utility": "meir_sign"}}
      ]{family_field}
    }}
    """


class TestParse:
    def test_minimal_defaults(self):
        scenario = parse_scenario(MINIMAL)
        assert scenario.candidates.labels == ("a", "b", "c")
        assert scenario.tie.order == (0, 1, 2)
        assert scenario.initial_ballots is None
        assert scenario.max_steps == 10_000
        assert scenario.seed is None and scenario.family is None
        voter = scenario.voters[0]
        assert voter.preference.ranking == (1, 0, 2)
        assert isinstance(voter.belief, LayeredBelief)
        assert voter.belief.metric == "l1_addremove"

    def test_invalid_json(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("{nope")
        assert "invalid JSON" in exc.value.errors[0]

    def test_top_level_must_be_object(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("[1, 2]")
        assert exc.value.errors == ("top level must be a JSON object",)

    def test_all_errors_collected(self):
        broken = """
        {
          "format_version": 2,
          "candidates": ["a", "b", "a"],
          "voters": [
            {"preference": ["a", "a", "b"],
             "belief": {"kind": "warped"},
             "rule": {"kind": "pessimistic", "alpha": "1/2"},
             "utility": "vibes"}
          ],
          "scheduler": {"max_steps": 0, "tempo": 3},
          "seed": true,
          "surprise": 1
        }
        """
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(broken)
        text = "\n".join(exc.value.errors)
        for expected in (
                "format_version: expected 1",
                "surprise: unknown field",
                "candidates: candidate labels must be unique",
                "voters[0].belief.kind: unknown belief kind 'warped'",
                "voters[0].rule: pessimistic takes no alpha",
                "voters[0].utility: unknown utility model 'vibes'",
                "scheduler.tempo: unknown field",
                "scheduler.max_steps: expected a positive integer",
                "seed: expected an integer"):
            assert expected in text

    def test_two_candidates_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(voter_json(
                '{"kind": "nested", "radii": [1], "weights": ["1"]}'
            ).replace('["a", "b", "c"]', '["a", "b"]'))
        assert any("more than two candidates" in e for e in exc.value.errors)

    def test_unknown_labels(self):
        text = MINIMAL.replace('["b", "a", "c"]', '["b", "a", "z"]')
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert any("unknown candidate label 'z'" in e
                   for e in exc.value.errors)

    def test_float_weight_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(voter_json(
                '{"kind": "nested", "radii": [1], "weights": [0.5]}'))
        assert any('rationals must be "p/q" strings or integers' in e
                   for e in exc.value.errors)

    def test_unknown_metric(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(voter_json(
                '{"kind": "nested", "metric": "hamming", "radii": [1], '
                '"weights": ["1"]}'))
        assert any("unknown metric 'hamming'" in e for e in exc.value.errors)

    def test_initial_ballot_count(self):
        text = json.loads(MINIMAL)
        text["initial_ballots"] = ["a", "b"]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(text))
        assert any("expected 1 ballots, got 2" in e for e in exc.value.errors)

    def test_theorem_family_requires_layered_belief(self):
        belief = ('{"kind": "fixed_mass", "assignments": '
                  '[{"focal": {"points": [[1, 1, 1]]}, "weight": "1"}]}')
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(voter_json(belief, family=THEOREM1_NESTED))
        assert any("requires a layered belief" in e for e in exc.value.errors)

    def test_theorem_family_requires_decreasing_weights(self):
        belief = ('{"kind": "nested", "radii": [1, 2], '
                  '"weights": ["1/3", "2/3"]}')
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(voter_json(belief, family=THEOREM1_NESTED))
        assert any("requires decreasing layer weights" in e
                   for e in exc.value.errors)

    def test_set_sugar(self):
        belief = '{"kind": "set", "focal": {"box": [[0, 1], [0, 1], [0, 1]]}}'
        scenario = parse_scenario(voter_json(belief))
        mass = scenario.voters[0].belief
        assert isinstance(mass, MassFunction)
        assert len(mass.assignments) == 1
        assert mass.assignments[0][1] == 1

    def test_probability_sugar(self):
        belief = ('{"kind": "probability", "support": ['
                  '{"score": [1, 0, 0], "prob": "1/2"}, '
                  '{"score": [0, 1, 0], "prob": "1/2"}]}')
        scenario = parse_scenario(voter_json(belief))
        mass = scenario.voters[0].belief
        assert isinstance(mass, MassFunction)
        assert all(len(f.expand()) == 1 for f, _ in mass.assignments)
        assert [w for _, w in mass.assignments] == [Fraction(1, 2)] * 2


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        scenario = parse_scenario(fixture_text(name))
        text = emit_scenario(scenario)
        assert parse_scenario(text) == scenario
        assert emit_scenario(parse_scenario(text)) == text

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generated_instances(self, family):
        for seed in range(4):
            scenario = generate_instance(seed, n=3, m=3, family=family)
            assert scenario.family == family
            assert parse_scenario(emit_scenario(scenario)) == scenario

    def test_sugar_normalizes_to_fixed_mass(self):
        belief = '{"kind": "set", "focal": {"points": [[1, 0, 0], [0, 1, 0]]}}'
        scenario = parse_scenario(voter_json(belief))
        again = parse_scenario(emit_scenario(scenario))
        assert again == scenario
        assert json.loads(emit_scenario(scenario))["voters"][0]["belief"][
            "kind"] == "fixed_mass"


class TestTrace:
    def make_records(self):
        scenario = parse_scenario(fixture_text("prop1_counterexample"))
        setup = scenario_to_setup(scenario)
        outcome = run(setup.initial, setup.configs, setup.tie,
                      setup.max_steps)
        return [trace_record(move, scenario.candidates, scenario.tie)
                for move in outcome.trace]

    def test_round_trip(self):
        records = self.make_records()
        assert parse_trace(emit_trace(records)) == tuple(records)

    def test_first_move_content(self):
        first = self.make_records()[0]
        assert (first.step, first.voter) == (0, 0)
        assert (first.frm, first.to) == ("a", "b")
        assert first.criterion_value == Fraction(1, 3)
        assert first.score_before == (2, 2, 3, 3)
        assert first.score_after == (1, 3, 3, 3)
        assert (first.winner_before, first.winner_after) == ("c", "b")

    def test_blank_lines_skipped(self):
        records = self.make_records()
        padded = "\n" + emit_trace(records).replace("\n", "\n\n")
        assert parse_trace(padded) == tuple(records)

    def test_errors_carry_line_numbers(self):
        bad = ('{"step": 0}\n'
               'not json\n')
        with pytest.raises(ScenarioError) as exc:
            parse_trace(bad)
        text = "\n".join(exc.value.errors)
        assert "line 1.voter" in text
        assert "line 2: invalid JSON" in text


class TestSummaryCsv:
    def test_golden(self):
        summary = CampaignSummary(
            rows=((0, CONVERGED, 0, None), (1, CYCLE, 4, 2)),
            convergence_rate=Fraction(1, 2),
            max_steps_observed=4,
            cycle_outcomes=())
        assert summary_csv(summary) == (
            "seed,status,steps,cycle_len\r\n"
            "0,converged,0,\r\n"
            "1,cycle,4,2\r\n")


class TestGeneration:
    def test_deterministic(self):
        a = generate_instance(11, n=4, m=3, family=THEOREM2_HURWICZ)
        b = generate_instance(11, n=4, m=3, family=THEOREM2_HURWICZ)
        assert a == b
        assert emit_scenario(a) == emit_scenario(b)

    def test_meir_r0_shape(self):
        scenario = generate_instance(3, n=4, m=3, family=MEIR_R0)
        for voter in scenario.voters:
            assert voter.belief.radii == (0,)
            assert voter.rule.kind == PESSIMISTIC
            assert voter.utility == DIRECT_BEST_RESPONSE

    def test_hurwicz_alphas_stay_above_one_half(self):
        assert all(alpha > Fraction(1, 2) for alpha in HURWICZ_ALPHAS)
        scenario = generate_instance(5, n=6, m=3, family=THEOREM2_HURWICZ)
        assert all(v.rule.alpha in HURWICZ_ALPHAS for v in scenario.voters)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_instance(0, n=3, m=3, family="mystery")
        with pytest.raises(ValueError):
            generate_instance(0, n=0, m=3, family=MEIR_R0)
        with pytest.raises(ValueError):
            generate_instance(0, n=3, m=2, family=MEIR_R0)


class TestFixtures:
    def test_suffix_optional(self):
        assert fixture_text("example4") == fixture_text("example4.json")

    def test_unknown_name(self):
        with pytest.raises(FileNotFoundError):
            fixture_text("lost")

    def test_setup_uses_explicit_ballots(self):
        scenario = parse_scenario(fixture_text("example4"))
        setup = scenario_to_setup(scenario)
        assert setup.initial.profile.ballots == (0, 1, 2)
        assert setup.max_steps == scenario.max_steps

    def test_setup_defaults_to_truthful(self):
        scenario = parse_scenario(fixture_text("equilibrium"))
        setup = scenario_to_setup(scenario)
        assert setup.initial.profile.ballots == \
            tuple(v.preference.top for v in scenario.voters)
