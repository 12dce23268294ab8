import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

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
from credalvote.scenario import TraceRecord, _parse_fraction
from credalvote.uncertainty import _rational

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

# Voter 1 ranks only three of the four candidates.
PARTIAL_PREFERENCE = """
{
  "format_version": 1,
  "candidates": ["a", "b", "c", "d"],
  "voters": [
    {"preference": ["d", "c", "b", "a"],
     "belief": {"kind": "nested", "radii": [1], "weights": ["1"]},
     "rule": {"kind": "pessimistic"},
     "utility": "cardinal_rank"},
    {"preference": ["a", "b", "c"],
     "belief": {"kind": "nested", "radii": [1], "weights": ["1"]},
     "rule": {"kind": "pessimistic"},
     "utility": "cardinal_rank"}
  ]
}
"""

# Deeper than the JSON decoder's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000

MINIMAL_VOTER = json.loads(MINIMAL)["voters"][0]

FIXTURES = ("example4", "prop1_counterexample", "equilibrium",
            "prop1_cycle")


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


def two_voters(first_belief, second_belief):
    return json.dumps({
        "format_version": 1, "candidates": ["a", "b", "c"],
        "voters": [{"preference": pref, "belief": belief,
                    "rule": {"kind": "pessimistic"}, "utility": "meir_sign"}
                   for pref, belief in ((["a", "b", "c"], first_belief),
                                        (["b", "a", "c"], second_belief))]})


class TestParse:
    def test_equal_beliefs_are_parsed_once(self):
        # Beliefs written the same way share one parse; one written with its
        # keys in another order is parsed again, to an equal belief.
        for belief in ({"kind": "nested", "radii": [1, 2],
                        "weights": ["1/2", "1/2"]},
                       {"kind": "set", "focal": {"points": [[1, 0, 0]]}}):
            voters = parse_scenario(two_voters(belief, dict(belief))).voters
            assert voters[0].belief is voters[1].belief
            reordered = dict(reversed(belief.items()))
            voters = parse_scenario(two_voters(belief, reordered)).voters
            assert voters[0].belief == voters[1].belief

    def test_equal_invalid_beliefs_each_report(self):
        belief = {"kind": "nested", "radii": [2, 1], "weights": ["1/2", "1/2"]}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(two_voters(belief, belief))
        assert exc.value.errors == tuple(
            f"voters[{i}].belief: radii must be strictly increasing"
            for i in (0, 1))

    # Each refusal's message, under the path of the voter's belief. The
    # test id is the message's path.
    @pytest.mark.parametrize("belief, error", [
        ({"kind": "nested", "radii": [1], "weights": ["1"],
          "metrc": "voter_swap"}, "belief.metrc: unknown field"),
        ({"kind": "partitioned", "radii": [0, 1], "weights": ["1/2", "1/2"],
          "radius": 1}, "belief.radius: unknown field"),
        ({"kind": "fixed_mass", "assignments": [], "weights": ["1"]},
         "belief.weights: unknown field"),
        ({"kind": "fixed_mass", "assignments": [
            {"focal": {"points": [[1, 0, 0]]}, "weight": "1", "wieght": 1}]},
         "belief.assignments[0].wieght: unknown field"),
        ({"kind": "set", "focal": {"points": [[1, 0, 0]], "pts": []}},
         "belief.focal.pts: unknown field"),
        # Only a box takes a total.
        ({"kind": "set", "focal": {"points": [[1, 0, 0]], "total": 1}},
         "belief.focal.total: unknown field"),
        ({"kind": "set", "focal": {"box": [[1, 1], [0, 0], [0, 0]],
                                   "totl": 1}}, "belief.focal.totl: unknown field"),
        ({"kind": "set", "focal": {"points": [[1, 0, 0]]}, "total": 1},
         "belief.total: unknown field"),
        ({"kind": "probability",
          "support": [{"score": [1, 0, 0], "prob": "1", "p": "1"}]},
         "belief.support[0].p: unknown field"),
        ({"kind": "set", "focal": [[1, 0, 0]]},
         "belief.focal: expected an object with points or box"),
        ({"kind": "set", "focal": {}},
         "belief.focal: needs exactly one of points or box"),
        ({"kind": "set", "focal": {"points": [[1, 0, 0]],
                                   "box": [[0, 1]] * 3}},
         "belief.focal: needs exactly one of points or box"),
        ({"kind": "set", "focal": {"points": []}},
         "belief.focal.points: expected a nonempty list"),
        ({"kind": "set", "focal": {"box": [[0, 1], [0], [0, 1]]}},
         "belief.focal.box: expected a list of [lo, hi] pairs"),
        ({"kind": "set", "focal": {"box": [[0, 1], [0, True], [0, 1]]}},
         "belief.focal.box: expected a list of [lo, hi] pairs"),
        ({"kind": "set", "focal": {"box": [[0, 1], [0, 1]]}},
         "belief.focal.box: expected 3 intervals, got 2"),
        ({"kind": "set", "focal": {"box": [[0, 1]] * 3, "total": True}},
         "belief.focal.total: expected an integer"),
        ({"kind": "set", "focal": {"box": [[1, 0], [0, 1], [0, 1]]}},
         "belief.focal: box intervals need 0 <= lo <= hi"),
        ({"kind": "set", "focal": {"box": [[0, 1]] * 3, "total": 4}},
         "belief.focal: box with total constraint is empty"),
        ("nested", "belief: expected an object"),
        ({"kind": "nested", "radii": [], "weights": ["1"]},
         "belief.radii: expected a nonempty list of integers"),
        ({"kind": "nested", "radii": [True], "weights": ["1"]},
         "belief.radii: expected a nonempty list of integers"),
        ({"kind": "nested", "radii": [1], "weights": []},
         "belief.weights: expected a nonempty list"),
        ({"kind": "nested", "radii": [-1], "weights": ["1"]},
         "belief: radii must be nonnegative"),
        ({"kind": "nested", "radii": [1, 2], "weights": ["1"]},
         "belief: need one weight per radius"),
        ({"kind": "nested", "radii": [1, 2], "weights": ["3/2", "-1/2"]},
         "belief: layer weights must be positive"),
        ({"kind": "fixed_mass", "assignments": []},
         "belief.assignments: expected a nonempty list"),
        ({"kind": "fixed_mass", "assignments": [1]},
         "belief.assignments[0]: expected an object"),
        ({"kind": "fixed_mass", "assignments": [{"focal": 1, "weight": "1"}]},
         "belief.assignments[0].focal: expected an object with points or box"),
        ({"kind": "fixed_mass", "assignments": [
            {"focal": {"points": [[1, 0, 0]]}, "weight": "1/2"}]},
         "belief: mass weights must sum to exactly 1"),
        ({"kind": "probability", "support": []},
         "belief.support: expected a nonempty list"),
        ({"kind": "probability", "support": ["x"]},
         "belief.support[0]: expected an object"),
        ({"kind": "probability", "support": [{"score": [1, 0], "prob": "1"}]},
         "belief.support[0].score: expected 3 entries, got 2"),
        ({"kind": "fixed_mass", "assignments": [
            {"focal": {"points": [[1, 0, 0]]}}]},
         'belief.assignments[0].weight: rationals must be "p/q" strings or '
         'integers'),
        ({"kind": "fixed_mass", "assignments": [{"weight": "1"}]},
         "belief.assignments[0].focal: expected an object with points or box"),
        ({"kind": "fixed_mass", "assignments": [
            {"focal": {"points": [[1, 0, 0]]}, "weight": "1/0"}]},
         "belief.assignments[0].weight: not a rational number: '1/0'"),
        ({"kind": "fixed_mass", "assignments": [
            {"focal": {"points": [[1, 0, 0]]}, "weight": 0.5}]},
         'belief.assignments[0].weight: rationals must be "p/q" strings or '
         'integers'),
        ({"kind": "fixed_mass", "assignments": [
            {"focal": {"points": [[1, 0, 0]]}, "weight": "1/2"},
            {"focal": {"points": [[1, 0, 0]]}, "weight": "1/2"}]},
         "belief: focal elements must be distinct after canonicalization"),
        ({"kind": "fixed_mass", "assignments": {"weight": "1"}},
         "belief.assignments: expected a nonempty list"),
        ({"kind": "fixed_mass", "support": [{"score": [1, 0, 0],
                                             "prob": "1"}]},
         "belief.support: unknown field"),
        ({"kind": "probability", "support": [{"score": [1, 0, 0],
                                              "prob": "x"}]},
         "belief.support[0].prob: not a rational number: 'x'"),
        ({"kind": "probability", "support": [{"score": [1, 0, 0]}]},
         'belief.support[0].prob: rationals must be "p/q" strings or '
         'integers'),
        ({"kind": "probability", "support": [{"prob": "1"}]},
         "belief.support[0].score: expected a list of integers"),
        ({"kind": "probability", "support": [
            {"prob": "1", "score": [0, 0, 1], "weight": "1"}]},
         "belief.support[0].weight: unknown field"),
        ({"kind": "probability", "support": [
            {"score": [1, 0, 0], "prob": "0"},
            {"score": [0, 1, 0], "prob": "1"}]},
         "belief: every mass weight must be positive"),
        ({"kind": "probability", "support": [
            {"score": [1, 0, 0], "prob": "1/2"},
            {"score": [1, 0, 0], "prob": "1/2"}]},
         "belief: focal elements must be distinct after canonicalization"),
        ({"kind": "probability", "support": [
            {"score": [1, 0, 0], "prob": "1/3"}]},
         "belief: mass weights must sum to exactly 1"),
    ], ids=lambda value: value.split(":")[0] if type(value) is str else None)
    def test_unknown_belief_fields_refused(self, belief, error):
        # Equal invalid beliefs each report under their own voter.
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(two_voters(belief, belief))
        assert exc.value.errors == tuple(
            f"voters[{i}].{error}" for i in (0, 1))

    # Whole-scenario refusals: each edit to MINIMAL and every error it gives.
    @pytest.mark.parametrize("edit, errors", [
        ({"candidates": "abc"}, ("candidates: expected a list of labels",)),
        ({"voters": []}, ("voters: expected a nonempty list",)),
        ({"voters": [1]}, ("voters[0]: expected an object",)),
        ({"scheduler": 5}, ("scheduler: expected an object",)),
        ({"family": "mystery"}, (
            "family: unknown family 'mystery', expected one of "
            "['theorem1_nested', 'theorem1_partitioned', 'theorem2_hurwicz', "
            "'pignistic_uniform', 'meir_r0']",)),
        ({"voters": [dict(MINIMAL_VOTER, preference=["b", "b", "c"])]}, (
            "voters[0].preference: ranking must be a permutation of 0..m-1",)),
        ({"tie_break": ["a", "c", "c"]}, (
            "tie_break: tie-break order must be a permutation of 0..m-1",)),
        # A theorem family checks only the voters that parsed.
        ({"family": "theorem1_nested",
          "voters": [MINIMAL_VOTER, dict(MINIMAL_VOTER, utility="vibes")]}, (
            "voters[1].utility: unknown utility model 'vibes', expected one "
            "of ['meir_sign', 'direct_best_response', 'cardinal_rank']",)),
        # Without valid candidates no score length is known, so scores of
        # two lengths reach the constructors.
        ({"candidates": ["a", "b"], "voters": [dict(MINIMAL_VOTER, belief={
            "kind": "set", "focal": {"points": [[1, 0], [1, 0, 0]]}})]}, (
            "candidates: need more than two candidates",
            "voters[0].belief.focal: focal points must share one length")),
        ({"candidates": ["a", "b"], "voters": [dict(MINIMAL_VOTER, belief={
            "kind": "probability", "support": [
                {"score": [1, 0], "prob": "1/2"},
                {"score": [1, 0, 0], "prob": "1/2"}]})]}, (
            "candidates: need more than two candidates",
            "voters[0].belief: focal elements must hold scores of one "
            "length")),
        # An entry of a fixed_mass or probability belief reports both its
        # focal (or score) and its weight; the first bad entry ends the list.
        ({"voters": [dict(MINIMAL_VOTER, belief={
            "kind": "fixed_mass", "assignments": [
                {"focal": {"points": [[1, 0]]}, "weight": True}]})]}, (
            "voters[0].belief.assignments[0].focal.points[0]: expected 3 "
            "entries, got 2",
            'voters[0].belief.assignments[0].weight: rationals must be "p/q" '
            'strings or integers')),
        ({"voters": [dict(MINIMAL_VOTER, belief={
            "kind": "fixed_mass", "assignments": [
                {"focal": {"points": [[1, 0, 0]]}, "weight": "1/2"},
                {"focal": 1, "weight": "x"},
                {"focal": 2, "weight": "y"}]})]}, (
            "voters[0].belief.assignments[1].focal: expected an object with "
            "points or box",
            "voters[0].belief.assignments[1].weight: not a rational number: "
            "'x'")),
        ({"voters": [dict(MINIMAL_VOTER, belief={
            "kind": "probability", "support": [
                {"score": [1, -1, 0], "prob": [1]}]})]}, (
            "voters[0].belief.support[0].score: score entries must be "
            "nonnegative",
            'voters[0].belief.support[0].prob: rationals must be "p/q" '
            'strings or integers')),
        ({"voters": [dict(MINIMAL_VOTER, belief={
            "kind": "probability", "support": [
                {"score": [1, 0, 0], "prob": "1/2"},
                {"score": [1.0, 0, 0], "prob": "1/0"}]})]}, (
            "voters[0].belief.support[1].score: expected a list of integers",
            "voters[0].belief.support[1].prob: not a rational number: "
            "'1/0'")),
        ({"voters": [dict(MINIMAL_VOTER, belief={
            "kind": "probability", "support": [
                {"focal": {"points": [[1, 0, 0]]}, "weight": "1"}]})]}, (
            "voters[0].belief.support[0].focal: unknown field",
            "voters[0].belief.support[0].weight: unknown field")),
        # An empty score or box is refused where it is built.
        ({"candidates": ["a", "b"], "voters": [dict(MINIMAL_VOTER, belief={
            "kind": "probability", "support": [{"score": [], "prob": "1"}]})]},
         ("candidates: need more than two candidates",
          "voters[0].belief.support[0].score: score needs at least one "
          "entry")),
        ({"candidates": ["a", "b"], "voters": [dict(MINIMAL_VOTER, belief={
            "kind": "set", "focal": {"box": []}})]}, (
            "candidates: need more than two candidates",
            "voters[0].belief.focal: box needs at least one interval")),
    ], ids=lambda value: value[0].split(":")[0] if type(value) is tuple
        else None)
    def test_scenario_refusals(self, edit, errors):
        raw = dict(json.loads(MINIMAL), **edit)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(raw))
        assert exc.value.errors == errors

    def test_unknown_voter_and_rule_fields_refused(self):
        raw = json.loads(MINIMAL)
        voter = raw["voters"][0]
        voter["rule"] = {"kind": "pessimistic", "alhpa": "1/2"}
        voter["utilty"] = "cardinal_rank"
        voter["weight"] = 2
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(raw))
        assert exc.value.errors == ("voters[0].utilty: unknown field",
                                    "voters[0].weight: unknown field",
                                    "voters[0].rule.alhpa: unknown field")

    def test_equal_preferences_are_parsed_once(self):
        pref = ["b", "a", "c"]
        text = json.dumps({
            "format_version": 1, "candidates": ["a", "b", "c"],
            "voters": [{"preference": list(pref),
                        "belief": {"kind": "nested", "radii": [1],
                                   "weights": ["1"]},
                        "rule": {"kind": "pessimistic"},
                        "utility": "meir_sign"}] * 3})
        voters = parse_scenario(text).voters
        assert voters[0].preference is voters[1].preference
        assert voters[2].preference is voters[0].preference
        assert voters[0].preference.ranking == (1, 0, 2)

    def test_equal_invalid_preferences_each_report(self):
        text = json.loads(PARTIAL_PREFERENCE)
        text["voters"].append(dict(text["voters"][1]))
        # A string of labels is no list of labels, even when a valid
        # preference with those letters was parsed before it.
        text["voters"].append(dict(text["voters"][0], preference="dcba"))
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(text))
        assert exc.value.errors == (
            "voters[1].preference: expected 4 labels, got 3",
            "voters[2].preference: expected 4 labels, got 3",
            "voters[3].preference: expected a list of candidate labels")

    def test_equal_rules_are_parsed_once(self):
        voters = json.loads(MINIMAL)["voters"]
        hurwicz = {"kind": "hurwicz", "alpha": "1/2"}
        # The last voter writes the first one's rule in another key order,
        # so it gets an equal rule of its own.
        rules = [hurwicz, {"kind": "pessimistic"}, dict(hurwicz),
                 {"alpha": "1/2", "kind": "hurwicz"}]
        text = json.dumps({
            "format_version": 1, "candidates": ["a", "b", "c"],
            "voters": [dict(voters[0], rule=r) for r in rules]})
        parsed = [v.rule for v in parse_scenario(text).voters]
        assert parsed[0] is parsed[2]
        assert parsed[3] == parsed[0]
        assert parsed[0].alpha == Fraction(1, 2)
        assert parsed[1].kind == PESSIMISTIC

    def test_equal_invalid_rules_each_report(self):
        text = json.loads(PARTIAL_PREFERENCE)
        del text["voters"][1]
        voter = text["voters"][0]
        bad = {"kind": "hurwicz", "alpha": "3/2"}
        text["voters"] = [dict(voter, rule=bad), voter, dict(voter, rule=bad),
                          dict(voter, rule={"alpha": "3/2",
                                            "kind": "hurwicz"}),
                          dict(voter, rule="pessimistic")]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(text))
        assert exc.value.errors == (
            "voters[0].rule: alpha must lie in [0, 1]",
            "voters[2].rule: alpha must lie in [0, 1]",
            "voters[3].rule: alpha must lie in [0, 1]",
            "voters[4].rule: expected an object")

    @pytest.mark.parametrize("kind", [["nested"], {"kind": "nested"}])
    def test_unhashable_belief_kind_is_unknown(self, kind):
        belief = {"kind": kind, "radii": [1], "weights": ["1"]}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(voter_json(json.dumps(belief)))
        assert exc.value.errors == (
            f"voters[0].belief.kind: unknown belief kind {kind!r}, expected "
            f"one of ['nested', 'partitioned', 'fixed_mass', 'set', "
            f"'probability']",)

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
    def test_format_version_must_be_the_integer_1(self, version):
        raw = json.loads(MINIMAL)
        raw["format_version"] = version
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(raw))
        assert exc.value.errors == ("format_version: expected 1",)

    # Strings near the canonical "p/q" form: signs, leading zeros, zero
    # denominators, whitespace, underscores, decimals, exponents and
    # non-ASCII digits, which `Fraction` reads as their values.
    @given(st.lists(st.sampled_from(
        ["", "-", "+", " ", "\t", "0", "00", "1", "7", "10", "_", ".", "e",
         "E", "/", "\u0661", "\u0662", "x"]), max_size=8).map("".join))
    @example("1/0")
    @example("1/00")
    @example("-0/5")
    @example("007/010")
    @example("-12/-4")
    @example(" 1/2")
    @example("1_000/3")
    @example("0.5")
    @example("1e3")
    @example("\u0661/\u0662")
    @example("1" * 5000)
    def test_fraction_fast_path_matches_rational(self, text):
        # `Fraction` is the reference, less the strings `_rational` refuses
        # on purpose: those with an exponent, and zero denominators.
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = None
        if "e" in text or "E" in text:
            expected = None
        try:
            value = _rational(text)
        except ValueError:
            value = None
        assert value == expected
        assert value is None or type(value) is Fraction
        errors = []
        assert _parse_fraction(text, "x", errors) == value
        assert errors == ([] if value is not None else
                          [f"x: not a rational number: {text!r}"])

    def test_unhashable_labels_and_bad_points_refused(self):
        raw = json.loads(MINIMAL)
        voter = raw["voters"][0]
        voter["preference"] = [["a"], "b", "c"]
        raw["voters"].append(dict(voter, preference=["a", "b", "c"], belief={
            "kind": "set", "focal": {"points": [[-1, 2, 0], [1, True, 0]]}}))
        raw["initial_ballots"] = [{"a": 1}, "b"]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(raw))
        assert exc.value.errors == (
            "voters[0].preference: expected a list of candidate labels",
            "voters[1].belief.focal.points[0]: score entries must be "
            "nonnegative",
            "voters[1].belief.focal.points[1]: expected a list of integers",
            "initial_ballots: expected a list of candidate labels")

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
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(DEEP_JSON)
        assert exc.value.errors == ("invalid JSON: nested too deeply",)

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

    def test_exponent_rationals_rejected(self):
        # Fraction would expand an exponent into a power of ten of any size.
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(voter_json(
                '{"kind": "nested", "radii": [1], "weights": ["1e0"]}',
                rule='{"kind": "hurwicz", "alpha": "1e5"}'))
        assert exc.value.errors == (
            "voters[0].belief.weights[0]: not a rational number: '1e0'",
            "voters[0].rule.alpha: not a rational number: '1e5'")

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

    def test_partial_preference_rejected(self):
        text = json.loads(PARTIAL_PREFERENCE)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(text))
        assert exc.value.errors == (
            "voters[1].preference: expected 4 labels, got 3",)
        text["voters"].reverse()
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(text))
        assert exc.value.errors == (
            "voters[0].preference: expected 4 labels, got 3",)

    def test_partial_tie_break_rejected(self):
        text = json.loads(MINIMAL)
        text["tie_break"] = ["a", "b"]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(text))
        assert exc.value.errors == ("tie_break: expected 3 labels, got 2",)

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
        assert all(len(f.points) == 1 for f, _ in mass.assignments)
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

    def test_emit_writes_what_json_dumps_writes(self):
        # Labels that JSON escapes: a quote, a backslash, a non-ASCII
        # letter, the line separator (which splitlines would split on) and
        # a control character.
        labels = ['"', "\\", "\u00e9", "\u2028", "\x01"]
        records = [
            TraceRecord(step=i, voter=2 * i, frm=labels[i],
                        to=labels[(i + 1) % 5], criterion_value=value,
                        score_before=(i, 0, 3), score_after=(i, 1, 2),
                        winner_before=labels[(i + 2) % 5],
                        winner_after=labels[(i + 3) % 5])
            for i, value in enumerate((Fraction(1, 3), Fraction(-2, 7),
                                       Fraction(0), Fraction(5), Fraction(1)))]
        text = emit_trace(records)
        assert text == "".join(json.dumps({
            "step": r.step, "voter": r.voter, "from": r.frm, "to": r.to,
            "criterion_value": str(r.criterion_value),
            "score_before": list(r.score_before),
            "score_after": list(r.score_after),
            "winner_before": r.winner_before,
            "winner_after": r.winner_after}) + "\n" for r in records)
        assert len(text.splitlines()) == len(records)
        assert parse_trace(text) == tuple(records)

    def test_blank_lines_skipped(self):
        records = self.make_records()
        padded = "\n" + emit_trace(records).replace("\n", "\n\n")
        assert parse_trace(padded) == tuple(records)
        # Whitespace around a line's object is JSON's, so the line is valid.
        spaced = emit_trace(records).replace("\n", " \n\t")
        assert parse_trace(spaced) == tuple(records)

    def test_errors_carry_line_numbers(self):
        # `1, [2` and `3]` are each invalid, though joined they would decode
        # as one array.
        bad = ('{"step": 0}\n'
               'not json\n'
               '1, [2\n'
               '3]\n'
               '\ufeff{}\n'
               '[1]\n')
        with pytest.raises(ScenarioError) as exc:
            parse_trace(bad)
        assert exc.value.errors == (
            "line 1.voter: expected a nonnegative integer",
            "line 2: invalid JSON: Expecting value: line 1 column 1 (char 0)",
            "line 3: invalid JSON: Extra data: line 1 column 2 (char 1)",
            "line 4: invalid JSON: Extra data: line 1 column 2 (char 1)",
            "line 5: invalid JSON: Unexpected UTF-8 BOM (decode using "
            "utf-8-sig): line 1 column 1 (char 0)",
            "line 6: expected an object")

    @pytest.mark.parametrize("field, value, error", [
        ("step", True, "step: expected a nonnegative integer"),
        ("step", -1, "step: expected a nonnegative integer"),
        ("voter", -1, "voter: expected a nonnegative integer"),
        ("voter", "0", "voter: expected a nonnegative integer"),
        ("criterion_value", "1/0", "criterion_value: not a rational number: "
                                   "'1/0'"),
        ("criterion_value", 0.5, 'criterion_value: rationals must be "p/q" '
                                 'strings or integers'),
        ("score_before", [-1, 2, 3, 3], "score_before: score entries must be "
                                        "nonnegative"),
        ("score_after", [1, True, 3, 3], "score_after: expected a list of "
                                         "integers"),
        ("to", 1, "to: expected a candidate label"),
        ("winner_after", None, "winner_after: expected a candidate label"),
    ])
    def test_each_field_is_checked(self, field, value, error):
        line = json.loads(emit_trace(self.make_records()[:1]))
        line[field] = value
        with pytest.raises(ScenarioError) as exc:
            parse_trace(json.dumps(line))
        assert exc.value.errors == (f"line 1.{error}",)

    def test_noncanonical_rationals_read_as_fraction_does(self):
        first = self.make_records()[0]
        line = json.loads(emit_trace([first]))
        for text in ("+1/3", " 2/6 ", "\u0661/\u0663", 1):
            line["criterion_value"] = text
            value = parse_trace(json.dumps(line))[0].criterion_value
            assert value == Fraction(text) and type(value) is Fraction

    def test_score_lengths_must_agree(self):
        line = json.loads(emit_trace(self.make_records()[:1]))
        line["score_after"] = line["score_after"][:3]
        with pytest.raises(ScenarioError) as exc:
            parse_trace(json.dumps(line))
        assert exc.value.errors == (
            "line 1.score_after: expected 4 entries, got 3",)

    def test_exponent_criterion_value_refused(self):
        line = emit_trace(self.make_records()[:1])
        assert '"criterion_value": "1/3"' in line
        with pytest.raises(ScenarioError) as exc:
            parse_trace(line.replace('"1/3"', '"1e0"'))
        assert exc.value.errors == (
            "line 1.criterion_value: not a rational number: '1e0'",)

    def test_deeply_nested_line(self):
        records = self.make_records()
        text = emit_trace(records[:1]) + DEEP_JSON + "\n"
        with pytest.raises(ScenarioError) as exc:
            parse_trace(text)
        assert exc.value.errors == ("line 2: invalid JSON: nested too deeply",)


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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_beliefs_equal_publicly_built_ones(self, family):
        # Equal draws, across voters and seeds, are one shared object.
        drawn = {}
        for seed in range(6):
            for voter in generate_instance(seed, n=6, m=4,
                                           family=family).voters:
                belief = voter.belief
                public = LayeredBelief(belief.kind, belief.radii,
                                       belief.weights, belief.metric)
                assert belief == public
                assert hash(belief) == hash(public)
                assert all(type(w) is Fraction for w in belief.weights)
                assert drawn.setdefault(public, belief) is belief
        assert len(drawn) < 36

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_instance(0, n=3, m=3, family="mystery")
        with pytest.raises(ValueError):
            generate_instance(0, n=0, m=3, family=MEIR_R0)
        with pytest.raises(ValueError):
            generate_instance(0, n=3, m=2, family=MEIR_R0)
        with pytest.raises(ValueError, match="at most 26 candidates"):
            generate_instance(1, n=3, m=27, family=MEIR_R0)
        # A seed of True emitted `"seed": true`, which parse_scenario
        # refuses; n=True built a one-voter game; n=2.0 and m=3.0 raised a
        # bare TypeError.
        for name, seed, n, m in (("seed", True, 3, 3), ("seed", 1.0, 3, 3),
                                 ("n", 0, True, 3), ("n", 0, 2.0, 3),
                                 ("m", 0, 3, 3.0), ("m", 0, 3, True)):
            with pytest.raises(ValueError, match=f"^{name} must be an "
                                                 f"integer$"):
                generate_instance(seed, n=n, m=m, family=MEIR_R0)


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
