from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from credalvote import (
    CARDINAL_RANK,
    DIRECT_BEST_RESPONSE,
    DecisionRule,
    FocalElement,
    HURWICZ,
    L1_ADDREMOVE,
    MEIR_SIGN,
    MIXTURE,
    MassFunction,
    MoveEvaluation,
    NOT_PREFERRED,
    NeighborhoodSpec,
    PESSIMISTIC,
    PIGNISTIC,
    PartialPreference,
    Preference,
    STRICTLY_PREFERRED,
    TieBreakOrder,
    UTILITY_MODELS,
    WEAKLY_PREFERRED,
    apply_move,
    completion_scores,
    dominating_manipulation,
    evaluate_move,
    lower_expectation,
    neighborhood,
    pignistic,
    pignistic_cardinal,
    plurality_winner,
    rank_utility,
    upper_expectation,
)
from credalvote.oracles import raw_move_utility
from credalvote.uncertainty import ExpansionCapError
from strategies import mass_functions, preferences, tie_orders

HALF = Fraction(1, 2)
TIE3 = TieBreakOrder.default(3)

# Hesitating-voter belief: certain singleton plus a two-point focal element.
MIXED_MASS = MassFunction((
    (FocalElement.from_points([(1, 1, 1)]), HALF),
    (FocalElement.from_points([(1, 1, 1), (0, 2, 1)]), HALF),
))
# The second voter of that example: prefers b, then c, then a.
PREF_BCA = Preference((1, 2, 0))


def singleton_mass(s):
    return MassFunction(((FocalElement.from_points([s]), Fraction(1)),))


class TestDecisionRule:
    def test_plain_rules(self):
        assert DecisionRule(PESSIMISTIC).alpha is None
        assert DecisionRule(PIGNISTIC).alpha is None

    def test_alpha_rules(self):
        rule = DecisionRule(HURWICZ, alpha="2/3")
        assert rule.alpha == Fraction(2, 3)
        assert DecisionRule(MIXTURE, alpha=1).alpha == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionRule("optimistic")
        with pytest.raises(ValueError):
            DecisionRule(HURWICZ)
        with pytest.raises(ValueError):
            DecisionRule(MIXTURE, alpha=Fraction(3, 2))
        with pytest.raises(ValueError):
            DecisionRule(PESSIMISTIC, alpha=HALF)

    def test_move_evaluation_ordering(self):
        with pytest.raises(ValueError):
            MoveEvaluation(lower=Fraction(1), upper=Fraction(0),
                           pignistic_value=None, criterion_value=Fraction(0),
                           verdict=WEAKLY_PREFERRED)


class TestMoveUtility:
    def test_gain_state(self):
        # b -> c flips the winner from a to c, which the voter prefers
        assert raw_move_utility(MEIR_SIGN, PREF_BCA, 1, 2, (1, 1, 1), TIE3) == 1

    def test_loss_state(self):
        # b -> c hands the b-win to c's benefit only; worse for a b-lover
        assert raw_move_utility(MEIR_SIGN, PREF_BCA, 1, 2, (0, 2, 1), TIE3) == -1

    def test_null_move(self):
        assert raw_move_utility(MEIR_SIGN, PREF_BCA, 1, 1, (0, 2, 1), TIE3) == 0

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            evaluate_move(singleton_mass((1, 1, 1)), DecisionRule(PESSIMISTIC),
                          "sublime", PREF_BCA, 1, 2, TIE3)

    @given(preferences(), st.integers(0, 2), st.integers(0, 2),
           st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
           tie_orders())
    def test_model_relations(self, pref, frm, to, s, tie):
        meir = raw_move_utility(MEIR_SIGN, pref, frm, to, s, tie)
        direct = raw_move_utility(DIRECT_BEST_RESPONSE, pref, frm, to, s, tie)
        cardinal = raw_move_utility(CARDINAL_RANK, pref, frm, to, s, tie)
        assert direct in (meir, 0)
        if direct == 1:
            assert plurality_winner(apply_move(s, frm, to), tie) == to
        u = rank_utility(pref)
        before = plurality_winner(s, tie)
        after = plurality_winner(apply_move(s, frm, to), tie)
        assert cardinal == u[after] - u[before]
        sign = (cardinal > 0) - (cardinal < 0)
        assert sign == meir


class TestEvaluateMove:
    def test_hesitating_voter_hurwicz(self):
        rule = DecisionRule(HURWICZ, alpha=Fraction(1, 3))
        out = evaluate_move(MIXED_MASS, rule, MEIR_SIGN, PREF_BCA, 1, 2, TIE3)
        assert out.lower == 0
        assert out.upper == 1
        assert out.criterion_value == Fraction(2, 3)
        assert out.verdict == STRICTLY_PREFERRED
        assert out.pignistic_value is None

    def test_hesitating_voter_other_rules(self):
        out = evaluate_move(MIXED_MASS, DecisionRule(PESSIMISTIC), MEIR_SIGN,
                            PREF_BCA, 1, 2, TIE3)
        assert (out.criterion_value, out.verdict) == (0, STRICTLY_PREFERRED)
        out = evaluate_move(MIXED_MASS, DecisionRule(PIGNISTIC), MEIR_SIGN,
                            PREF_BCA, 1, 2, TIE3)
        assert (out.criterion_value, out.verdict) == (HALF, STRICTLY_PREFERRED)
        out = evaluate_move(MIXED_MASS, DecisionRule(MIXTURE, alpha=HALF),
                            MEIR_SIGN, PREF_BCA, 1, 2, TIE3)
        assert (out.criterion_value, out.verdict) == (Fraction(1, 4),
                                                      STRICTLY_PREFERRED)

    def test_pessimistic_verdict_table(self):
        pref = Preference((0, 1, 2))
        gain = singleton_mass((1, 2, 0))
        mixed = MassFunction((
            (FocalElement.from_points([(1, 2, 0)]), HALF),
            (FocalElement.from_points([(3, 0, 0)]), HALF)))
        flat = singleton_mass((3, 0, 0))
        loss = singleton_mass((1, 0, 1))
        rule = DecisionRule(PESSIMISTIC)
        assert evaluate_move(gain, rule, MEIR_SIGN, pref, 1, 0,
                             TIE3).verdict == STRICTLY_PREFERRED
        assert evaluate_move(mixed, rule, MEIR_SIGN, pref, 1, 0,
                             TIE3).verdict == STRICTLY_PREFERRED
        assert evaluate_move(flat, rule, MEIR_SIGN, pref, 1, 0,
                             TIE3).verdict == WEAKLY_PREFERRED
        assert evaluate_move(loss, rule, MEIR_SIGN, pref, 0, 2,
                             TIE3).verdict == NOT_PREFERRED

    @given(mass_functions(), preferences(), st.integers(0, 2),
           st.sampled_from([PESSIMISTIC, PIGNISTIC, MIXTURE, HURWICZ]))
    def test_null_move_never_strict(self, mass, pref, frm, kind):
        rule = DecisionRule(kind, alpha=HALF) if kind in (MIXTURE, HURWICZ) \
            else DecisionRule(kind)
        out = evaluate_move(mass, rule, MEIR_SIGN, pref, frm, frm, TIE3)
        assert out.criterion_value == 0
        assert out.verdict == WEAKLY_PREFERRED

    @given(mass_functions(), preferences(), st.integers(0, 2),
           st.integers(0, 2), tie_orders(),
           st.sampled_from(UTILITY_MODELS),
           st.fractions(min_value=0, max_value=1, max_denominator=6))
    def test_values_match_expectation_operators(self, mass, pref, frm, to,
                                                tie, model, alpha):
        def u(s):
            return raw_move_utility(model, pref, frm, to, s, tie)

        lower = lower_expectation(mass, u)
        upper = upper_expectation(mass, u)
        pig = pignistic(mass).expectation(u)

        out = evaluate_move(mass, DecisionRule(PESSIMISTIC), model, pref,
                            frm, to, tie)
        assert (out.lower, out.upper) == (lower, upper)
        assert out.criterion_value == lower

        out = evaluate_move(mass, DecisionRule(PIGNISTIC), model, pref,
                            frm, to, tie)
        assert out.criterion_value == pig
        assert out.pignistic_value == pig

        out = evaluate_move(mass, DecisionRule(MIXTURE, alpha=alpha), model,
                            pref, frm, to, tie)
        assert out.criterion_value == alpha * lower + (1 - alpha) * pig

        out = evaluate_move(mass, DecisionRule(HURWICZ, alpha=alpha), model,
                            pref, frm, to, tie)
        assert out.criterion_value == alpha * lower + (1 - alpha) * upper

    @given(mass_functions(), preferences(), st.integers(0, 2),
           st.integers(0, 2), tie_orders())
    def test_mixture_zero_equals_pignistic(self, mass, pref, frm, to, tie):
        mix = evaluate_move(mass, DecisionRule(MIXTURE, alpha=0), MEIR_SIGN,
                            pref, frm, to, tie)
        pig = evaluate_move(mass, DecisionRule(PIGNISTIC), MEIR_SIGN,
                            pref, frm, to, tie)
        assert mix.criterion_value == pig.criterion_value
        assert mix.verdict == pig.verdict

    @given(mass_functions(), preferences(), st.integers(0, 2),
           st.integers(0, 2), tie_orders())
    def test_hurwicz_endpoints(self, mass, pref, frm, to, tie):
        one = evaluate_move(mass, DecisionRule(HURWICZ, alpha=1), MEIR_SIGN,
                            pref, frm, to, tie)
        zero = evaluate_move(mass, DecisionRule(HURWICZ, alpha=0), MEIR_SIGN,
                             pref, frm, to, tie)
        assert one.criterion_value == one.lower
        assert zero.criterion_value == zero.upper
        pes = evaluate_move(mass, DecisionRule(PESSIMISTIC), MEIR_SIGN,
                            pref, frm, to, tie)
        if one.verdict == STRICTLY_PREFERRED:
            assert pes.lower > 0

    @given(mass_functions(), preferences(), st.integers(0, 2),
           st.integers(0, 2),
           st.fractions(min_value=0, max_value=1, max_denominator=5),
           st.fractions(min_value=0, max_value=1, max_denominator=5))
    def test_hurwicz_value_decreases_in_alpha(self, mass, pref, frm, to,
                                              a1, a2):
        lo, hi = sorted([a1, a2])
        v_lo = evaluate_move(mass, DecisionRule(HURWICZ, alpha=lo), MEIR_SIGN,
                             pref, frm, to, TIE3).criterion_value
        v_hi = evaluate_move(mass, DecisionRule(HURWICZ, alpha=hi), MEIR_SIGN,
                             pref, frm, to, TIE3).criterion_value
        assert v_lo >= v_hi

    @given(mass_functions(singletons_only=True), preferences(),
           st.integers(0, 2), st.integers(0, 2), tie_orders())
    def test_bayesian_beliefs_collapse_the_rules(self, mass, pref, frm, to,
                                                 tie):
        rules = [DecisionRule(PESSIMISTIC), DecisionRule(PIGNISTIC),
                 DecisionRule(MIXTURE, alpha=HALF),
                 DecisionRule(HURWICZ, alpha=HALF)]
        outs = [evaluate_move(mass, rule, MEIR_SIGN, pref, frm, to, tie)
                for rule in rules]
        assert len({out.verdict for out in outs}) == 1
        assert len({out.criterion_value for out in outs}) == 1

    @given(preferences(), st.integers(0, 2), st.integers(0, 2),
           st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
    def test_certain_belief_matches_sign(self, pref, frm, to, s):
        meir = raw_move_utility(MEIR_SIGN, pref, frm, to, s, TIE3)
        out = evaluate_move(singleton_mass(s), DecisionRule(PESSIMISTIC),
                            MEIR_SIGN, pref, frm, to, TIE3)
        expected = {1: STRICTLY_PREFERRED, 0: WEAKLY_PREFERRED,
                    -1: NOT_PREFERRED}[meir]
        assert out.verdict == expected


class TestPignisticCardinal:
    TIE4 = TieBreakOrder.default(4)
    PREF_DBAC = Preference((3, 1, 0, 2))
    PREF_CABD = Preference((2, 0, 1, 3))

    @staticmethod
    def ball_mass(center):
        focal = neighborhood(center, NeighborhoodSpec(L1_ADDREMOVE, 1))
        return MassFunction(((focal, Fraction(1)),))

    def test_requires_single_focal(self):
        with pytest.raises(ValueError):
            pignistic_cardinal(MIXED_MASS, PREF_BCA, 1, 2, TIE3)

    def test_net_counts_along_a_contested_run(self):
        cases = [
            ((2, 2, 3, 3), self.PREF_DBAC, 3, 0, 0),
            ((3, 2, 3, 2), self.PREF_CABD, 2, 0, -2),
            ((4, 2, 2, 2), self.PREF_DBAC, 0, 3, 2),
            ((3, 2, 2, 3), self.PREF_CABD, 0, 2, 3),
        ]
        for center, pref, frm, to, expected in cases:
            mass = self.ball_mass(center)
            diff = pignistic_cardinal(mass, pref, frm, to, self.TIE4)
            assert diff == expected, (center, frm, to)
            # the oracle sums raw winner comparisons, bypassing _pair_counts
            oracle = sum(raw_move_utility(MEIR_SIGN, pref, frm, to, s,
                                          self.TIE4)
                         for s in mass.assignments[0][0].expand())
            assert oracle == expected, (center, frm, to)

    @given(mass_functions(max_focals=1), preferences(), st.integers(0, 2),
           st.integers(0, 2), tie_orders())
    def test_sign_agrees_with_pignistic_rule(self, mass, pref, frm, to, tie):
        diff = pignistic_cardinal(mass, pref, frm, to, tie)
        out = evaluate_move(mass, DecisionRule(PIGNISTIC), MEIR_SIGN, pref,
                            frm, to, tie)
        assert (diff > 0) == (out.verdict == STRICTLY_PREFERRED)
        assert (diff == 0) == (out.verdict == WEAKLY_PREFERRED)


class TestPairCountCache:
    """Cached (winner-before, winner-after) counts follow the point set."""

    PREF_BAC = Preference((1, 0, 2))

    def evaluate(self, focal):
        mass = MassFunction(((focal, Fraction(1)),))
        return evaluate_move(mass, DecisionRule(PESSIMISTIC), MEIR_SIGN,
                             self.PREF_BAC, 2, 1, TIE3)

    def test_keyed_on_content_not_caller_labels(self):
        tie_state = FocalElement.from_points([(1, 1, 0)])
        landslide = FocalElement.from_points([(3, 0, 0)])
        assert self.evaluate(tie_state).verdict == STRICTLY_PREFERRED
        assert self.evaluate(landslide).verdict == WEAKLY_PREFERRED

        ball = neighborhood((1, 1, 0), NeighborhoodSpec(L1_ADDREMOVE, 1))
        copy = FocalElement.from_points(ball.expand())
        assert self.evaluate(ball) == self.evaluate(copy)

        # A caller-supplied label once keyed the cache, so {(3, 0, 0)} under
        # the label of an earlier {(1, 1, 0)} reused its counts and read
        # strictly preferred. Focal elements take no label now.
        with pytest.raises(TypeError):
            for points, verdict in (([(1, 1, 0)], STRICTLY_PREFERRED),
                                    ([(3, 0, 0)], WEAKLY_PREFERRED)):
                labelled = FocalElement.from_points(points, tag="t")
                assert self.evaluate(labelled).verdict == verdict

    def test_a_raised_cap_covers_the_key(self):
        # A box past the default cap, evaluated under a raised one: keying
        # the cache on the element must not expand it again under the default.
        box = FocalElement.from_box([(0, 46)] * 3)
        mass = MassFunction(((box, Fraction(1)),))
        with pytest.raises(ExpansionCapError):
            self.evaluate(box)
        out = evaluate_move(mass, DecisionRule(PESSIMISTIC), MEIR_SIGN,
                            self.PREF_BAC, 2, 1, TIE3, cap=110_000)
        assert len(box.expand(cap=110_000)) == 47 ** 3
        assert (out.lower, out.upper, out.verdict) == \
            (0, 1, STRICTLY_PREFERRED)


class TestCompletionScores:
    def test_mixed_certainty(self):
        committed = PartialPreference.from_pairs([(2, 0), (2, 1), (0, 1)])
        leaning = PartialPreference.from_pairs([(0, 2)])
        scores = completion_scores(1, [committed, leaning], 3)
        assert scores == ((0, 2, 1), (1, 1, 1))

    def test_no_others(self):
        assert completion_scores(0, [], 3) == ((1, 0, 0),)

    def test_cap(self):
        empty = PartialPreference.from_pairs([])
        with pytest.raises(ExpansionCapError):
            completion_scores(0, [empty] * 4, 3, cap=10)


class TestDominatingManipulation:
    def test_undecided_other(self):
        pref = Preference((1, 0, 2))
        undecided = PartialPreference.from_pairs([])
        assert dominating_manipulation(pref, [undecided], 2, 1, TIE3)
        assert not dominating_manipulation(pref, [undecided], 2, 0, TIE3)

    def test_single_completion_flip(self):
        pref = Preference((2, 0, 1))
        committed = PartialPreference.from_pairs([(2, 0), (2, 1), (0, 1)])
        assert dominating_manipulation(pref, [committed], 0, 2, TIE3)

    def test_non_pivotal(self):
        pref = Preference((1, 0, 2))
        landslide = PartialPreference.from_pairs([(0, 1), (0, 2), (1, 2)])
        assert not dominating_manipulation(
            pref, [landslide] * 4, 2, 1, TIE3)
