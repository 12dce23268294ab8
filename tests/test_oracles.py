from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from credalvote import (
    CARDINAL_RANK,
    DIRECT_BEST_RESPONSE,
    DecisionRule,
    FocalElement,
    HURWICZ,
    MassFunction,
    PESSIMISTIC,
    PartialPreference,
    Preference,
    TieBreakOrder,
    UTILITY_MODELS,
    VoterConfig,
    dominating_manipulation,
    equilibrium_check,
    evaluate_move,
    lower_expectation,
    pignistic,
    upper_expectation,
)
from credalvote.oracles import (
    ORACLE_MAX_FOCALS,
    ORACLE_MAX_POINTS,
    oracle_dominance,
    oracle_equilibrium,
    oracle_evaluation,
    oracle_lower_expectation,
    oracle_pignistic,
    oracle_upper_expectation,
    raw_move_utility,
)
from strategies import (
    decision_rules,
    mass_and_utility,
    mass_functions,
    partial_preferences,
    preferences,
    small_games,
    tie_orders,
)


@st.composite
def moves(draw):
    """(mass, preference, frm, to, tie) at 3 to 6 candidates; frm may equal
    to."""
    m = draw(st.integers(3, 6))
    return (draw(mass_functions(m=m)), draw(preferences(m)),
            draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)),
            draw(tie_orders(m)))


class TestExpectationOracles:
    @given(mass_and_utility())
    def test_lower_and_upper_match_selection_scan(self, mass_u):
        mass, u = mass_u
        assert lower_expectation(mass, u) == oracle_lower_expectation(mass, u)
        assert upper_expectation(mass, u) == oracle_upper_expectation(mass, u)

    @given(mass_functions())
    def test_pignistic_matches_point_first_scan(self, mass):
        assert pignistic(mass) == oracle_pignistic(mass)

    @given(mass_functions(), preferences(), st.integers(0, 2),
           st.integers(0, 2), tie_orders(), st.sampled_from(UTILITY_MODELS))
    def test_move_evaluation_matches_selection_scan(self, mass, pref, frm,
                                                    to, tie, model):
        def u(s):
            return raw_move_utility(model, pref, frm, to, s, tie)

        out = evaluate_move(mass, DecisionRule(HURWICZ, alpha=Fraction(1, 2)),
                            model, pref, frm, to, tie)
        assert out.lower == oracle_lower_expectation(mass, u)
        assert out.upper == oracle_upper_expectation(mass, u)

    @settings(max_examples=300, deadline=None)
    @given(moves(), st.sampled_from(UTILITY_MODELS), decision_rules())
    # cardinal_rank at +(m - 1): the voter's last choice loses to their
    # first. direct_best_response: the improved winner is not the
    # destination, so the move counts 0.
    @example((MassFunction(((FocalElement.from_points([(0, 0, 0, 0, 0, 1)]),
                             Fraction(1)),)),
              Preference(tuple(range(6))), 5, 0, TieBreakOrder.default(6)),
             CARDINAL_RANK, DecisionRule(PESSIMISTIC))
    @example((MassFunction(((FocalElement.from_points([(1, 0, 0, 0, 0, 2)]),
                             Fraction(1)),)),
              Preference(tuple(range(6))), 5, 2, TieBreakOrder.default(6)),
             DIRECT_BEST_RESPONSE, DecisionRule(PESSIMISTIC))
    def test_move_evaluation_matches_point_scan(self, move, model, rule):
        """All five fields of `evaluate_move`, for every rule of Denoeux,
        "Decision-making with belief functions: a review" (IJAR 2019),
        equal the per-point oracle that `verify` runs, at 3 to 6
        candidates, where cardinal_rank reaches +-(m - 1)."""
        mass, pref, frm, to, tie = move
        config = VoterConfig(preference=pref, belief=mass, rule=rule,
                             utility=model)
        assert evaluate_move(mass, rule, model, pref, frm, to, tie) == \
            oracle_evaluation(mass, config, frm, to, tie)

    def test_focal_count_cap(self):
        singletons = [FocalElement.from_points([(i, 0, 0)])
                      for i in range(ORACLE_MAX_FOCALS + 1)]
        mass = MassFunction(tuple(
            (f, Fraction(1, len(singletons))) for f in singletons))
        with pytest.raises(ValueError):
            oracle_lower_expectation(mass, lambda s: Fraction(0))

    def test_point_count_cap(self):
        wide = FocalElement.from_points(
            [(i, 0, 0) for i in range(ORACLE_MAX_POINTS + 1)])
        mass = MassFunction(((wide, Fraction(1)),))
        with pytest.raises(ValueError):
            oracle_upper_expectation(mass, lambda s: Fraction(0))


class TestEquilibriumOracle:
    @settings(deadline=None)
    @given(small_games())
    def test_matches_exhaustive_scan(self, game):
        state, configs, tie = game
        stable, witness = equilibrium_check(state, configs, tie)
        assert stable == oracle_equilibrium(state, configs, tie)
        assert stable == (witness is None)


class TestDominanceOracle:
    @settings(deadline=None)
    @given(preferences(),
           st.lists(partial_preferences(), min_size=1, max_size=3),
           st.integers(0, 2), st.integers(0, 2), tie_orders())
    def test_matches_extension_scan(self, pref, others, frm, to, tie):
        """Incomplete preferences: `dominating_manipulation` is strict
        exactly when the move never hurts and sometimes helps over every
        completion of the others' partial orders (Conitzer, Walsh & Xia,
        "Dominating manipulations in voting with partial information",
        AAAI 2011), checked against a scan of all linear extensions."""
        fast = dominating_manipulation(pref, others, frm, to, tie)
        assert fast == oracle_dominance(pref, others, frm, to, tie)

    def test_out_of_range_candidate_refused_by_both(self):
        # Candidate 5 (or -1) of three: the fast path used to return False
        # while the oracle raised KeyError.
        pref, tie = Preference((0, 1, 2)), TieBreakOrder.default(3)
        for pair in ((0, 5), (-1, 0)):
            others = [PartialPreference([pair])]
            for check in (dominating_manipulation, oracle_dominance):
                with pytest.raises(ValueError, match="outside 0..2"):
                    check(pref, others, 0, 1, tie)

    def test_completion_cap(self):
        empty = PartialPreference([])
        pref = Preference((0, 1, 2, 3))
        with pytest.raises(ValueError):
            oracle_dominance(pref, [empty] * 3, 0, 1, TieBreakOrder.default(4))
