import copy
import itertools
import math
import pickle
import pkgutil
import sys
from collections import Counter
from dataclasses import astuple, replace
from fractions import Fraction
from functools import lru_cache, partial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from credalvote import (
    CARDINAL_RANK,
    DIRECT_BEST_RESPONSE,
    DecisionRule,
    FocalElement,
    HURWICZ,
    L1_ADDREMOVE,
    LayeredBelief,
    METRICS,
    MEIR_SIGN,
    MIXTURE,
    MassFunction,
    MoveEvaluation,
    NESTED,
    NOT_PREFERRED,
    PESSIMISTIC,
    PARTITIONED,
    PIGNISTIC,
    PartialPreference,
    Preference,
    STRICTLY_PREFERRED,
    THEOREM1_NESTED,
    TieBreakOrder,
    UTILITY_MODELS,
    WEAKLY_PREFERRED,
    apply_move,
    campaign,
    dominating_manipulation,
    evaluate_move,
    family_setup,
    layered_to_mass,
    lower_expectation,
    neighborhood,
    pignistic,
    plurality_winner,
    possible_tops,
    product_mass,
    upper_expectation,
)
import credalvote
from credalvote import decision, dynamics
from credalvote.decision import (
    _CLIP, _classes, _move_pairs, _pair_counts, _record)
from credalvote.dynamics import _least_centre
from credalvote.oracles import oracle_evaluation, raw_move_utility
from credalvote.uncertainty import ExpansionCapError
from strategies import (
    decision_rules, mass_functions, preferences, scores, small_games,
    tie_orders)

HALF = Fraction(1, 2)
TIE3 = TieBreakOrder.default(3)

# Hesitating-voter belief: certain singleton plus a two-point focal element.
MIXED_MASS = MassFunction((
    (FocalElement.from_points([(1, 1, 1)]), HALF),
    (FocalElement.from_points([(1, 1, 1), (0, 2, 1)]), HALF),
))
# The second voter of that example: prefers b, then c, then a.
PREF_BCA = Preference((1, 2, 0))


KERNEL_TABLES = (_classes, _move_pairs, _pair_counts, _record)


def clear_tables():
    for table in KERNEL_TABLES:
        table.cache_clear()


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

    def test_float_alpha_refused(self):
        # The float 0.49 lies just below 49/100, which would tip this
        # Hurwicz value from 0 to a positive sliver and the verdict from
        # weak to strict.
        pair = FocalElement.from_points([(1, 1, 1), (0, 2, 1)])
        mass = MassFunction(((pair, Fraction(50, 51)),
                             (FocalElement.from_points([(0, 2, 1)]),
                              Fraction(1, 51))))
        out = evaluate_move(mass, DecisionRule(HURWICZ, alpha="49/100"),
                            MEIR_SIGN, PREF_BCA, 1, 2, TIE3)
        assert (out.criterion_value, out.verdict) == (0, WEAKLY_PREFERRED)
        for kind in (HURWICZ, MIXTURE):
            for alpha in (0.49, 1.0, True):
                with pytest.raises(ValueError, match="not exact"):
                    DecisionRule(kind, alpha=alpha)

    def test_exponent_and_zero_denominator_alphas_refused(self):
        for alpha in ("1e0", "5E-1"):
            with pytest.raises(ValueError, match="has an exponent"):
                DecisionRule(HURWICZ, alpha=alpha)
        with pytest.raises(ValueError, match="zero denominator"):
            DecisionRule(HURWICZ, alpha="1/0")

    def test_move_evaluation_ordering(self):
        with pytest.raises(ValueError, match="lower expectation exceeds"):
            MoveEvaluation(lower=Fraction(1), upper=Fraction(0),
                           pignistic_value=None, criterion_value=Fraction(0),
                           verdict=WEAKLY_PREFERRED)

    @given(mass_functions(), preferences(), st.integers(0, 2),
           st.integers(0, 2), tie_orders(), st.sampled_from(UTILITY_MODELS),
           decision_rules())
    def test_shared_record_equals_public_one(self, mass, pref, frm, to, tie,
                                             model, rule):
        # `evaluate_move` builds its record from integer parts, through the
        # table of shared records.
        out = evaluate_move(mass, rule, model, pref, frm, to, tie)
        public = MoveEvaluation(out.lower, out.upper, out.pignistic_value,
                                out.criterion_value, out.verdict)
        assert out == public and hash(out) == hash(public)
        assert repr(out) == repr(public)
        # The same values as parts over unreduced denominators.
        lower, upper, pig = public.lower, public.upper, public.pignistic_value
        den = 2 * math.lcm(lower.denominator, upper.denominator)
        value = public.criterion_value
        assert _record(
            public.verdict, int(lower * den), int(upper * den), den,
            None if pig is None else pig.numerator * den * 3,
            1 if pig is None else pig.denominator * 3, value.numerator * 5,
            value.denominator * 5) == public


_FIELDS = ("lower", "upper", "pignistic_value", "criterion_value")


def _fresh_records(game):
    """(evaluate_move thunk, oracle record) for every voter and destination
    of the game, under each of the four rules and three utility models."""
    state, configs, tie = game
    ballots = state.profile.ballots
    broadcast = tuple(ballots.count(c) for c in range(3))
    alpha = Fraction(1, 3)
    rules = (DecisionRule(PESSIMISTIC), DecisionRule(PIGNISTIC),
             DecisionRule(MIXTURE, alpha=alpha),
             DecisionRule(HURWICZ, alpha=alpha))
    for voter, config in enumerate(configs[:2]):
        frm, mass = ballots[voter], config.mass_at(broadcast)
        for rule, model in itertools.product(rules, UTILITY_MODELS):
            variant = replace(config, rule=rule, utility=model)
            for to in range(3):
                yield (partial(evaluate_move, mass, rule, model,
                               config.preference, frm, to, tie),
                       oracle_evaluation(mass, variant, frm, to, tie))


class TestSharedRecord:
    """`evaluate_move` returns one shared, checked record per distinct set of
    integer parts; it must behave as a record built by the public
    constructor in every dataclass and copy protocol."""

    @settings(max_examples=60, deadline=None)
    @given(small_games(), st.permutations(_FIELDS))
    def test_fields_match_eager_record_and_oracle(self, game, order):
        for fresh, oracle in _fresh_records(game):
            out = fresh()
            eager = {name: getattr(out, name) for name in order}
            eager["verdict"] = out.verdict
            public = MoveEvaluation(**eager)
            assert fresh() == public and public == fresh()
            for name in _FIELDS + ("verdict",):
                assert getattr(fresh(), name) == getattr(oracle, name), name

    @settings(max_examples=40, deadline=None)
    @given(small_games())
    def test_dataclass_and_copy_protocols(self, game):
        for fresh, oracle in _fresh_records(game):
            public = MoveEvaluation(*astuple(oracle))
            assert fresh() == public and hash(fresh()) == hash(public)
            assert repr(fresh()) == repr(public)
            assert astuple(fresh()) == astuple(public)
            assert replace(fresh()) == public
            assert replace(fresh(), verdict=NOT_PREFERRED) == replace(
                public, verdict=NOT_PREFERRED)
            assert copy.copy(fresh()) == public
            assert copy.deepcopy(fresh()) == public
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(fresh(), protocol)) == public

    def test_equal_parts_share_one_checked_record(self):
        rule = DecisionRule(MIXTURE, alpha=HALF)
        out = evaluate_move(MIXED_MASS, rule, MEIR_SIGN, PREF_BCA, 1, 2, TIE3)
        assert out.verdict == STRICTLY_PREFERRED
        values = {"criterion_value": Fraction(1, 4), "upper": Fraction(1),
                  "pignistic_value": HALF, "lower": Fraction(0)}
        for name, value in values.items():
            assert getattr(out, name) == value
            assert type(getattr(out, name)) is Fraction
        assert evaluate_move(MIXED_MASS, rule, MEIR_SIGN, PREF_BCA, 1, 2,
                             TIE3) is out
        # The table builds through the public constructor and its check.
        with pytest.raises(ValueError, match="^lower expectation exceeds "
                                             "upper expectation$"):
            _record(WEAKLY_PREFERRED, 1, 0, 1, None, 1, 0, 1)


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
        before = plurality_winner(s, tie)
        after = plurality_winner(apply_move(s, frm, to), tie)
        assert cardinal == pref.rank_of(before) - pref.rank_of(after)
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

    def test_sizes_that_disagree_are_refused(self):
        mass, rule = singleton_mass((1, 2, 0)), DecisionRule(PESSIMISTIC)
        tie4 = TieBreakOrder.default(4)
        # A 3-candidate mass under a 4-candidate tie order raised IndexError.
        with pytest.raises(ValueError, match="^score and tie-break order "
                                             "differ in candidates$"):
            evaluate_move(mass, rule, MEIR_SIGN, Preference((0, 1, 2, 3)), 1,
                          0, tie4)
        # A preference whose size is not the tie order's: on 3-candidate
        # scores a 4-candidate one gave not_preferred, and a 3-candidate one
        # under a 4-candidate order raised IndexError.
        for pref, tie in ((Preference((3, 2, 1, 0)), TIE3),
                          (PREF_BCA, tie4)):
            with pytest.raises(ValueError, match="^preference and tie-break "
                                                 "order differ in candidates$"):
                evaluate_move(mass, rule, MEIR_SIGN, pref, 1, 0, tie)

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
        pig = lower_expectation(pignistic(mass), u)

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
        """Probabilities: on a Bayesian mass the lower, upper and pignistic
        expectations are one expected utility, so every rule gives the same
        value and verdict (the abstract's "includes in one sweep"; Denoeux,
        "Decision-making with belief functions: a review", IJAR 2019)."""
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
    """Improving minus worsening states over one ball: the pignistic value
    of the sign utility times the ball's point count."""

    TIE4 = TieBreakOrder.default(4)
    PREF_DBAC = Preference((3, 1, 0, 2))
    PREF_CABD = Preference((2, 0, 1, 3))

    def test_net_counts_along_a_contested_run(self):
        cases = [
            ((2, 2, 3, 3), self.PREF_DBAC, 3, 0, 0),
            ((3, 2, 3, 2), self.PREF_CABD, 2, 0, -2),
            ((4, 2, 2, 2), self.PREF_DBAC, 0, 3, 2),
            ((3, 2, 2, 3), self.PREF_CABD, 0, 2, 3),
        ]
        for center, pref, frm, to, expected in cases:
            ball = neighborhood(center, L1_ADDREMOVE, 1)
            mass = MassFunction(((ball, Fraction(1)),))
            out = evaluate_move(mass, DecisionRule(PIGNISTIC), MEIR_SIGN,
                                pref, frm, to, self.TIE4)
            assert out.pignistic_value * len(ball.points) == expected, \
                (center, frm, to)
            # the oracle sums raw winner comparisons, bypassing _pair_counts
            oracle = sum(raw_move_utility(MEIR_SIGN, pref, frm, to, s,
                                          self.TIE4)
                         for s in ball.points)
            assert oracle == expected, (center, frm, to)


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

        ball = neighborhood((1, 1, 0), L1_ADDREMOVE, 1)
        copy = FocalElement.from_points(ball.points)
        assert self.evaluate(ball) == self.evaluate(copy)

        # A caller-supplied label once keyed the cache, so {(3, 0, 0)} under
        # the label of an earlier {(1, 1, 0)} reused its counts and read
        # strictly preferred. Focal elements take no label now.
        with pytest.raises(TypeError):
            for points, verdict in (([(1, 1, 0)], STRICTLY_PREFERRED),
                                    ([(3, 0, 0)], WEAKLY_PREFERRED)):
                labelled = FocalElement.from_points(points, tag="t")
                assert self.evaluate(labelled).verdict == verdict

    def test_tables_stay_within_their_bound(self, monkeypatch):
        def short_campaign(tables):
            for table in tables:
                table.cache_clear()
            return campaign(
                lambda seed: family_setup(seed, THEOREM1_NESTED, 5, 4), 6)

        unbounded = short_campaign(KERNEL_TABLES)
        assert min(t.cache_info().currsize for t in KERNEL_TABLES) > 10
        # Each table again with room for 10 entries, in every module that
        # imports it, gives the same campaign.
        tiny = [lru_cache(maxsize=10)(t.__wrapped__) for t in KERNEL_TABLES]
        for table, small in zip(KERNEL_TABLES, tiny):
            for info in pkgutil.iter_modules(credalvote.__path__):
                module = sys.modules.get(f"credalvote.{info.name}")
                if getattr(module, table.__name__, None) is table:
                    monkeypatch.setattr(module, table.__name__, small)
        assert decision._pair_counts is tiny[2]
        assert dynamics._pair_counts is tiny[2]
        assert short_campaign(tiny) == unbounded
        assert max(t.cache_info().currsize for t in tiny) <= 10

    def test_out_of_range_moves_raise(self):
        # A destination missing from the table of live ones changes no
        # winner, unless it is no candidate at all: cold and warm tables
        # refuse such moves alike. The tables take True and 1.0 for 1, so a
        # frm of 1.0 once raised a bare TypeError on cold tables and ran on
        # warm ones, and a `to` of 2.0 or True was read as 2 or 1.
        mass = MassFunction(((neighborhood((2, 1, 0), L1_ADDREMOVE, 1),
                              Fraction(1)),))
        rule = DecisionRule(PIGNISTIC)
        bad = [(frm, to) for frm, to in itertools.product(
                   (0, -1, 3, 1.0, 2.0, True), repeat=2) if (frm, to) != (0, 0)]
        for frm, to in bad:
            clear_tables()
            with pytest.raises(ValueError,
                               match="^candidate index out of range$"):
                evaluate_move(mass, rule, MEIR_SIGN, self.PREF_BAC, frm, to,
                              TIE3)
        for frm, to in itertools.product(range(3), repeat=2):
            evaluate_move(mass, rule, MEIR_SIGN, self.PREF_BAC, frm, to, TIE3)
        for frm, to in bad:
            with pytest.raises(ValueError,
                               match="^candidate index out of range$"):
                evaluate_move(mass, rule, MEIR_SIGN, self.PREF_BAC, frm, to,
                              TIE3)


@st.composite
def focal_elements_and_ties(draw):
    """A focal element over 3 to 6 candidates, with zeros, ties at the top
    and at times the all-zero point, and a tie order."""
    m = draw(st.integers(3, 6))
    points = draw(st.lists(scores(m, max_votes=4), min_size=1, max_size=12))
    for s in draw(st.lists(scores(m, max_votes=4), max_size=3)):
        # Raise a second entry to the top.
        i, j = draw(st.permutations(range(m)))[:2]
        s = list(s)
        s[j] = s[i] = max(s)
        points.append(tuple(s))
    if draw(st.booleans()):
        points.append((0,) * m)
    return FocalElement.from_points(points), draw(tie_orders(m))


def live_counts(focal, frm, tie):
    """Per destination of a move from `frm`, `frm` included, the per-point
    Counter of (winner before, winner after) pairs, kept only where some
    point changes its winner."""
    live = {}
    for to in range(len(tie.order)):
        fresh = Counter((plurality_winner(s, tie),
                         plurality_winner(apply_move(s, frm, to), tie))
                        for s in focal.points)
        if any(before != after for before, after in fresh):
            live[to] = fresh
    return live


class TestGapClasses:
    """Pair counts taken once per class of points with equal gaps to the
    top, clipped at 3, equal the counts taken point by point, and are kept
    for exactly the destinations to which some point changes its winner."""

    @given(focal_elements_and_ties())
    @settings(max_examples=300)
    # Clipped at 2, (2, 0, 0) and (3, 0, 0) would share a class, yet the
    # move 0 -> 1 lets candidate 1 tie and win only from (2, 0, 0).
    @example((FocalElement.from_points([(0, 0, 0), (2, 0, 0), (3, 0, 0)]),
              TieBreakOrder((1, 0, 2))))
    def test_classes_count_as_the_points(self, game):
        focal, tie = game
        clear_tables()  # so that a failure replays on its own
        for frm in range(len(tie.order)):
            assert _pair_counts(focal, frm, tie.order) == live_counts(
                focal, frm, tie), frm

    @given(focal_elements_and_ties(), st.data())
    @settings(max_examples=150)
    def test_focal_stats_are_the_points_own(self, game, data):
        # (min, max, sum, count) of the utility over the points for every
        # move, those that change no winner included: their count is still
        # the point count.
        focal, tie = game
        m = len(tie.order)
        pref = data.draw(preferences(m))
        for model, frm, to in itertools.product(UTILITY_MODELS, range(m),
                                                range(m)):
            values = [raw_move_utility(model, pref, frm, to, s, tie)
                      for s in focal.points]
            assert decision._focal_stats(focal, model, pref._rank, frm, to,
                                         tie) == (min(values), max(values),
                                                  sum(values), len(values)), (
                model, frm, to)

    @pytest.mark.parametrize("order", itertools.permutations(range(3)))
    def test_shared_pairs_are_the_points_own(self, order):
        # Every point with entries 0-6 at m = 3, for every (frm, to), frm ==
        # to included, under this tie order and its reverse in turn over the
        # same focal elements, which the tables hold side by side: the row
        # of each move and class of gaps, filled by the pair counts, holds
        # every point's own pair, and a point's counts are live exactly
        # where its winner changes.
        ties = (TieBreakOrder(order), TieBreakOrder(order[::-1]))
        points = list(itertools.product(range(7), repeat=3))
        clear_tables()
        focals = [FocalElement.from_points([s]) for s in points]
        for focal, frm, tie in itertools.product(focals, range(3), ties):
            _pair_counts(focal, frm, tie.order)
        filled = _move_pairs.cache_info().misses
        for s, frm, to, tie in itertools.product(points, range(3), range(3),
                                                 ties):
            top = max(s)
            gaps = tuple(min(top - x, _CLIP) for x in s)
            pair = (plurality_winner(s, tie),
                    plurality_winner(apply_move(s, frm, to), tie))
            assert _move_pairs(tie.order, frm, gaps)[to] == pair, (
                s, frm, to, tie)
            live = _pair_counts(FocalElement.from_points([s]), frm,
                                tie.order)
            assert live.get(to) == (
                None if pair[0] == pair[1] else {pair: 1}), (s, frm, to, tie)
        assert _move_pairs.cache_info().misses == filled

    @given(focal_elements_and_ties(), st.data())
    @settings(max_examples=200)
    def test_focal_elements_share_pairs(self, game, data):
        # A second focal element shares a class of gaps with the first
        # (its first point, shifted up), and reads its pairs from the table
        # the first one filled.
        first, tie = game
        m = len(tie.order)
        shift = data.draw(st.integers(0, 3))
        seed = next(iter(first.points))
        extra = data.draw(st.lists(scores(m, max_votes=6), max_size=6))
        second = FocalElement.from_points(
            [tuple(x + shift for x in seed)] + extra)
        assume(second != first)
        clear_tables()
        assert ({gaps for gaps, _ in _classes(first)}
                & {gaps for gaps, _ in _classes(second)})
        for frm in range(m):
            for focal in (first, second):
                assert _pair_counts(focal, frm, tie.order) == live_counts(
                    focal, frm, tie), (focal, frm)


@st.composite
def signature_twins(draw):
    """A layered belief, a tie order and three centres.

    With R the largest radius, the second centre has the first one's
    signature (gaps to the top clipped at 2R+3, entries at R+1): it shifts
    the entries near the top by k, which keeps their gaps and, when each of
    them exceeds R, their clipped entries, and redraws each entry 2R+3 or
    more below the top anywhere from R+1 up to 2R+3 below the new top,
    leaving it alone when it is R or less. The third centre pulls one such
    entry up to 2R+2 below the top, one inside the clip, so its signature
    differs from the first one's only there.
    """
    m = draw(st.integers(3, 6))
    metric = draw(st.sampled_from(METRICS))
    radii = tuple(sorted(draw(st.sets(
        st.integers(0, 3 if metric == L1_ADDREMOVE else 2),
        min_size=1, max_size=2))))
    belief = LayeredBelief(draw(st.sampled_from((NESTED, PARTITIONED))), radii,
                           (Fraction(1, len(radii)),) * len(radii), metric)
    r = radii[-1]
    clip = 2 * r + 3
    center = tuple(draw(st.lists(st.integers(0, 3 * r + 8), min_size=m,
                                 max_size=m)))
    top = max(center)
    near = [c for c in center if top - c < clip]
    shift = draw(st.integers(0, 4)) if min(near) > r else 0
    twin = tuple(
        c + shift if top - c < clip
        else c if c <= r
        else draw(st.integers(r + 1, top + shift - clip))
        for c in center)
    far = [i for i, c in enumerate(center) if top - c >= clip]
    centers = [center, twin]
    if far:
        inside = list(center)
        inside[far[0]] = top - clip + 1
        centers.append(tuple(inside))
    return belief, centers, draw(tie_orders(m))


def layered_or_reject(belief, center):
    try:
        return layered_to_mass(belief, center)
    except ValueError:  # an empty voter_swap ring
        assume(False)


def signature(center, radius):
    """Gaps to the top clipped at 2R+3, entries clipped at R+1."""
    top = max(center)
    return tuple((min(top - c, 2 * radius + 3), min(c, radius + 1))
                 for c in center)


@st.composite
def recentred_games(draw):
    """A layered belief, a centre near the clips, a tie order, a preference.

    Gaps to the top run two past the gap clip, with extra weight on each
    side of it, and the top starts at 0, so candidates sit on both sides of
    each clip.
    """
    m = draw(st.integers(3, 6))
    metric = draw(st.sampled_from(METRICS))
    radii = tuple(sorted(draw(st.sets(
        st.integers(0, 3 if metric == L1_ADDREMOVE else 2),
        min_size=1, max_size=2))))
    parts = [draw(st.integers(1, 4)) for _ in radii]
    belief = LayeredBelief(draw(st.sampled_from((NESTED, PARTITIONED))), radii,
                           tuple(Fraction(p, sum(parts)) for p in parts),
                           metric)
    r = radii[-1]
    top = draw(st.integers(0, 3 * r + 8))
    gaps = draw(st.lists(st.integers(0, 2 * r + 5)
                         | st.sampled_from((2 * r + 2, 2 * r + 3)),
                         min_size=m, max_size=m))
    gaps[draw(st.integers(0, m - 1))] = 0
    center = tuple(max(top - g, 0) for g in gaps)
    return belief, center, draw(tie_orders(m)), draw(preferences(m))


class TestSignatureKeys:
    """Broadcasts of one clipped gap signature share a least centre, whose
    layered mass evaluates every move as the broadcast's own does."""

    @given(signature_twins())
    @settings(max_examples=150)
    def test_centres_with_one_signature_share_counts(self, twins):
        belief, centers, tie = twins
        r = belief.radii[-1]
        least = [_least_centre(c, r) for c in centers]
        assert least[0] == least[1]
        # The third centre's signature differs, and the least centre keeps it.
        assert all(low != least[0] for low in least[2:])
        for center, low in zip(centers, least):
            assert signature(low, r) == signature(center, r)
            assert all(a <= b for a, b in zip(low, center))
            assert _least_centre(low, r) == low
        clear_tables()  # so that a failure replays on its own
        m = len(centers[0])
        for center, frm in itertools.product(centers, range(m)):
            counts = []
            for mass in (layered_or_reject(belief, center),
                         layered_or_reject(belief, _least_centre(center, r))):
                for focal, _ in mass.assignments:
                    assert _pair_counts(focal, frm, tie.order) == \
                        live_counts(focal, frm, tie)
                counts.append([_pair_counts(focal, frm, tie.order)
                               for focal, _ in mass.assignments])
            assert counts[0] == counts[1], (center, frm)

    @given(recentred_games(), st.fractions(0, 1, max_denominator=4))
    @settings(max_examples=120)
    def test_least_centre_evaluates_every_move_as_the_broadcast(self, game,
                                                                alpha):
        belief, center, tie, pref = game
        low = _least_centre(center, belief.radii[-1])
        masses = (layered_or_reject(belief, center),
                  layered_or_reject(belief, low))
        rules = [DecisionRule(PESSIMISTIC), DecisionRule(PIGNISTIC),
                 DecisionRule(MIXTURE, alpha), DecisionRule(HURWICZ, alpha)]
        m = len(center)
        for frm, to, rule, model in itertools.product(
                range(m), range(m), rules, UTILITY_MODELS):
            at_center, at_least = (
                evaluate_move(mass, rule, model, pref, frm, to, tie)
                for mass in masses)
            assert at_center == at_least, (center, low, frm, to, rule, model)

    @given(st.integers(3, 5).flatmap(lambda m: st.tuples(
               st.lists(st.integers(0, 6), min_size=m, max_size=m),
               tie_orders(m), preferences(m), st.integers(0, m - 1),
               st.integers(0, m - 1))),
           st.sampled_from(METRICS), st.sampled_from((NESTED, PARTITIONED)),
           st.sampled_from(UTILITY_MODELS))
    def test_trusted_focals_match_checked_ones(self, game, metric, kind,
                                               model):
        center, tie, pref, frm, to = game
        radii = (1, 2) if metric == L1_ADDREMOVE else (0, 1)
        belief = LayeredBelief(kind, radii, (HALF, HALF), metric)
        focals = [neighborhood(center, metric, r)
                  for r in radii]
        focals += [focal for focal, _ in
                   layered_or_reject(belief, center).assignments]
        for focal in focals:
            checked = FocalElement.from_points(focal.points)
            assert focal == checked and checked == focal
            assert hash(focal) == hash(checked)
            rule = DecisionRule(MIXTURE, alpha=Fraction(1, 3))
            assert (evaluate_move(MassFunction(((focal, Fraction(1)),)), rule,
                                  model, pref, frm, to, tie)
                    == evaluate_move(MassFunction(((checked, Fraction(1)),)),
                                     rule, model, pref, frm, to, tie))


def completion_mass(frm, others, m):
    """The product mass `dominating_manipulation` evaluates."""
    return product_mass([[((frm,), 1)]]
                        + [[(possible_tops(p, m), 1)] for p in others], m)


class TestCompletionScores:
    """The completions' scores are the one focal element of a product mass."""

    def test_mixed_certainty(self):
        committed = PartialPreference([(2, 0), (2, 1), (0, 1)])
        leaning = PartialPreference([(0, 2)])
        mass = completion_mass(1, [committed, leaning], 3)
        assert mass.assignments == ((FocalElement.from_points(
            [(0, 2, 1), (1, 1, 1)]), Fraction(1)),)

    def test_no_others(self):
        assert completion_mass(0, [], 3).assignments == (
            (FocalElement.from_points([(1, 0, 0)]), Fraction(1)),)

    def test_cap(self):
        # 3**11 completions of eleven undecided others.
        empty = PartialPreference([])
        with pytest.raises(ExpansionCapError,
                           match="score enumeration exceeds cap 100000"):
            dominating_manipulation(Preference((1, 0, 2)), [empty] * 11, 0,
                                    1, TIE3)


class TestDominatingManipulation:
    def test_undecided_other(self):
        pref = Preference((1, 0, 2))
        undecided = PartialPreference([])
        assert dominating_manipulation(pref, [undecided], 2, 1, TIE3)
        assert not dominating_manipulation(pref, [undecided], 2, 0, TIE3)

    def test_single_completion_flip(self):
        pref = Preference((2, 0, 1))
        committed = PartialPreference([(2, 0), (2, 1), (0, 1)])
        assert dominating_manipulation(pref, [committed], 0, 2, TIE3)

    def test_non_pivotal(self):
        pref = Preference((1, 0, 2))
        landslide = PartialPreference([(0, 1), (0, 2), (1, 2)])
        assert not dominating_manipulation(
            pref, [landslide] * 4, 2, 1, TIE3)
