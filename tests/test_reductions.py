"""Reductions: the belief-function model includes, as special cases, the
models the abstract names, each checked against a brute force of the cited
definition.

Two more reductions are checked where their operators are tested:
Bayesian beliefs collapse every rule to expected utility
(`test_decision.py::TestEvaluateMove::test_bayesian_beliefs_collapse_the_rules`),
and dominating manipulation agrees with a scan of every completion of the
others' partial orders (`test_oracles.py::TestDominanceOracle` and
acceptance criterion 9).
"""
import itertools
import math
from fractions import Fraction

from hypothesis import given, strategies as st

from credalvote import (
    MEIR_SIGN,
    PESSIMISTIC,
    STRICTLY_PREFERRED,
    DecisionRule,
    FocalElement,
    MassFunction,
    Preference,
    TieBreakOrder,
    evaluate_move,
    multinomial_distribution,
    plurality_winner,
)


def _plus_one(state, c):
    return tuple(x + (i == c) for i, x in enumerate(state))


def locally_dominates(pref, states, frm, to, tie):
    """Local dominance (Meir, Lev & Rosenschein, "A local-dominance theory
    of voting equilibria", EC 2014): over every state of the others' votes,
    voting `to` yields a winner at least as good as voting `frm`, and a
    better one in some state."""
    pairs = [(plurality_winner(_plus_one(s, to), tie),
              plurality_winner(_plus_one(s, frm), tie)) for s in states]
    return (all(pref.rank_of(a) <= pref.rank_of(b) for a, b in pairs)
            and any(pref.rank_of(a) < pref.rank_of(b) for a, b in pairs))


@st.composite
def single_focal_moves(draw):
    m = draw(st.integers(3, 4))
    frm, to = draw(st.permutations(range(m)))[:2]
    points = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m), min_size=1,
                           max_size=6, unique=True))
    # Every point counts the mover's own vote for `frm`.
    points = [_plus_one(p, frm) for p in points]
    pref = Preference(tuple(draw(st.permutations(range(m)))))
    tie = TieBreakOrder(tuple(draw(st.permutations(range(m)))))
    return FocalElement.from_points(points), pref, frm, to, tie


@given(single_focal_moves())
def test_pessimistic_sign_rule_is_local_dominance(move):
    """One focal set, the pessimistic rule and the sign utility: the move is
    strict exactly when it locally dominates over S = {s - e_frm}.

    Each score s counts the mover's own vote, so removing it gives the
    others' state. `apply_move` clamps at 0, so the equivalence needs
    s[frm] >= 1 at every point, which the strategy ensures.
    """
    focal, pref, frm, to, tie = move
    out = evaluate_move(MassFunction(((focal, Fraction(1)),)),
                        DecisionRule(PESSIMISTIC), MEIR_SIGN, pref, frm, to,
                        tie)
    others = [tuple(x - (i == frm) for i, x in enumerate(s))
              for s in focal.points]
    assert (out.verdict == STRICTLY_PREFERRED) == locally_dominates(
        pref, others, frm, to, tie)


@st.composite
def ballot_distributions(draw):
    m = draw(st.integers(2, 4))
    parts = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)
                 .filter(any))
    return [Fraction(p, sum(parts)) for p in parts], draw(st.integers(1, 4))


@given(ballot_distributions())
def test_multinomial_is_independent_ballots(q_n):
    """Probabilities: `multinomial_distribution(q, n)` is the Bayesian mass
    of n independent ballots drawn from q. Brute force: each of the m**n
    ballot vectors has probability prod(q[b]), and is tallied."""
    q, n = q_n
    m = len(q)
    brute: dict[tuple[int, ...], Fraction] = {}
    for ballots in itertools.product(range(m), repeat=n):
        score = tuple(ballots.count(c) for c in range(m))
        brute[score] = brute.get(score, Fraction(0)) + math.prod(
            (q[b] for b in ballots), start=Fraction(1))
    dist = multinomial_distribution(q, n)
    assert all(len(focal.points) == 1 for focal, _ in dist.assignments)
    assert {focal.points[0]: w for focal, w in dist.assignments} == {
        s: p for s, p in brute.items() if p > 0}
