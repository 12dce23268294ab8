"""Shared hypothesis strategies for exact-arithmetic voting tests."""
from fractions import Fraction

from hypothesis import assume, strategies as st

from credalvote import (
    BallotProfile,
    DecisionRule,
    FocalElement,
    GameState,
    HURWICZ,
    LayeredBelief,
    MIXTURE,
    MassFunction,
    NESTED,
    PartialPreference,
    Preference,
    RULE_KINDS,
    TieBreakOrder,
    UTILITY_MODELS,
    VoterConfig,
)


def scores(m: int = 3, max_votes: int = 4):
    return st.tuples(*[st.integers(0, max_votes)] * m)


def preferences(m: int = 3):
    return st.permutations(list(range(m))).map(lambda p: Preference(tuple(p)))


def tie_orders(m: int = 3):
    return st.permutations(list(range(m))).map(lambda p: TieBreakOrder(tuple(p)))


@st.composite
def mass_functions(draw, m: int = 3, max_focals: int = 4, max_points: int = 4,
                   max_votes: int = 3, singletons_only: bool = False):
    count = draw(st.integers(1, max_focals))
    top = 1 if singletons_only else max_points
    focals = []
    seen = set()
    for _ in range(count):
        pts = draw(st.lists(scores(m, max_votes), min_size=1, max_size=top,
                            unique=True))
        key = tuple(sorted(set(pts)))
        if key in seen:
            continue
        seen.add(key)
        focals.append(FocalElement.from_points(key))
    parts = [draw(st.integers(1, 8)) for _ in focals]
    total = sum(parts)
    return MassFunction(tuple((f, Fraction(p, total))
                              for f, p in zip(focals, parts)))


@st.composite
def mass_and_utility(draw, **kwargs):
    mass = draw(mass_functions(**kwargs))
    u = {s: Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
         for s in mass.support()}
    return mass, u


@st.composite
def partial_preferences(draw, m: int = 3):
    candidates = [(x, y) for x in range(m) for y in range(m) if x != y]
    pairs = draw(st.lists(st.sampled_from(candidates), max_size=m + 1,
                          unique=True))
    try:
        return PartialPreference.from_pairs(pairs)
    except ValueError:
        assume(False)


@st.composite
def small_games(draw, max_voters: int = 3):
    """(GameState, configs, tie) for a random 3-candidate game.

    Beliefs mix a re-centered radius-1 layered belief with fixed mass functions."""
    n = draw(st.integers(2, max_voters))
    ballots = tuple(draw(st.integers(0, 2)) for _ in range(n))
    configs = []
    for _ in range(n):
        kind = draw(st.sampled_from(RULE_KINDS))
        if kind in (MIXTURE, HURWICZ):
            rule = DecisionRule(kind, alpha=draw(
                st.fractions(min_value=0, max_value=1, max_denominator=4)))
        else:
            rule = DecisionRule(kind)
        belief = draw(st.one_of(
            st.just(LayeredBelief(kind=NESTED, radii=(1,),
                                  weights=(Fraction(1),))),
            mass_functions(max_votes=2)))
        configs.append(VoterConfig(preference=draw(preferences()),
                                   belief=belief, rule=rule,
                                   utility=draw(st.sampled_from(UTILITY_MODELS))))
    state = GameState(profile=BallotProfile(ballots))
    return state, tuple(configs), draw(tie_orders())
