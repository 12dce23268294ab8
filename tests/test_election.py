from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from credalvote import (
    BallotProfile,
    CandidateSet,
    PartialPreference,
    Preference,
    TieBreakOrder,
    apply_move,
    linear_extensions,
    plurality_winner,
    possible_tops,
    rank_utility,
    tally,
    validate_score,
)
from strategies import partial_preferences, preferences, scores, tie_orders

ABC = CandidateSet(("a", "b", "c"))
ABCD = CandidateSet(("a", "b", "c", "d"))


def test_candidate_set_needs_more_than_two():
    with pytest.raises(ValueError):
        CandidateSet(("a", "b"))
    with pytest.raises(ValueError):
        CandidateSet(("a", "b", "a"))
    assert ABC.m == 3
    assert ABC.index("c") == 2


def test_tie_break_validation():
    with pytest.raises(ValueError):
        TieBreakOrder((0, 1, 1))
    assert TieBreakOrder.default(3).order == (0, 1, 2)


def test_preference_validation():
    with pytest.raises(ValueError):
        Preference((0, 2))
    pref = Preference((2, 0, 1))
    assert pref.top == 2
    assert pref.rank_of(1) == 2
    assert pref.prefers(2, 0) and not pref.prefers(0, 2)


def test_partial_preference_rejects_cycles():
    with pytest.raises(ValueError):
        PartialPreference.from_pairs([(0, 1), (1, 2), (2, 0)])
    partial = PartialPreference.from_pairs([(0, 1), (1, 2)])
    assert partial.requires(0, 2)


def test_validate_score():
    with pytest.raises(ValueError):
        validate_score((1, -1))
    with pytest.raises(ValueError):
        validate_score((1, 2), m=3)
    assert validate_score((0, 3, 2)) == (0, 3, 2)


def test_scores_from_profile():
    profile = BallotProfile((0, 2, 2, 3, 0, 3, 2, 3, 1, 1))
    assert tally(profile.ballots, ABCD.m) == (2, 2, 3, 3)
    with pytest.raises(ValueError):
        tally(BallotProfile((3,)).ballots, ABC.m)


def test_winner_examples():
    tie = TieBreakOrder.default(4)
    assert plurality_winner((2, 2, 3, 3), tie) == 2
    assert plurality_winner((1, 1, 1), TieBreakOrder.default(3)) == 0
    assert plurality_winner((1, 1, 1), TieBreakOrder((1, 2, 0))) == 1


@given(scores(m=4, max_votes=5), tie_orders(m=4))
def test_winner_is_argmax(s, tie):
    w = plurality_winner(s, tie)
    assert s[w] == max(s)
    earlier = tie.order[:tie.order.index(w)]
    assert all(s[c] < max(s) for c in earlier)


@given(scores(m=3, max_votes=5), tie_orders(m=3), st.integers(1, 4))
def test_winner_shift_invariance(s, tie, k):
    shifted = tuple(x + k for x in s)
    assert plurality_winner(s, tie) == plurality_winner(shifted, tie)


@given(scores(m=4, max_votes=4), st.integers(0, 3), st.integers(0, 3))
def test_apply_move_totals(s, frm, to):
    moved = apply_move(s, frm, to)
    assert all(x >= 0 for x in moved)
    if frm == to:
        assert moved == s
    elif s[frm] > 0:
        assert sum(moved) == sum(s)
        assert moved[frm] == s[frm] - 1 and moved[to] == s[to] + 1
    else:
        assert sum(moved) == sum(s) + 1


def test_rank_utility_examples():
    assert rank_utility(Preference((0, 1, 2))) == {0: 2, 1: 1, 2: 0}
    assert rank_utility(Preference((2, 0, 1))) == {2: 2, 0: 1, 1: 0}


@given(preferences(m=4))
def test_rank_utility_preserves_order(pref):
    u = rank_utility(pref)
    assert max(u, key=u.get) == pref.top
    for x in range(4):
        for y in range(4):
            if x != y:
                assert pref.prefers(x, y) == (u[x] > u[y])
    assert sorted(u.values()) == [Fraction(k) for k in range(4)]


def test_linear_extensions_examples():
    partial = PartialPreference.from_pairs([(0, 2)])
    exts = linear_extensions(partial, ABC)
    assert {p.ranking for p in exts} == {(0, 2, 1), (1, 0, 2), (0, 1, 2)}
    empty = PartialPreference.from_pairs([])
    assert len(linear_extensions(empty, ABC)) == 6
    full = PartialPreference.from_pairs([(2, 0), (0, 1)])
    assert {p.ranking for p in linear_extensions(full, ABC)} == {(2, 0, 1)}


def test_possible_tops_examples():
    assert possible_tops(PartialPreference.from_pairs([(0, 2)]), 3) == {0, 1}
    assert possible_tops(PartialPreference.from_pairs([]), 3) == {0, 1, 2}
    assert possible_tops(
        PartialPreference.from_pairs([(2, 0), (0, 1)]), 3) == {2}


@given(partial_preferences(m=3))
def test_possible_tops_match_extensions(partial):
    exts = linear_extensions(partial, ABC)
    assert possible_tops(partial, 3) == {p.top for p in exts}


@given(partial_preferences(m=3))
def test_extensions_respect_required_pairs(partial):
    for p in linear_extensions(partial, ABC):
        for x, y in partial.pairs:
            assert p.prefers(x, y)
