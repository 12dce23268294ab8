import itertools

import pytest
from hypothesis import given, strategies as st

from credalvote import (
    BallotProfile,
    CandidateSet,
    FocalElement,
    PartialPreference,
    Preference,
    TieBreakOrder,
    apply_move,
    linear_extensions,
    plurality_winner,
    possible_tops,
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
    assert ABC.labels.index("c") == 2


def test_tie_break_validation():
    with pytest.raises(ValueError):
        TieBreakOrder((0, 1, 1))
    # Equal to a permutation, but not of integers.
    for order in ((0.0, 1, 2), (True, False, 2)):
        with pytest.raises(ValueError, match="permutation"):
            TieBreakOrder(order)
    assert TieBreakOrder.default(3).order == (0, 1, 2)


def test_list_fields_are_stored_as_tuples():
    tie = TieBreakOrder([2, 0, 1])
    profile = BallotProfile([1, 1, 2])
    assert tie.order == (2, 0, 1) and type(tie.order) is tuple
    assert profile.ballots == (1, 1, 2) and type(profile.ballots) is tuple
    assert hash(tie) == hash(TieBreakOrder((2, 0, 1)))
    assert hash(profile) == hash(BallotProfile((1, 1, 2)))


def test_preference_validation():
    with pytest.raises(ValueError):
        Preference((0, 2))
    for ranking in ((1.0, 0, 2), (True, False, 2), ("a", 0, 2)):
        with pytest.raises(ValueError, match="permutation"):
            Preference(ranking)
    pref = Preference((2, 0, 1))
    assert pref.top == 2
    assert pref.rank_of(1) == 2
    assert pref.rank_of(2) < pref.rank_of(0)


@given(st.integers(3, 6).flatmap(preferences))
def test_rank_positions_invert_the_ranking(pref):
    assert [pref.ranking[r] for r in pref._rank] == list(range(len(pref._rank)))
    assert all(pref.rank_of(c) == i for i, c in enumerate(pref.ranking))
    # The positions are no field: equality, hashing and repr ignore them.
    twin = Preference(pref.ranking)
    object.__setattr__(twin, "_rank", ())
    assert twin == pref and hash(twin) == hash(pref)
    assert repr(pref) == f"Preference(ranking={pref.ranking!r})"


def test_rank_of_refuses_a_non_candidate():
    # True once read candidate 1's rank, and 1.0 raised a bare TypeError.
    pref = Preference((2, 0, 1))
    for candidate in (-1, 3, True, 1.0):
        with pytest.raises(ValueError, match="not a candidate index"):
            pref.rank_of(candidate)


def test_partial_preference_rejects_cycles():
    with pytest.raises(ValueError):
        PartialPreference([(0, 1), (1, 2), (2, 0)])
    partial = PartialPreference([(0, 1), (1, 2)])
    extensions = linear_extensions(partial, 3)
    assert extensions
    assert all(p.rank_of(0) < p.rank_of(2) for p in extensions)


def test_cycle_check_matches_brute_force():
    # Every relation on four candidates, self-pairs included: it is refused
    # exactly when no order of the four puts each pair's first before its
    # second.
    pairs = list(itertools.product(range(4), repeat=2))
    orders = [{c: i for i, c in enumerate(perm)}
              for perm in itertools.permutations(range(4))]
    respects = [sum(1 << k for k, (x, y) in enumerate(pairs) if pos[x] < pos[y])
                for pos in orders]
    refused = 0
    for relation in range(1 << len(pairs)):
        ordered = any(relation & ~mask == 0 for mask in respects)
        chosen = [pair for k, pair in enumerate(pairs) if relation >> k & 1]
        try:
            PartialPreference(chosen)
        except ValueError as e:
            assert str(e) == "partial preference contains a cycle"
            assert not ordered, chosen
            refused += 1
        else:
            assert ordered, chosen
    # The orderable relations are the 543 labelled acyclic digraphs on four
    # nodes.
    assert refused == (1 << len(pairs)) - 543


def test_partial_preference_refuses_non_integers():
    # int() would read (0.9, 1.7) as the pair (0, 1).
    for pairs in ([(0.9, 1.7)], [(True, 2)], [("a", "b")]):
        with pytest.raises(ValueError, match="must be integers"):
            PartialPreference(pairs)


def test_validate_score():
    with pytest.raises(ValueError):
        validate_score((1, -1))
    # True is an int to isinstance; a focal element keeping it would be
    # written to a scenario as `true`, which the parser refuses.
    for bad in ((True, 0, 1), (1.0, 2), ("1",)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            validate_score(bad)
    with pytest.raises(ValueError, match="nonnegative integers"):
        FocalElement.from_points([(True, 0, 1), (0, 2, 1)])
    # An empty score has no candidate, so no winner.
    with pytest.raises(ValueError, match="^score needs at least one entry$"):
        validate_score(())
    assert validate_score((0, 3, 2)) == (0, 3, 2)


def test_scores_from_profile():
    profile = BallotProfile((0, 2, 2, 3, 0, 3, 2, 3, 1, 1))
    assert tally(profile.ballots, ABCD.m) == (2, 2, 3, 3)
    # A negative ballot would index the last candidate.
    for ballots, bad in (((3,), 3), ((0, 1, -1), -1)):
        with pytest.raises(ValueError, match=f"ballot index {bad} out of range"):
            tally(ballots, ABC.m)
    # A ballot is an int: 1.5 indexed nothing and True counted for 1.
    for bad in (1.5, True):
        with pytest.raises(ValueError, match=f"^ballot index {bad} out of range$"):
            tally([bad], ABC.m)


def test_negative_ballots_rejected():
    with pytest.raises(ValueError):
        BallotProfile((-1,))


def test_ballots_must_be_integers():
    # 0.5 used to pass and fail later inside tally; True was candidate 1.
    for ballots in ((0.5, 1), (True, 1), ("a",)):
        with pytest.raises(ValueError, match="candidate indices"):
            BallotProfile(ballots)


def test_winner_examples():
    tie = TieBreakOrder.default(4)
    assert plurality_winner((2, 2, 3, 3), tie) == 2
    assert plurality_winner((1, 1, 1), TieBreakOrder.default(3)) == 0
    assert plurality_winner((1, 1, 1), TieBreakOrder((1, 2, 0))) == 1
    with pytest.raises(ValueError, match="^empty score vector$"):
        plurality_winner((), TieBreakOrder(()))


def test_winner_refuses_a_tie_order_of_another_size():
    # (1, 0) raised IndexError, and (0, 2, 2) gave 1 though 2 ties it.
    for score, order in (((1, 0), (1, 2, 0)), ((0, 2, 2), (0, 1))):
        with pytest.raises(ValueError, match="^score and tie-break order "
                                             "differ in candidates$"):
            plurality_winner(score, TieBreakOrder(order))


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


def test_apply_move_refuses_a_non_candidate():
    # True once read as 1, so (1, 2, 0) from True to 2 gave (1, 1, 1); 1.0
    # raised a bare TypeError, and 2.0 to 2 returned the score unmoved.
    s = (1, 2, 0)
    for bad in (-1, 3, 1.0, 2.0, True):
        for frm, to in ((bad, 2), (2, bad)):
            with pytest.raises(ValueError,
                               match="^candidate index out of range$"):
                apply_move(s, frm, to)


def test_linear_extensions_examples():
    partial = PartialPreference([(0, 2)])
    exts = linear_extensions(partial, 3)
    assert {p.ranking for p in exts} == {(0, 2, 1), (1, 0, 2), (0, 1, 2)}
    empty = PartialPreference([])
    assert len(linear_extensions(empty, 3)) == 6
    full = PartialPreference([(2, 0), (0, 1)])
    assert {p.ranking for p in linear_extensions(full, 3)} == {(2, 0, 1)}


def test_possible_tops_examples():
    assert possible_tops(PartialPreference([(0, 2)]), 3) == {0, 1}
    assert possible_tops(PartialPreference([]), 3) == {0, 1, 2}
    assert possible_tops(
        PartialPreference([(2, 0), (0, 1)]), 3) == {2}


@given(partial_preferences(m=3))
def test_possible_tops_match_extensions(partial):
    exts = linear_extensions(partial, 3)
    assert possible_tops(partial, 3) == {p.top for p in exts}


@given(partial_preferences(m=3))
def test_extensions_respect_required_pairs(partial):
    for p in linear_extensions(partial, 3):
        for x, y in partial.pairs:
            assert p.rank_of(x) < p.rank_of(y)
