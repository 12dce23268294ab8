import itertools
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from credalvote import (
    DEFAULT_CAP,
    ExpansionCapError,
    FocalElement,
    L1_ADDREMOVE,
    LayeredBelief,
    METRICS,
    MassFunction,
    NESTED,
    PARTITIONED,
    VOTER_SWAP,
    layered_to_mass,
    lower_expectation,
    multinomial_distribution,
    neighborhood,
    pignistic,
    plurality_winner,
    product_mass,
    TieBreakOrder,
    upper_expectation,
)
from credalvote import uncertainty
from credalvote.oracles import oracle_pignistic
from strategies import mass_and_utility, mass_functions, scores

HALF = Fraction(1, 2)

# One singleton plus one two-point box, equal weight: the smallest mass that
# is neither a set nor a probability.
MIXED_MASS = MassFunction((
    (FocalElement.from_points([(1, 1, 1)]), HALF),
    (FocalElement.from_box([(0, 1), (1, 2), (1, 1)], total=3), HALF),
))


def indicator(event):
    """The event's indicator utility: its lower expectation is the event's
    belief, its upper expectation the event's plausibility."""
    points = set(event)
    return lambda s: int(s in points)


def support(mass):
    """Every point of some focal element, sorted."""
    return sorted(set().union(*(f.points for f, _ in mass.assignments)))


class TestFocalElement:
    def test_box_expansion_with_total(self):
        focal = FocalElement.from_box([(0, 1), (1, 2), (1, 1)], total=3)
        assert focal.points == ((0, 2, 1), (1, 1, 1))

    def test_box_expansion_without_total(self):
        focal = FocalElement.from_box([(0, 1), (1, 2), (1, 1)])
        assert focal.points == ((0, 1, 1), (0, 2, 1), (1, 1, 1), (1, 2, 1))

    def test_box_refuses_non_integers(self):
        # int() would truncate 0.5 and 2.7 to a three-point box, and True is
        # an int to isinstance.
        for intervals, total in (([(0.5, 2.7)], None), ([(True, 2)], None),
                                 ([(0, 3)], 2.0), ([(0, 3)], True)):
            with pytest.raises(ValueError, match="box (bounds|total) must be"):
                FocalElement.from_box(intervals, total)

    def test_box_equals_points_canonically(self):
        box = FocalElement.from_box([(0, 1), (1, 2), (1, 1)], total=3)
        pts = FocalElement.from_points([(1, 1, 1), (0, 2, 1)])
        assert box == pts
        assert hash(box) == hash(pts)

    def test_points_deduplicated_and_sorted(self):
        focal = FocalElement.from_points([(1, 0, 0), (0, 1, 0), (1, 0, 0)])
        assert focal.points == ((0, 1, 0), (1, 0, 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FocalElement.from_points([])
        with pytest.raises(ValueError):
            FocalElement.from_box([(0, 1), (0, 1)], total=5)
        with pytest.raises(ValueError):
            FocalElement.from_box([(2, 1)])
        # An empty box or score would make a point with no candidate.
        with pytest.raises(ValueError,
                           match="^box needs at least one interval$"):
            FocalElement.from_box([])
        with pytest.raises(ValueError,
                           match="^score needs at least one entry$"):
            FocalElement(((),))

    def test_total_needs_box(self):
        # A focal element is its points; only from_box takes a total.
        with pytest.raises(TypeError):
            FocalElement(points=((1, 1),), total=2)

    def test_expansion_cap(self):
        # A box of 10**6 points, a box whose points of total 120 outnumber
        # the cap, and DEFAULT_CAP + 1 explicit points: each fails when built.
        with pytest.raises(ExpansionCapError):
            FocalElement.from_box([(0, 9)] * 6)
        with pytest.raises(ExpansionCapError):
            FocalElement.from_box([(0, 60)] * 4, total=120)
        with pytest.raises(ExpansionCapError):
            FocalElement.from_points((i, 0) for i in range(DEFAULT_CAP + 1))


class TestMassFunction:
    def test_weights_must_sum_to_one(self):
        focal = FocalElement.from_points([(1, 0, 0)])
        with pytest.raises(ValueError,
                           match="^mass weights must sum to exactly 1$"):
            MassFunction(((focal, HALF),))

    def test_weights_must_be_positive(self):
        a = FocalElement.from_points([(1, 0, 0)])
        b = FocalElement.from_points([(0, 1, 0)])
        with pytest.raises(ValueError,
                           match="^every mass weight must be positive$"):
            MassFunction(((a, Fraction(3, 2)), (b, Fraction(-1, 2))))

    def test_weights_must_be_exact(self):
        a = FocalElement.from_points([(1, 0, 0)])
        b = FocalElement.from_points([(0, 1, 0)])
        for weights in ((0.5, 0.5), (True, 0), (0.25, "3/4")):
            with pytest.raises(ValueError, match="not exact"):
                MassFunction(tuple(zip((a, b), weights)))
        assert MassFunction(((a, "1/4"), (b, Fraction(3, 4)))) == \
            MassFunction(((a, Fraction(1, 4)), (b, Fraction(3, 4))))

    def test_needs_a_focal_element(self):
        with pytest.raises(ValueError, match="^mass function needs at least "
                                             "one focal element$"):
            MassFunction(())

    def test_focal_elements_must_share_one_length(self):
        a = FocalElement.from_points([(1, 0, 0)])
        b = FocalElement.from_points([(1, 0, 0, 0)])
        with pytest.raises(ValueError, match="scores of one length"):
            MassFunction(((a, HALF), (b, HALF)))

    def test_duplicate_focals_rejected_across_representations(self):
        box = FocalElement.from_box([(0, 1), (1, 2), (1, 1)], total=3)
        pts = FocalElement.from_points([(1, 1, 1), (0, 2, 1)])
        with pytest.raises(ValueError, match=(
                "^focal elements must be distinct after canonicalization$")):
            MassFunction(((box, HALF), (pts, HALF)))

    def test_many_singletons_build_quickly(self):
        # Distinctness is checked on hashes, once per focal element; a check
        # of every pair, quadratic, took over a minute on these 20,001.
        n = 20_000
        start = time.perf_counter()
        mass = pignistic(MassFunction(((FocalElement.from_points(
            (k, n - k) for k in range(n + 1)), Fraction(1)),)))
        assert time.perf_counter() - start < 5
        assert len(mass.assignments) == n + 1


class TestProbabilities:
    """Belief and plausibility of an event, as the lower and upper
    expectations of its indicator."""

    def test_pinned_event_bounds(self):
        event = indicator([(1, 1, 1)])
        assert lower_expectation(MIXED_MASS, event) == HALF
        assert upper_expectation(MIXED_MASS, event) == 1

    def test_empty_and_full_events(self):
        assert lower_expectation(MIXED_MASS, indicator([])) == 0
        assert upper_expectation(MIXED_MASS, indicator([])) == 0
        assert lower_expectation(MIXED_MASS,
                                 indicator(support(MIXED_MASS))) == 1

    @given(mass_functions(), st.sets(scores(max_votes=3)))
    def test_bounds_and_duality(self, mass, event):
        lower = lower_expectation(mass, indicator(event))
        upper = upper_expectation(mass, indicator(event))
        assert 0 <= lower <= upper <= 1
        universe = set(support(mass))
        complement = universe - set(event)
        assert upper_expectation(mass, indicator(event & universe)) == \
            1 - lower_expectation(mass, indicator(complement))

    @given(mass_functions(), st.sets(scores(max_votes=3)),
           st.sets(scores(max_votes=3)))
    def test_lower_probability_monotone(self, mass, a, extra):
        b = a | extra
        assert lower_expectation(mass, indicator(a)) <= \
            lower_expectation(mass, indicator(b))


class TestExpectations:
    def test_pinned_move_expectations(self):
        # +1 on the singleton; +1/-1 on the box points
        u = {(1, 1, 1): Fraction(1), (0, 2, 1): Fraction(-1)}
        assert lower_expectation(MIXED_MASS, u) == 0
        assert upper_expectation(MIXED_MASS, u) == 1

    def test_constant_utility(self):
        c = Fraction(7, 3)
        assert lower_expectation(MIXED_MASS, lambda s: c) == c
        assert upper_expectation(MIXED_MASS, lambda s: c) == c

    @given(mass_and_utility())
    def test_sandwich(self, mass_u):
        mass, u = mass_u
        lower = lower_expectation(mass, u)
        upper = upper_expectation(mass, u)
        assert lower <= lower_expectation(pignistic(mass), u) <= upper

    @given(mass_and_utility())
    def test_conjugacy(self, mass_u):
        mass, u = mass_u
        neg = {s: -v for s, v in u.items()}
        assert upper_expectation(mass, u) == -lower_expectation(mass, neg)

    @given(mass_and_utility(), st.integers(0, 5), st.integers(1, 3))
    def test_positive_homogeneity(self, mass_u, num, den):
        mass, u = mass_u
        c = Fraction(num, den)
        scaled = {s: c * v for s, v in u.items()}
        assert lower_expectation(mass, scaled) == c * lower_expectation(mass, u)

    @given(mass_and_utility(singletons_only=True))
    def test_bayesian_collapse(self, mass_u):
        mass, u = mass_u
        lower = lower_expectation(mass, u)
        assert lower == upper_expectation(mass, u)
        assert lower == lower_expectation(pignistic(mass), u)

    def test_mapping_utility_on_a_bayesian_mass(self):
        mass = MassFunction(((FocalElement.from_points([(1, 0)]), HALF),
                             (FocalElement.from_points([(0, 1)]), HALF)))
        assert lower_expectation(mass, {(1, 0): 2, (0, 1): 0}) == 1
        assert upper_expectation(mass, {(1, 0): 2, (0, 1): 0}) == 1
        assert upper_expectation(mass, indicator([(9, 9)])) == 0
        with pytest.raises(TypeError, match="^utility must be a callable or "
                                            "a mapping over score vectors$"):
            lower_expectation(mass, 5)


class TestPignistic:
    def test_single_focal_uniform(self):
        focal = FocalElement.from_points([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        dist = pignistic(MassFunction(((focal, Fraction(1)),)))
        assert len(dist.assignments) == 3
        assert all(p == Fraction(1, 3) for _, p in dist.assignments)

    def test_pinned_mixed_mass(self):
        dist = pignistic(MIXED_MASS)
        assert upper_expectation(dist, indicator([(1, 1, 1)])) == \
            Fraction(3, 4)
        assert lower_expectation(dist, indicator([(0, 2, 1)])) == \
            Fraction(1, 4)

    @given(mass_functions(singletons_only=True))
    def test_bayesian_mass_is_its_own_pignistic(self, mass):
        dist = pignistic(mass)
        for focal, w in mass.assignments:
            assert upper_expectation(dist, indicator(focal.points)) == w

    @given(mass_functions())
    def test_probabilities_sum_to_one(self, mass):
        assert sum(p for _, p in pignistic(mass).assignments) == 1

    @given(mass_functions())
    def test_is_a_sorted_bayesian_mass(self, mass):
        for dist in (pignistic(mass), oracle_pignistic(mass)):
            assert all(len(focal.points) == 1 for focal, _ in dist.assignments)
            points = [focal.points[0] for focal, _ in dist.assignments]
            assert points == sorted(points) == support(mass)


class TestNeighborhoods:
    def test_l1_pinned_nine_vectors(self):
        ball = neighborhood((2, 2, 3, 3), L1_ADDREMOVE, 1)
        assert set(ball.points) == {
            (2, 2, 3, 3), (1, 2, 3, 3), (2, 1, 3, 3), (2, 2, 2, 3),
            (2, 2, 3, 2), (3, 2, 3, 3), (2, 3, 3, 3), (2, 2, 4, 3),
            (2, 2, 3, 4)}

    def test_swap_pinned_four_vectors(self):
        ball = neighborhood((0, 2, 1), VOTER_SWAP, 1)
        assert set(ball.points) == {
            (0, 2, 1), (1, 1, 1), (0, 1, 2), (1, 2, 0)}

    def test_swap_radius_two(self):
        ball = neighborhood((0, 2, 1), VOTER_SWAP, 2)
        assert set(ball.points) == {
            (0, 2, 1), (1, 1, 1), (0, 1, 2), (1, 2, 0), (0, 0, 3),
            (1, 0, 2), (2, 0, 1), (2, 1, 0)}

    def test_radius_zero(self):
        for metric in (L1_ADDREMOVE, VOTER_SWAP):
            assert neighborhood((2, 0, 1), metric, 0).points == ((2, 0, 1),)

    @given(scores(m=3, max_votes=3), st.integers(0, 2))
    def test_l1_membership(self, center, r):
        ball = neighborhood(center, L1_ADDREMOVE, r)
        for p in ball.points:
            assert sum(abs(a - b) for a, b in zip(p, center)) <= r
            assert all(x >= 0 for x in p)

    @given(scores(m=3, max_votes=3), st.integers(0, 2))
    def test_swap_inside_double_l1(self, center, r):
        swap = set(neighborhood(center, VOTER_SWAP, r).points)
        l1 = set(neighborhood(center, L1_ADDREMOVE, 2 * r).points)
        assert swap <= l1
        assert all(sum(p) == sum(center) for p in swap)

    @given(scores(m=3, max_votes=3), st.integers(1, 2))
    def test_swap_never_feeds_the_leader(self, center, r):
        leader = plurality_winner(center, TieBreakOrder.default(3))
        ball = neighborhood(center, VOTER_SWAP, r)
        assert all(p[leader] <= center[leader] for p in ball.points)

    def test_cap(self):
        with pytest.raises(ExpansionCapError):
            neighborhood((10,) * 6, L1_ADDREMOVE, 10)
        with pytest.raises(ExpansionCapError):
            neighborhood((20,) * 8, VOTER_SWAP, 6)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown metric"):
            neighborhood((1, 2, 3), "hamming", 1)
        # True equals 1 and 1.0 is integral, but neither is a radius.
        for metric in (L1_ADDREMOVE, VOTER_SWAP):
            for radius in (1.5, 1.0, True, "1"):
                with pytest.raises(ValueError, match="radius must be an integer"):
                    neighborhood((1, 2, 3), metric, radius)
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                neighborhood((1, 2, 3), metric, -1)
            with pytest.raises(ValueError,
                               match="^score needs at least one entry$"):
                neighborhood((), metric, 1)

    def test_huge_swap_radius_is_immediate(self):
        # Every score reachable from (5, 5, 5) is ten reassignments away at
        # most, however large the radius.
        start = time.perf_counter()
        ball = neighborhood((5, 5, 5), VOTER_SWAP, 10**9)
        assert time.perf_counter() - start < 1
        assert ball == neighborhood((5, 5, 5), VOTER_SWAP, 10)
        assert len(ball.points) == 81

    def test_bounds_past_machine_ints_hit_the_cap(self):
        # Each layer is counted in integers, so a centre, radius or box
        # bound past 2**63 fails at once on the cap.
        huge = 10**30
        for metric in METRICS:
            with pytest.raises(ExpansionCapError,
                               match="neighborhood expands past cap 100000"):
                neighborhood((huge, 0, 0), metric, huge)
        with pytest.raises(ExpansionCapError,
                           match="box expands past cap 100000"):
            FocalElement.from_box([(0, huge)] * 3, huge)


def brute_box(box, total=None) -> list:
    """The box's points in lexicographic order, filtered to `total`."""
    return [p for p in itertools.product(*[range(lo, hi + 1) for lo, hi in box])
            if total is None or sum(p) == total]


def brute_ball(center, metric, radius) -> list:
    """A neighbourhood from its definition: the l1 filter over its bounding
    box, or a breadth-first search over single-vote reassignments that
    never feed the leader."""
    if metric == L1_ADDREMOVE:
        return [p for p in brute_box([(max(c - radius, 0), c + radius)
                                      for c in center])
                if sum(abs(a - b) for a, b in zip(p, center)) <= radius]
    leader = plurality_winner(center, TieBreakOrder.default(len(center)))
    seen = frontier = {center}
    for _ in range(radius):
        reached = set()
        for s in frontier:
            for src, dst in itertools.permutations(range(len(s)), 2):
                if s[src] and dst != leader:
                    moved = list(s)
                    moved[src] -= 1
                    moved[dst] += 1
                    reached.add(tuple(moved))
        frontier = reached - seen
        seen = seen | frontier
    return sorted(seen)


@st.composite
def boxes(draw):
    box = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
        lambda t: (t[0], t[0] + t[1])), min_size=1, max_size=4))
    total = draw(st.none() | st.integers(sum(lo for lo, _ in box),
                                         sum(hi for _, hi in box)))
    return box, total


class TestEnumeration:
    """Every bounded score set against a brute force of its definition.

    Each set is counted before it is built, so under any cap it must build
    exactly when the brute force has no more points than the cap."""

    @staticmethod
    def assert_capped(build, size, cap):
        # The drawn cap, and the caps on either side of the set's size: a
        # prefix that extends to no point would be counted at its layer, so
        # the set would not build under a cap equal to its size.
        for c in (cap, size, size - 1):
            with mock.patch.object(uncertainty, "DEFAULT_CAP", c):
                if size > c:
                    with pytest.raises(ExpansionCapError):
                        build()
                else:
                    build()

    @given(boxes())
    def test_box_equals_points_of_brute_box(self, box_total):
        box, total = box_total
        for t in (None, total):
            focal = FocalElement.from_box(box, t)
            expected = FocalElement.from_points(brute_box(box, t))
            assert focal == expected
            assert hash(focal) == hash(expected)

    @settings(max_examples=200)
    @given(boxes(), st.integers(1, 60))
    def test_boxes(self, box_total, cap):
        box, total = box_total
        expected = brute_box(box, total)
        assert list(FocalElement.from_box(box, total).points) == expected
        self.assert_capped(lambda: FocalElement.from_box(box, total),
                           len(expected), cap)

    # Radii up to 5 for m <= 3 reach odd and even radii at and past the one
    # where every vote can move; the examples pin centres with zeros and
    # with a tie at the top, whose leader is the first index.
    @settings(max_examples=300)
    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(
               scores(m=m, max_votes=4), st.integers(0, 5 if m <= 3 else 3))),
           st.sampled_from((L1_ADDREMOVE, VOTER_SWAP)), st.integers(1, 60))
    @example(((0, 0, 0), 5), VOTER_SWAP, 1)
    @example(((0, 4, 0), 4), VOTER_SWAP, 60)
    @example(((3, 3, 0), 4), VOTER_SWAP, 60)
    @example(((3, 3, 0), 5), VOTER_SWAP, 20)
    @example(((4, 0, 4), 5), VOTER_SWAP, 60)
    @example(((0, 2, 2), 3), VOTER_SWAP, 60)
    @example(((2, 2, 2), 5), L1_ADDREMOVE, 60)
    def test_balls(self, center_radius, metric, cap):
        center, radius = center_radius
        expected = brute_ball(center, metric, radius)
        assert list(neighborhood(center, metric, radius).points) == expected
        self.assert_capped(lambda: neighborhood(center, metric, radius),
                           len(expected), cap)

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
           st.integers(1, 6))
    def test_compositions(self, parts, n):
        q = [Fraction(p, sum(parts)) for p in parts]
        dist = multinomial_distribution(q, n)
        assert [focal.points[0] for focal, _ in dist.assignments] == \
            brute_box([(0, n)] * len(q), n)

    def test_cap_boundaries(self):
        # Each pair is the largest set that builds and the next one past it.
        for build in (lambda k: FocalElement.from_box([(0, k)]),
                      lambda k: FocalElement.from_box([(0, k)] * 2, total=k)):
            assert len(build(DEFAULT_CAP - 1).points) == DEFAULT_CAP
            with pytest.raises(ExpansionCapError,
                               match="box expands past cap 100000"):
                build(DEFAULT_CAP)
        radius = DEFAULT_CAP // 2
        ball = neighborhood((radius - 1,), L1_ADDREMOVE, radius)
        assert len(ball.points) == DEFAULT_CAP
        with pytest.raises(ExpansionCapError,
                           match="neighborhood expands past cap 100000"):
            neighborhood((radius,), L1_ADDREMOVE, radius)


@st.composite
def layered_beliefs(draw):
    radii = sorted(draw(st.sets(st.integers(0, 3), min_size=1, max_size=3)))
    parts = draw(st.lists(st.integers(1, 4), min_size=len(radii),
                          max_size=len(radii)))
    return LayeredBelief(draw(st.sampled_from((NESTED, PARTITIONED))), radii,
                         [Fraction(p, sum(parts)) for p in parts],
                         draw(st.sampled_from(METRICS)))


def fresh_layered_mass(belief, center):
    """The layered mass from balls built afresh: a nested ball equal to the
    one before joins its weight, a partitioned layer is the ring between
    consecutive balls."""
    balls = [neighborhood(center, belief.metric, r) for r in belief.radii]
    pairs = [(balls[0], belief.weights[0])]
    for prev, ball, w in zip(balls, balls[1:], belief.weights[1:]):
        if belief.kind == PARTITIONED:
            pairs.append((FocalElement.from_points(
                set(ball.points) - set(prev.points)), w))
        elif ball == prev:
            pairs[-1] = (prev, pairs[-1][1] + w)
        else:
            pairs.append((ball, w))
    return MassFunction(tuple(pairs))


class TestLayered:
    @given(layered_beliefs(),
           st.lists(st.integers(0, 4), min_size=1, max_size=4), st.booleans())
    @settings(max_examples=150)
    def test_shared_balls_match_fresh_ones(self, belief, center, list_first):
        try:
            expected = fresh_layered_mass(belief, center)
        except ValueError:  # an empty ring
            expected = None
        centers = [list(center), tuple(center)]
        if not list_first:
            centers.reverse()
        uncertainty._ball.cache_clear()
        uncertainty._ring.cache_clear()
        for c in centers:  # the tables cold, then warm
            if expected is None:
                with pytest.raises(ValueError, match="ring .* is empty"):
                    layered_to_mass(belief, c)
            else:
                mass = layered_to_mass(belief, c)
                assert mass == expected
                assert mass._scaled == expected._scaled

    def test_beliefs_share_balls_across_weights(self):
        wide = LayeredBelief(NESTED, (1, 2), (Fraction(2, 3), Fraction(1, 3)))
        narrow = LayeredBelief(NESTED, (1, 3), (HALF, HALF))
        rings = LayeredBelief(PARTITIONED, (1, 3), (Fraction(1, 3),
                                                     Fraction(2, 3)))
        a, b, c = (layered_to_mass(belief, center) for belief, center in (
            (wide, (3, 1, 2)), (narrow, [3, 1, 2]), (rings, (3, 1, 2))))
        assert a.assignments[0][0] is b.assignments[0][0]
        assert b.assignments[0][0] is c.assignments[0][0]
        assert c.assignments[1][0] is layered_to_mass(
            rings, (3, 1, 2)).assignments[1][0]

    def test_a_cached_centre_is_still_validated(self):
        # The ball table takes True and 1.0 for 1.
        belief = LayeredBelief(NESTED, (1,), (Fraction(1),))
        layered_to_mass(belief, (1, 1, 1))
        for center in ((True, 1, 1), (1.0, 1, 1)):
            with pytest.raises(ValueError, match="score entries must be "
                                                 "nonnegative integers"):
                layered_to_mass(belief, center)

    def test_nested_weights_on_balls(self):
        layered = LayeredBelief(kind="nested", radii=(1, 2, 3),
                                weights=(HALF, Fraction(3, 10), Fraction(1, 5)))
        mass = layered_to_mass(layered, (10, 9, 11))
        sizes = [len(f.points) for f, _ in mass.assignments]
        assert sizes == sorted(sizes)
        assert [w for _, w in mass.assignments] == \
            [HALF, Fraction(3, 10), Fraction(1, 5)]
        balls = [set(f.points) for f, _ in mass.assignments]
        assert all(a < b for a, b in zip(balls, balls[1:]))

    def test_partitioned_rings_disjoint(self):
        layered = LayeredBelief(kind="partitioned", radii=(1, 2, 3),
                                weights=(HALF, Fraction(3, 10), Fraction(1, 5)))
        mass = layered_to_mass(layered, (10, 9, 11))
        expansions = [set(f.points) for f, _ in mass.assignments]
        for i in range(len(expansions)):
            for j in range(i + 1, len(expansions)):
                assert not expansions[i] & expansions[j]
        ball3 = set(neighborhood((10, 9, 11), L1_ADDREMOVE, 3).points)
        assert set().union(*expansions) == ball3

    def test_coinciding_nested_balls_fold(self):
        # From (2, 0, 0) two swaps already reach every 2-vote score, so the
        # radius-3 ball is the radius-2 ball and its weight joins it.
        layered = LayeredBelief(kind="nested", radii=(2, 3),
                                weights=(HALF, HALF), metric=VOTER_SWAP)
        mass = layered_to_mass(layered, (2, 0, 0))
        ball = neighborhood((2, 0, 0), VOTER_SWAP, 2)
        assert neighborhood((2, 0, 0), VOTER_SWAP, 3) == ball
        assert mass.assignments == ((ball, Fraction(1)),)

    def test_empty_swap_ring_rejected(self):
        layered = LayeredBelief(kind="partitioned", radii=(1, 2),
                                weights=(HALF, HALF), metric=VOTER_SWAP)
        with pytest.raises(ValueError):
            layered_to_mass(layered, (1, 0, 0))

    def test_validation(self):
        with pytest.raises(ValueError):
            LayeredBelief(kind="nested", radii=(2, 1), weights=(HALF, HALF))
        with pytest.raises(ValueError):
            LayeredBelief(kind="nested", radii=(1,), weights=(HALF,))
        with pytest.raises(ValueError):
            LayeredBelief(kind="sideways", radii=(1,), weights=(Fraction(1),))
        for weights in ((0.5, 0.5), (True,)):
            with pytest.raises(ValueError, match="not exact"):
                LayeredBelief(kind="nested", radii=(1, 2)[:len(weights)],
                              weights=weights)
        for weights in (("1e0",), ("1/2", "5E-1")):
            with pytest.raises(ValueError, match="has an exponent"):
                LayeredBelief(kind="nested", radii=(1, 2)[:len(weights)],
                              weights=weights)
        with pytest.raises(ValueError, match="zero denominator"):
            LayeredBelief(kind="nested", radii=(1,), weights=("1/0",))
        with pytest.raises(ValueError, match="^unknown metric 'x'$"):
            LayeredBelief("nested", (1,), (1,), "x")
        with pytest.raises(ValueError, match="^layered belief needs at least "
                                             "one radius$"):
            LayeredBelief("nested", (), ())

    @given(layered_beliefs())
    def test_hash_agrees_with_equality(self, belief):
        # The hash is taken once, over the radii and weights.
        twin = LayeredBelief(belief.kind, list(belief.radii),
                             [str(w) for w in belief.weights], belief.metric)
        assert twin == belief
        assert hash(twin) == hash(belief) == hash(belief)
        other = next(m for m in METRICS if m != belief.metric)
        assert LayeredBelief(belief.kind, belief.radii, belief.weights,
                             other) != belief

    def test_radii_are_stored_as_a_tuple_of_ints(self):
        listed = LayeredBelief(kind="nested", radii=[1, 2], weights=(HALF, HALF))
        assert listed.radii == (1, 2) and type(listed.radii) is tuple
        assert hash(listed) == hash(
            LayeredBelief(kind="nested", radii=(1, 2), weights=(HALF, HALF)))
        # True and 1.0 equal 1, so they would share the radius-1 belief's
        # cached masses.
        for radii in ((True,), (1.0,), ("1",)):
            with pytest.raises(ValueError, match="radii must be integers"):
                LayeredBelief(kind="nested", radii=radii, weights=(1,))


class TestProductMass:
    def test_two_candidate_example(self):
        mass = product_mass(
            [[({0}, HALF), ({0, 1}, HALF)], [({1}, Fraction(1))]],
            candidates_m=2)
        expected = MassFunction((
            (FocalElement.from_points([(1, 1)]), HALF),
            (FocalElement.from_points([(1, 1), (0, 2)]), HALF)))
        assert mass == expected

    def test_hesitating_voter_reproduces_mixed_mass(self):
        mass = product_mass(
            [[({0}, HALF), ({0, 1}, HALF)],
             [({1}, Fraction(1))],
             [({2}, Fraction(1))]],
            candidates_m=3)
        assert mass == MIXED_MASS

    def test_all_certain(self):
        mass = product_mass([[({0}, Fraction(1))], [({1}, Fraction(1))]],
                            candidates_m=3)
        assert mass == MassFunction(
            ((FocalElement.from_points([(1, 1, 0)]), Fraction(1)),))

    def test_refuses_non_integer_candidates(self):
        # int() would read candidate 0.9 as candidate 0.
        for subset in ({0.9, 1}, {True}, {"a"}):
            with pytest.raises(ValueError, match="ballot set out of range"):
                product_mass([[(subset, 1)]], 3)

    def test_merges_duplicate_focals(self):
        # both hesitation patterns produce the same score set
        mass = product_mass(
            [[({0, 1}, HALF), ({1, 0}, HALF)]], candidates_m=3)
        assert len(mass.assignments) == 1
        assert mass.assignments[0][1] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            product_mass([[({0}, HALF)]], candidates_m=3)
        with pytest.raises(ValueError):
            product_mass([[(set(), Fraction(1))]], candidates_m=3)
        with pytest.raises(ValueError):
            product_mass([[({5}, Fraction(1))]], candidates_m=3)
        with pytest.raises(ValueError, match="^voter 0 has a nonpositive "
                                             "ballot weight$"):
            product_mass([[({0}, 0), ({1}, 1)]], candidates_m=3)
        for weight in (1.0, True):
            with pytest.raises(ValueError, match="not exact"):
                product_mass([[({0}, weight)]], candidates_m=3)
        # 2**17 focal tuples; then one tuple of 3**11 ballot picks.
        with pytest.raises(ExpansionCapError):
            product_mass([[({0}, HALF), ({1}, HALF)]] * 17, candidates_m=3)
        with pytest.raises(ExpansionCapError):
            product_mass([[({0, 1, 2}, Fraction(1))]] * 11, candidates_m=3)


class TestMultinomial:
    def test_symmetric_binomial(self):
        dist = multinomial_distribution((HALF, HALF), 2)
        assert all(len(focal.points) == 1 for focal, _ in dist.assignments)
        assert lower_expectation(dist, indicator([(2, 0)])) == Fraction(1, 4)
        assert lower_expectation(dist, indicator([(1, 1)])) == HALF
        assert lower_expectation(dist, indicator([(0, 2)])) == Fraction(1, 4)

    def test_point_mass(self):
        dist = multinomial_distribution((Fraction(1), Fraction(0), Fraction(0)), 5)
        assert dist.assignments == (
            (FocalElement.from_points([(5, 0, 0)]), Fraction(1)),)

    def test_uniform_three(self):
        dist = multinomial_distribution((Fraction(1, 3),) * 3, 3)
        assert lower_expectation(dist, indicator([(1, 1, 1)])) == \
            Fraction(6, 27)
        assert all(len(focal.points) == 1 for focal, _ in dist.assignments)

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 4))
    def test_marginal_matches_binomial(self, n, num, extra):
        from math import comb
        p = Fraction(num, num + extra + 1)
        dist = multinomial_distribution((p, 1 - p), n)
        for k in range(n + 1):
            assert lower_expectation(dist, indicator([(k, n - k)])) == \
                comb(n, k) * p ** k * (1 - p) ** (n - k)

    def test_validation(self):
        with pytest.raises(ValueError):
            multinomial_distribution((HALF, HALF), 0)
        for n in (2.0, True):
            with pytest.raises(ValueError, match="must be an integer"):
                multinomial_distribution([1], n)
        with pytest.raises(ValueError):
            multinomial_distribution((HALF, HALF, HALF), 2)
        with pytest.raises(ValueError, match="^need at least one weight$"):
            multinomial_distribution([], 1)
        with pytest.raises(ValueError, match="^weights must be nonnegative$"):
            multinomial_distribution((Fraction(3, 2), -HALF), 2)
        for q in ((0.5, 0.5), (True, 0)):
            with pytest.raises(ValueError, match="not exact"):
                multinomial_distribution(q, 2)
        with pytest.raises(ExpansionCapError):
            multinomial_distribution((HALF, Fraction(1, 4), Fraction(1, 4)),
                                     1000)
