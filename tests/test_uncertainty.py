from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from credalvote import (
    ExpansionCapError,
    FocalElement,
    L1_ADDREMOVE,
    LayeredBelief,
    MassFunction,
    NeighborhoodSpec,
    ScoreDistribution,
    VOTER_SWAP,
    classify,
    layered_to_mass,
    lower_expectation,
    lower_probability,
    multinomial_distribution,
    neighborhood,
    pignistic,
    plurality_winner,
    product_mass,
    TieBreakOrder,
    upper_expectation,
    upper_probability,
)
from strategies import mass_and_utility, mass_functions, scores

HALF = Fraction(1, 2)

# One singleton plus one two-point box, equal weight: the smallest mass that
# is neither a set nor a probability.
MIXED_MASS = MassFunction((
    (FocalElement.from_points([(1, 1, 1)]), HALF),
    (FocalElement.from_box([(0, 1), (1, 2), (1, 1)], total=3), HALF),
))


class TestFocalElement:
    def test_box_expansion_with_total(self):
        focal = FocalElement.from_box([(0, 1), (1, 2), (1, 1)], total=3)
        assert focal.expand() == ((0, 2, 1), (1, 1, 1))

    def test_box_expansion_without_total(self):
        focal = FocalElement.from_box([(0, 1), (1, 2), (1, 1)])
        assert focal.expand() == ((0, 1, 1), (0, 2, 1), (1, 1, 1), (1, 2, 1))

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

    def test_total_needs_box(self):
        with pytest.raises(ValueError):
            FocalElement(points=((1, 1),), total=2)

    def test_expansion_cap(self):
        focal = FocalElement.from_box([(0, 9)] * 4)
        with pytest.raises(ExpansionCapError):
            focal.expand(cap=100)


class TestMassFunction:
    def test_weights_must_sum_to_one(self):
        focal = FocalElement.from_points([(1, 0, 0)])
        with pytest.raises(ValueError):
            MassFunction(((focal, HALF),))

    def test_weights_must_be_positive(self):
        a = FocalElement.from_points([(1, 0, 0)])
        b = FocalElement.from_points([(0, 1, 0)])
        with pytest.raises(ValueError):
            MassFunction(((a, Fraction(3, 2)), (b, Fraction(-1, 2))))

    def test_duplicate_focals_rejected_across_representations(self):
        box = FocalElement.from_box([(0, 1), (1, 2), (1, 1)], total=3)
        pts = FocalElement.from_points([(1, 1, 1), (0, 2, 1)])
        with pytest.raises(ValueError):
            MassFunction(((box, HALF), (pts, HALF)))

    def test_support(self):
        assert MIXED_MASS.support() == ((0, 2, 1), (1, 1, 1))


class TestProbabilities:
    def test_pinned_event_bounds(self):
        event = [(1, 1, 1)]
        assert lower_probability(MIXED_MASS, event) == HALF
        assert upper_probability(MIXED_MASS, event) == 1

    def test_empty_and_full_events(self):
        assert lower_probability(MIXED_MASS, []) == 0
        assert upper_probability(MIXED_MASS, []) == 0
        assert lower_probability(MIXED_MASS, MIXED_MASS.support()) == 1

    @given(mass_functions(), st.sets(scores(max_votes=3)))
    def test_bounds_and_duality(self, mass, event):
        lower = lower_probability(mass, event)
        upper = upper_probability(mass, event)
        assert 0 <= lower <= upper <= 1
        universe = set(mass.support())
        complement = universe - set(event)
        assert upper_probability(mass, event & universe) == \
            1 - lower_probability(mass, complement)

    @given(mass_functions(), st.sets(scores(max_votes=3)),
           st.sets(scores(max_votes=3)))
    def test_lower_probability_monotone(self, mass, a, extra):
        b = a | extra
        assert lower_probability(mass, a) <= lower_probability(mass, b)


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
        assert lower <= pignistic(mass).expectation(u) <= upper

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
        assert lower == pignistic(mass).expectation(u)


class TestPignistic:
    def test_single_focal_uniform(self):
        focal = FocalElement.from_points([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        dist = pignistic(MassFunction(((focal, Fraction(1)),)))
        assert all(p == Fraction(1, 3) for _, p in dist.support)

    def test_pinned_mixed_mass(self):
        dist = pignistic(MIXED_MASS)
        assert dist.probability((1, 1, 1)) == Fraction(3, 4)
        assert dist.probability((0, 2, 1)) == Fraction(1, 4)

    @given(mass_functions(singletons_only=True))
    def test_bayesian_mass_is_its_own_pignistic(self, mass):
        dist = pignistic(mass)
        for focal, w in mass.assignments:
            assert dist.probability(focal.points[0]) == w

    @given(mass_functions())
    def test_probabilities_sum_to_one(self, mass):
        assert sum(p for _, p in pignistic(mass).support) == 1


class TestScoreDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScoreDistribution((((1, 0), HALF),))
        with pytest.raises(ValueError):
            ScoreDistribution((((1, 0), HALF), ((1, 0), HALF)))

    def test_expectation_with_mapping(self):
        dist = ScoreDistribution((((1, 0), HALF), ((0, 1), HALF)))
        assert dist.expectation({(1, 0): 2, (0, 1): 0}) == 1
        assert dist.probability((9, 9)) == 0


class TestNeighborhoods:
    def test_l1_pinned_nine_vectors(self):
        ball = neighborhood((2, 2, 3, 3), NeighborhoodSpec(L1_ADDREMOVE, 1))
        assert set(ball.expand()) == {
            (2, 2, 3, 3), (1, 2, 3, 3), (2, 1, 3, 3), (2, 2, 2, 3),
            (2, 2, 3, 2), (3, 2, 3, 3), (2, 3, 3, 3), (2, 2, 4, 3),
            (2, 2, 3, 4)}

    def test_swap_pinned_four_vectors(self):
        ball = neighborhood((0, 2, 1), NeighborhoodSpec(VOTER_SWAP, 1))
        assert set(ball.expand()) == {
            (0, 2, 1), (1, 1, 1), (0, 1, 2), (1, 2, 0)}

    def test_swap_radius_two(self):
        ball = neighborhood((0, 2, 1), NeighborhoodSpec(VOTER_SWAP, 2))
        assert set(ball.expand()) == {
            (0, 2, 1), (1, 1, 1), (0, 1, 2), (1, 2, 0), (0, 0, 3),
            (1, 0, 2), (2, 0, 1), (2, 1, 0)}

    def test_radius_zero(self):
        for metric in (L1_ADDREMOVE, VOTER_SWAP):
            assert neighborhood((2, 0, 1), NeighborhoodSpec(metric, 0)
                                ).expand() == ((2, 0, 1),)

    @given(scores(m=3, max_votes=3), st.integers(0, 2))
    def test_l1_membership(self, center, r):
        ball = neighborhood(center, NeighborhoodSpec(L1_ADDREMOVE, r))
        for p in ball.expand():
            assert sum(abs(a - b) for a, b in zip(p, center)) <= r
            assert all(x >= 0 for x in p)

    @given(scores(m=3, max_votes=3), st.integers(0, 2))
    def test_swap_inside_double_l1(self, center, r):
        swap = set(neighborhood(center, NeighborhoodSpec(VOTER_SWAP, r)
                                ).expand())
        l1 = set(neighborhood(center, NeighborhoodSpec(L1_ADDREMOVE, 2 * r)
                              ).expand())
        assert swap <= l1
        assert all(sum(p) == sum(center) for p in swap)

    @given(scores(m=3, max_votes=3), st.integers(1, 2))
    def test_swap_never_feeds_the_leader(self, center, r):
        leader = plurality_winner(center, TieBreakOrder.default(3))
        ball = neighborhood(center, NeighborhoodSpec(VOTER_SWAP, r))
        assert all(p[leader] <= center[leader] for p in ball.expand())

    def test_cap(self):
        with pytest.raises(ExpansionCapError):
            neighborhood((5, 5, 5, 5), NeighborhoodSpec(L1_ADDREMOVE, 4),
                         cap=10)


class TestLayered:
    def test_nested_weights_on_balls(self):
        layered = LayeredBelief(kind="nested", radii=(1, 2, 3),
                                weights=(HALF, Fraction(3, 10), Fraction(1, 5)))
        mass = layered_to_mass(layered, (10, 9, 11))
        sizes = [len(f.expand()) for f, _ in mass.assignments]
        assert sizes == sorted(sizes)
        assert [w for _, w in mass.assignments] == \
            [HALF, Fraction(3, 10), Fraction(1, 5)]
        assert classify(mass) == "necessity"

    def test_partitioned_rings_disjoint(self):
        layered = LayeredBelief(kind="partitioned", radii=(1, 2, 3),
                                weights=(HALF, Fraction(3, 10), Fraction(1, 5)))
        mass = layered_to_mass(layered, (10, 9, 11))
        expansions = [set(f.expand()) for f, _ in mass.assignments]
        for i in range(len(expansions)):
            for j in range(i + 1, len(expansions)):
                assert not expansions[i] & expansions[j]
        ball3 = set(neighborhood((10, 9, 11),
                                 NeighborhoodSpec(L1_ADDREMOVE, 3)).expand())
        assert set().union(*expansions) == ball3
        assert classify(mass) == "inner"

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


class TestClassify:
    def test_bayesian(self):
        mass = MassFunction((
            (FocalElement.from_points([(1, 0, 0)]), HALF),
            (FocalElement.from_points([(0, 1, 0)]), HALF)))
        assert classify(mass) == "bayesian"

    def test_vacuous_needs_universe(self):
        focal = FocalElement.from_points([(1, 0), (0, 1)])
        mass = MassFunction(((focal, Fraction(1)),))
        assert classify(mass, universe=[(1, 0), (0, 1)]) == "vacuous"
        assert classify(mass) == "necessity"

    def test_general(self):
        mass = MassFunction((
            (FocalElement.from_points([(1, 0), (0, 1)]), HALF),
            (FocalElement.from_points([(0, 1), (2, 0)]), HALF)))
        assert classify(mass) == "general"

    def test_radius_zero_layer_is_bayesian(self):
        layered = LayeredBelief(kind="nested", radii=(0,),
                                weights=(Fraction(1),))
        assert classify(layered_to_mass(layered, (1, 1, 0))) == "bayesian"


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


class TestMultinomial:
    def test_symmetric_binomial(self):
        dist = multinomial_distribution((HALF, HALF), 2)
        assert dist.probability((2, 0)) == Fraction(1, 4)
        assert dist.probability((1, 1)) == HALF
        assert dist.probability((0, 2)) == Fraction(1, 4)

    def test_point_mass(self):
        dist = multinomial_distribution((Fraction(1), Fraction(0), Fraction(0)), 5)
        assert dist.support == (((5, 0, 0), Fraction(1)),)

    def test_uniform_three(self):
        dist = multinomial_distribution((Fraction(1, 3),) * 3, 3)
        assert dist.probability((1, 1, 1)) == Fraction(6, 27)

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 4))
    def test_marginal_matches_binomial(self, n, num, extra):
        from math import comb
        p = Fraction(num, num + extra + 1)
        dist = multinomial_distribution((p, 1 - p), n)
        for k in range(n + 1):
            assert dist.probability((k, n - k)) == \
                comb(n, k) * p ** k * (1 - p) ** (n - k)

    def test_validation(self):
        with pytest.raises(ValueError):
            multinomial_distribution((HALF, HALF), 0)
        with pytest.raises(ValueError):
            multinomial_distribution((HALF, HALF, HALF), 2)
        with pytest.raises(ExpansionCapError):
            multinomial_distribution((HALF, Fraction(1, 4), Fraction(1, 4)),
                                     100, cap=10)
