"""Belief functions over score vectors.

A mass function assigns positive rational weights, summing to one, to focal
elements (sets of score vectors). A focal element is its sorted point set;
per-candidate integer boxes and neighborhoods are ways to build one. All
arithmetic is exact (fractions.Fraction); every point set is guarded by a
hard cardinality cap.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .election import Score, validate_score

DEFAULT_CAP = 100_000

# Entries kept per process in each least-recently-used table: the balls and
# rings built here, and the recentred masses and least centres of the
# dynamics. The bound keeps memory flat over long campaigns; a 300-seed
# theorem1_nested campaign at n=12, m=4 needs 826 balls and misses no more
# often than with unbounded tables.
LRU_SIZE = 4096

L1_ADDREMOVE = "l1_addremove"
VOTER_SWAP = "voter_swap"
METRICS = (L1_ADDREMOVE, VOTER_SWAP)

NESTED = "nested"
PARTITIONED = "partitioned"


class ExpansionCapError(ValueError):
    """A focal element would expand past DEFAULT_CAP points."""


def _rational(value) -> Fraction:
    """An exact weight as a Fraction. Floats are refused, since their binary
    rounding can tip a criterion across zero; bools are refused as not
    numbers."""
    if isinstance(value, (float, bool)):
        raise ValueError(f"{value!r} is not exact: give an int, a Fraction "
                         f"or a 'p/q' string")
    return Fraction(value)


@dataclass(frozen=True)
class FocalElement:
    """A nonempty set of score vectors of one length, held sorted.

    The points are validated, sorted, deduplicated and checked against
    DEFAULT_CAP once, when the element is built; `from_box` builds one from
    per-candidate intervals.
    """

    points: tuple[Score, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("focal element is empty")
        for p in self.points:
            validate_score(p)
        if len({len(p) for p in self.points}) != 1:
            raise ValueError("focal points must share one length")
        points = tuple(sorted(set(self.points)))
        if len(points) > DEFAULT_CAP:
            raise ExpansionCapError(
                f"focal element has {len(points)} points, cap is {DEFAULT_CAP}")
        object.__setattr__(self, "points", points)

    @classmethod
    def from_points(cls, points: Iterable[Score]) -> "FocalElement":
        return cls(tuple(tuple(p) for p in points))

    @classmethod
    def _trusted(cls, points: Sequence[Score]) -> "FocalElement":
        """Points already sorted, distinct, nonnegative and of one length."""
        focal = object.__new__(cls)
        object.__setattr__(focal, "points", tuple(points))
        return focal

    @classmethod
    def from_box(cls, intervals, total: int | None = None) -> "FocalElement":
        """The integer points of a box, filtered to an exact total if given."""
        box = tuple((lo, hi) for lo, hi in intervals)
        for lo, hi in box:
            if type(lo) is not int or type(hi) is not int:
                raise ValueError("box bounds must be integers")
            if not (0 <= lo <= hi):
                raise ValueError("box intervals need 0 <= lo <= hi")
        if total is not None and type(total) is not int:
            raise ValueError("box total must be an integer")
        if total is not None and not (sum(lo for lo, _ in box) <= total
                                      <= sum(hi for _, hi in box)):
            raise ValueError("box with total constraint is empty")
        return cls(tuple(_box_points(box, total)))

    def __hash__(self):
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash(self.points)
            object.__setattr__(self, "_hash", cached)
        return cached


def _box_points(box, total) -> list[Score]:
    """Integer points of the box, filtered to the exact total when given."""
    if total is None:
        size = 1
        for lo, hi in box:
            size *= hi - lo + 1
            if size > DEFAULT_CAP:
                raise ExpansionCapError(f"box expands past cap {DEFAULT_CAP}")
        return [tuple(p) for p in itertools.product(
            *[range(lo, hi + 1) for lo, hi in box])]
    # Prefixes in lexicographic order with the total they leave. A value's
    # range keeps that total within the later intervals' least and greatest
    # sums, so every prefix extends to a point and each layer is counted
    # exactly before it is built.
    layer: list[tuple[Score, int]] = [((), total)]
    for i, (lo, hi) in enumerate(box):
        rest_lo = sum(a for a, _ in box[i + 1:])
        rest_hi = sum(b for _, b in box[i + 1:])
        ranges = [range(max(lo, left - rest_hi), min(hi, left - rest_lo) + 1)
                  for _, left in layer]
        if sum(map(len, ranges)) > DEFAULT_CAP:
            raise ExpansionCapError(f"box expands past cap {DEFAULT_CAP}")
        layer = [(prefix + (v,), left - v)
                 for (prefix, left), values in zip(layer, ranges)
                 for v in values]
    return [prefix for prefix, _ in layer]


@dataclass(frozen=True)
class MassFunction:
    """Positive rational weights on pairwise-distinct focal elements, summing to 1."""

    assignments: tuple[tuple[FocalElement, Fraction], ...]

    def __post_init__(self):
        if not self.assignments:
            raise ValueError("mass function needs at least one focal element")
        norm = tuple((focal, _rational(w)) for focal, w in self.assignments)
        object.__setattr__(self, "assignments", norm)
        if any(w <= 0 for _, w in norm):
            raise ValueError("every mass weight must be positive")
        if sum(w for _, w in norm) != 1:
            raise ValueError("mass weights must sum to exactly 1")
        if len({focal for focal, _ in norm}) != len(norm):
            raise ValueError("focal elements must be distinct after canonicalization")
        # The weights as integers over their common denominator, for
        # aggregation in integers.
        den = math.lcm(*(w.denominator for _, w in norm))
        object.__setattr__(self, "_scaled", (den, tuple(
            w.numerator * (den // w.denominator) for _, w in norm)))


@dataclass(frozen=True)
class LayeredBelief:
    """Nested or partitioned layers of neighborhoods, centered by
    `layered_to_mass` on any score (in the dynamics, each broadcast score).

    `nested` puts weight beta_k on the whole ball of radius r_k; `partitioned`
    puts it on the ring between consecutive radii. Decreasing weights are not
    enforced here; contexts that rely on them check `has_decreasing_weights`.
    """

    kind: str
    radii: tuple[int, ...]
    weights: tuple[Fraction, ...]
    metric: str = L1_ADDREMOVE

    def __post_init__(self):
        if self.kind not in (NESTED, PARTITIONED):
            raise ValueError(f"unknown layered kind {self.kind!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        object.__setattr__(self, "radii", tuple(self.radii))
        if not self.radii:
            raise ValueError("layered belief needs at least one radius")
        if any(type(r) is not int for r in self.radii):
            raise ValueError("radii must be integers")
        if any(r < 0 for r in self.radii):
            raise ValueError("radii must be nonnegative")
        if list(self.radii) != sorted(set(self.radii)):
            raise ValueError("radii must be strictly increasing")
        weights = tuple(_rational(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != len(self.radii):
            raise ValueError("need one weight per radius")
        if any(w <= 0 for w in weights):
            raise ValueError("layer weights must be positive")
        if sum(weights) != 1:
            raise ValueError("layer weights must sum to exactly 1")

    @property
    def has_decreasing_weights(self) -> bool:
        return all(a >= b for a, b in zip(self.weights, self.weights[1:]))


def _as_function(u) -> Callable[[Score], Fraction]:
    if callable(u):
        return u
    if isinstance(u, Mapping):
        return u.__getitem__
    raise TypeError("utility must be a callable or a mapping over score vectors")


def lower_expectation(mass: MassFunction, u) -> Fraction:
    """Weighted sum of each focal element's worst utility."""
    fn = _as_function(u)
    return sum((w * Fraction(min(fn(p) for p in focal.points))
                for focal, w in mass.assignments), Fraction(0))


def upper_expectation(mass: MassFunction, u) -> Fraction:
    """Weighted sum of each focal element's best utility."""
    fn = _as_function(u)
    return sum((w * Fraction(max(fn(p) for p in focal.points))
                for focal, w in mass.assignments), Fraction(0))


def pignistic(mass: MassFunction) -> MassFunction:
    """The Bayesian mass that spreads each focal element's weight uniformly
    over its points."""
    acc: dict[Score, Fraction] = {}
    for focal, w in mass.assignments:
        points = focal.points
        share = w / len(points)
        for p in points:
            acc[p] = acc.get(p, Fraction(0)) + share
    return _bayesian(acc.items())


def _bayesian(probabilities: Iterable[tuple[Score, Fraction]]) -> MassFunction:
    """One singleton focal element per score, sorted by score."""
    return MassFunction(tuple((FocalElement((s,)), p)
                              for s, p in sorted(probabilities)))


def neighborhood(center: Score, metric: str, radius: int) -> FocalElement:
    """The set of score vectors within `radius` of `center` under `metric`.

    l1_addremove: all nonnegative integer vectors within l1 distance r; the
    vote total may drift by up to r (votes appear or vanish, as with late
    deciders or abstainers).

    voter_swap: vectors reachable by at most r single-vote reassignments, the
    vote total is preserved; a reassignment never moves a vote onto the
    center's current plurality winner (ties by candidate index), so the
    neighborhood models challengers gaining, never the leader consolidating.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if type(radius) is not int:
        raise ValueError("radius must be an integer")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    center = validate_score(tuple(center))
    ball = _l1_ball if metric == L1_ADDREMOVE else _swap_ball
    return FocalElement._trusted(ball(center, radius))


def _l1_ball(center: Score, radius: int) -> list[Score]:
    # Prefixes in lexicographic order with their remaining budget; every
    # prefix extends to at least one point, so a layer past the cap means a
    # ball past it. Each is counted before it is built, when it could pass.
    layer: list[tuple[Score, int]] = [((), radius)]
    for c in center:
        if (len(layer) * (2 * radius + 1) > DEFAULT_CAP
                and sum(b + min(c, b) + 1 for _, b in layer) > DEFAULT_CAP):
            raise ExpansionCapError(
                f"neighborhood expands past cap {DEFAULT_CAP}")
        layer = [(prefix + (c + d,), budget - abs(d))
                 for prefix, budget in layer
                 for d in range(-min(c, budget), budget + 1)]
    return [prefix for prefix, _ in layer]


def _swap_ball(center: Score, radius: int) -> list[Score]:
    # A score is within `radius` reassignments exactly when it keeps the
    # centre's total, gives the leader no vote and gains at most `radius`
    # votes. Prefixes in lexicographic order carry the gains still allowed
    # and their balance, votes gained minus votes lost; each range holds
    # just the values that leave a completable prefix, so every layer is
    # counted exactly before it is built.
    leader = center.index(max(center))
    layer: list[tuple[Score, int, int]] = [((), radius, 0)]
    for i, c in enumerate(center):
        rest = sum(center[i + 1:])
        # A deficit can be repaid only by a later candidate that may gain.
        repay = len(center) - i - 1 > (leader > i)
        ranges = [range(max(-c, -balance - (budget if repay else 0)),
                        min(0 if i == leader else budget, rest - balance) + 1)
                  for _, budget, balance in layer]
        if sum(map(len, ranges)) > DEFAULT_CAP:
            raise ExpansionCapError(
                f"neighborhood expands past cap {DEFAULT_CAP}")
        layer = [(prefix + (c + d,), budget - max(d, 0), balance + d)
                 for (prefix, budget, balance), ds in zip(layer, ranges)
                 for d in ds]
    return [prefix for prefix, _, _ in layer]


@lru_cache(maxsize=LRU_SIZE)
def _ball(center: Score, metric: str, radius: int) -> FocalElement:
    """One shared ball per (centre, metric, radius); the caller has checked
    that the centre holds only ints, since the table takes True and 1.0 for 1.
    """
    return neighborhood(center, metric, radius)


@lru_cache(maxsize=LRU_SIZE)
def _ring(center: Score, metric: str, inner: int, outer: int) -> FocalElement:
    """The points of the outer ball not in the inner one; the centre is
    checked as for `_ball`."""
    ring = sorted(set(_ball(center, metric, outer).points)
                  - set(_ball(center, metric, inner).points))
    if not ring:
        raise ValueError(
            f"partitioned ring between radii {inner} and {outer} is empty")
    return FocalElement._trusted(ring)


def layered_to_mass(belief: LayeredBelief, center: Score) -> MassFunction:
    """Materialize a layered belief around `center` as focal elements with the
    layer weights. Beliefs of one metric centred on one score share their
    balls and rings."""
    center = validate_score(tuple(center))
    metric, radii = belief.metric, belief.radii
    focals = [_ball(center, metric, radii[0])]
    weights = [belief.weights[0]]
    for r_prev, r, w in zip(radii, radii[1:], belief.weights[1:]):
        if belief.kind == NESTED:
            ball = _ball(center, metric, r)
            # A ball contains the one before it, so one of the same size is
            # the same set; its weight joins that set's, which leaves every
            # lower, upper and pignistic value unchanged.
            if len(ball.points) == len(focals[-1].points):
                weights[-1] += w
                continue
            focals.append(ball)
        else:
            focals.append(_ring(center, metric, r_prev, r))
        weights.append(w)
    return MassFunction(tuple(zip(focals, weights)))


def product_mass(ballot_masses: Sequence[Sequence[tuple[Iterable[int], Fraction]]],
                 candidates_m: int) -> MassFunction:
    """Joint mass over score vectors from independent per-voter ballot masses.

    Each voter contributes a mass over nonempty candidate subsets. Every tuple
    of per-voter focal subsets becomes one focal element: all score vectors
    obtainable by picking one candidate per voter. Weights multiply; identical
    focal elements merge by summing weights.
    """
    per_voter = []
    for i, assignments in enumerate(ballot_masses):
        cleaned = []
        for subset, w in assignments:
            subset = set(subset)
            if not subset:
                raise ValueError(f"voter {i} has an empty ballot set")
            if any(type(c) is not int or not 0 <= c < candidates_m
                   for c in subset):
                raise ValueError(f"voter {i} ballot set out of range")
            subset = tuple(sorted(subset))
            w = _rational(w)
            if w <= 0:
                raise ValueError(f"voter {i} has a nonpositive ballot weight")
            cleaned.append((subset, w))
        if sum(w for _, w in cleaned) != 1:
            raise ValueError(f"voter {i} ballot weights must sum to 1")
        per_voter.append(cleaned)

    tuples = 1
    for assignments in per_voter:
        tuples *= len(assignments)
        if tuples > DEFAULT_CAP:
            raise ExpansionCapError(f"focal tuple count exceeds cap {DEFAULT_CAP}")

    merged: dict[tuple[Score, ...], Fraction] = {}
    for combo in itertools.product(*per_voter):
        weight = math.prod((w for _, w in combo), start=Fraction(1))
        choices = 1
        for subset, _ in combo:
            choices *= len(subset)
            if choices > DEFAULT_CAP:
                raise ExpansionCapError(
                    f"score enumeration exceeds cap {DEFAULT_CAP}")
        scores = set()
        for picks in itertools.product(*[subset for subset, _ in combo]):
            counts = [0] * candidates_m
            for c in picks:
                counts[c] += 1
            scores.add(tuple(counts))
        key = tuple(sorted(scores))
        merged[key] = merged.get(key, Fraction(0)) + weight
    return MassFunction(tuple(
        (FocalElement.from_points(points), w) for points, w in merged.items()))


def multinomial_distribution(q: Sequence[Fraction], n: int) -> MassFunction:
    """Exact multinomial distribution over all score vectors summing to n, as
    a Bayesian mass."""
    q = [_rational(x) for x in q]
    if not q:
        raise ValueError("need at least one weight")
    if any(x < 0 for x in q):
        raise ValueError("weights must be nonnegative")
    if sum(q) != 1:
        raise ValueError("weights must sum to exactly 1")
    if n < 1:
        raise ValueError("need at least one voter")
    m = len(q)
    if math.comb(n + m - 1, m - 1) > DEFAULT_CAP:
        raise ExpansionCapError(f"composition count exceeds cap {DEFAULT_CAP}")
    support = []
    for s in _box_points(((0, n),) * m, n):
        prob = Fraction(math.factorial(n))
        for sx, qx in zip(s, q):
            prob *= qx ** sx / math.factorial(sx)
        if prob > 0:
            support.append((s, prob))
    return _bayesian(support)
