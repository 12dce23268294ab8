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
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .election import Score, tally, validate_score

DEFAULT_CAP = 100_000

# Entries kept per process in each least-recently-used table, which keeps
# memory flat over long campaigns. A 300-seed theorem1_nested campaign at
# n=12, m=4 fills the nine tables (balls and rings here; recentred masses
# and least centres in dynamics; gap classes, winner-pair rows, pair counts
# and move records in decision; generated beliefs in scenario) to 826, 0,
# 3,931, 691, 826, 700, 2,380, 373 and 81 entries, so it misses no more
# often than with unbounded tables; 8 pignistic runs at n=1000, m=6 to 81,
# 0, 81, 3,772, 81, 612, 241, 30 and 0. A 1,200-seed campaign needs 3,269
# pair counts.
LRU_SIZE = 4096

L1_ADDREMOVE = "l1_addremove"
VOTER_SWAP = "voter_swap"
METRICS = (L1_ADDREMOVE, VOTER_SWAP)

NESTED = "nested"
PARTITIONED = "partitioned"


class ExpansionCapError(ValueError):
    """A focal element would expand past DEFAULT_CAP points."""


# The canonical "p/q" strings: ASCII digits with an optional minus sign and
# an optional denominator, which `int` reads to the value `Fraction` gives.
_CANONICAL_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


def _rational(value) -> Fraction:
    """An exact number as a Fraction: a Fraction as it is, an int, or a
    string that `Fraction` reads, the canonical "p/q" ones without its
    regex. Floats are refused, since their binary rounding can tip a
    criterion across zero; bools are refused as not numbers; strings with an
    exponent are refused, since `Fraction` expands one into a power of ten of
    any size."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise ValueError(f"{value!r} is not exact: give an int, a Fraction "
                         f"or a 'p/q' string")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"{value!r} has an exponent: give a 'p/q' string")
    try:
        canonical = _CANONICAL_RATIONAL(value) if type(value) is str else None
        if canonical is None:
            return Fraction(value)
        # Past its digit limit, `int` raises the error `Fraction` raises.
        num, den = canonical.groups("1")
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None


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
        """Points already sorted, distinct, nonnegative and of one length.

        Unchecked, since the check grows with the point count and every ball
        and ring of a run is built here: on a 41-point ball it costs about
        70 times the build."""
        focal = object.__new__(cls)
        object.__setattr__(focal, "points", tuple(points))
        return focal

    @classmethod
    def from_box(cls, intervals, total: int | None = None) -> "FocalElement":
        """The integer points of a box, filtered to an exact total if given."""
        box = tuple((lo, hi) for lo, hi in intervals)
        if not box:
            raise ValueError("box needs at least one interval")
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
        return cls._trusted(_lattice(box, total))

    def __hash__(self):
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash(self.points)
            object.__setattr__(self, "_hash", cached)
        return cached


def _lattice(box, total: int | None = None, center: Score | None = None,
             budget: int = 0) -> list[Score]:
    """The integer points of `box` in lexicographic order, only those summing
    to `total` if it is given, and only those within l1 distance `budget` of
    `center`, a point of the box, if that is given; the box is not empty.

    Each prefix carries the total and the budget b it leaves. A value's
    range keeps the prefix completable, so every layer is counted exactly,
    as the sum of its ranges' widths in integers, before it is built. With
    a total, the later candidates lie at least |f - v| from their centres,
    where f is the total left less their centres' sum; so a value v around
    centre c needs |f - v| + |v - c| <= b: v in [ceil((c+f-b)/2),
    floor((c+f+b)/2)].
    """
    what = "box" if center is None else "neighborhood"
    if center is None:
        # Every point of the box lies this close to its least corner.
        center = [lo for lo, _ in box]
        budget = sum(hi - lo for lo, hi in box)
    layer: list[tuple[Score, int, int]] = [((), total or 0, budget)]
    last = len(box) - 1
    for i, ((lo, hi), c) in enumerate(zip(box, center)):
        if total is None:
            ranges = [(max(lo, c - b), min(hi, c + b)) for _, _, b in layer]
        else:
            rest_lo = sum(a for a, _ in box[i + 1:])
            rest_hi = sum(z for _, z in box[i + 1:])
            k = c - sum(center[i + 1:])
            ranges = [(max(lo, left - rest_hi, (left + k - b + 1) // 2),
                       min(hi, left - rest_lo, (left + k + b) // 2))
                      for _, left, b in layer]
        if sum(z - a + 1 for a, z in ranges) > DEFAULT_CAP:
            raise ExpansionCapError(f"{what} expands past cap {DEFAULT_CAP}")
        if i == last:  # the points themselves, with nothing left to carry
            return [prefix + (v,)
                    for (prefix, _, _), (a, z) in zip(layer, ranges)
                    for v in range(a, z + 1)]
        layer = [(prefix + (v,), left - v, b - abs(v - c))
                 for (prefix, left, b), (a, z) in zip(layer, ranges)
                 for v in range(a, z + 1)]


@dataclass(frozen=True)
class MassFunction:
    """Positive rational weights on pairwise-distinct focal elements, summing to 1."""

    assignments: tuple[tuple[FocalElement, Fraction], ...]

    def __post_init__(self):
        if not self.assignments:
            raise ValueError("mass function needs at least one focal element")
        norm = tuple((focal, _rational(w)) for focal, w in self.assignments)
        object.__setattr__(self, "assignments", norm)
        if len({len(focal.points[0]) for focal, _ in norm}) != 1:
            raise ValueError("focal elements must hold scores of one length")
        # The weights as integers over their common denominator, checked and
        # aggregated in integers.
        den = math.lcm(*(w.denominator for _, w in norm))
        numerators = tuple(w.numerator * (den // w.denominator)
                           for _, w in norm)
        if any(n <= 0 for n in numerators):
            raise ValueError("every mass weight must be positive")
        if sum(numerators) != den:
            raise ValueError("mass weights must sum to exactly 1")
        if len({focal for focal, _ in norm}) != len(norm):
            raise ValueError("focal elements must be distinct after canonicalization")
        object.__setattr__(self, "_scaled", (den, numerators))


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

    def __hash__(self):
        # Equal beliefs have equal radii and weights. The hash is taken once
        # and kept, since every recentred-mass lookup hashes the belief.
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((self.radii, self.weights))
            object.__setattr__(self, "_hash", cached)
        return cached

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
    if metric == L1_ADDREMOVE:
        box = [(max(0, c - radius), c + radius) for c in center]
        return FocalElement._trusted(_lattice(box, None, center, radius))
    # A score is within `radius` reassignments exactly when it keeps the
    # centre's total, gives the leader no vote and lies within 2 * radius in
    # l1 distance: a reassignment moves a score by at most 2, and a score
    # that keeps the total is half its distance away, each reassignment
    # taking a vote from a candidate below its centre value to one above.
    leader = center.index(max(center))
    box = [(0, c if i == leader else c + radius) for i, c in enumerate(center)]
    return FocalElement._trusted(
        _lattice(box, sum(center), center, 2 * radius))


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
            scores.add(tally(picks, candidates_m))
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
    if type(n) is not int:
        raise ValueError("voter count must be an integer")
    if n < 1:
        raise ValueError("need at least one voter")
    support = []
    for s in _lattice(((0, n),) * len(q), n):
        prob = Fraction(math.factorial(n))
        for sx, qx in zip(s, q):
            prob *= qx ** sx / math.factorial(sx)
        if prob > 0:
            support.append((s, prob))
    return _bayesian(support)
