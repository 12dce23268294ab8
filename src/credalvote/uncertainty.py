"""Belief functions over score vectors.

A mass function assigns positive rational weights, summing to one, to focal
elements (sets of score vectors). Focal elements are given either explicitly
or as per-candidate integer boxes with an optional exact-total constraint.
All arithmetic is exact (fractions.Fraction); every expansion of a focal
element into points is guarded by a hard cardinality cap.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .election import Score, validate_score

DEFAULT_CAP = 100_000

L1_ADDREMOVE = "l1_addremove"
VOTER_SWAP = "voter_swap"
METRICS = (L1_ADDREMOVE, VOTER_SWAP)

NESTED = "nested"
PARTITIONED = "partitioned"


class ExpansionCapError(ValueError):
    """A focal element would expand past the configured cardinality cap."""


@dataclass(frozen=True, eq=False)
class FocalElement:
    """A set of score vectors, explicit or box-shaped.

    Equality and hashing are canonical: two focal elements are equal when they
    expand to the same point set, whatever their representation.
    """

    points: tuple[Score, ...] | None = None
    box: tuple[tuple[int, int], ...] | None = None
    total: int | None = None

    def __post_init__(self):
        if (self.points is None) == (self.box is None):
            raise ValueError("focal element needs exactly one of points or box")
        if self.points is not None:
            if not self.points:
                raise ValueError("explicit focal element is empty")
            for p in self.points:
                validate_score(p)
            if len({len(p) for p in self.points}) != 1:
                raise ValueError("focal points must share one length")
            object.__setattr__(self, "points", tuple(sorted(set(self.points))))
            if self.total is not None:
                raise ValueError("total applies to box focal elements only")
        else:
            for lo, hi in self.box:
                if not (0 <= lo <= hi):
                    raise ValueError("box intervals need 0 <= lo <= hi")
            if self.total is not None:
                los = sum(lo for lo, _ in self.box)
                his = sum(hi for _, hi in self.box)
                if not los <= self.total <= his:
                    raise ValueError("box with total constraint is empty")

    @classmethod
    def from_points(cls, points: Iterable[Score]) -> "FocalElement":
        return cls(points=tuple(tuple(p) for p in points))

    @classmethod
    def from_box(cls, intervals, total: int | None = None) -> "FocalElement":
        return cls(box=tuple((int(lo), int(hi)) for lo, hi in intervals), total=total)

    def expand(self, cap: int = DEFAULT_CAP) -> tuple[Score, ...]:
        """All points of the focal element, sorted. Errors past `cap` points."""
        cached = getattr(self, "_expanded", None)
        if cached is None:
            if self.points is not None:
                cached = self.points
            else:
                cached = tuple(sorted(_box_points(self.box, self.total, cap)))
                if not cached:
                    raise ValueError("box focal element is empty")
            object.__setattr__(self, "_expanded", cached)
        if len(cached) > cap:
            raise ExpansionCapError(
                f"focal element has {len(cached)} points, cap is {cap}")
        return cached

    def __eq__(self, other):
        if not isinstance(other, FocalElement):
            return NotImplemented
        if self.points is not None and other.points is not None:
            return self.points == other.points
        if self.box is not None and self.box == other.box and self.total == other.total:
            return True
        return self.expand() == other.expand()

    def __hash__(self):
        cached = getattr(self, "_hash", None)
        if cached is None:
            # An expansion a caller already made under a larger cap counts.
            points = getattr(self, "_expanded", None) or self.expand()
            cached = hash(points)
            object.__setattr__(self, "_hash", cached)
        return cached


def _box_points(box, total, cap) -> list[Score]:
    """Integer points of the box, filtered to the exact total when given."""
    if total is None:
        size = 1
        for lo, hi in box:
            size *= hi - lo + 1
            if size > cap:
                raise ExpansionCapError(f"box expands past cap {cap}")
        return [tuple(p) for p in itertools.product(
            *[range(lo, hi + 1) for lo, hi in box])]
    out: list[Score] = []
    suffix_lo = [0] * (len(box) + 1)
    suffix_hi = [0] * (len(box) + 1)
    for i in range(len(box) - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + box[i][0]
        suffix_hi[i] = suffix_hi[i + 1] + box[i][1]

    def rec(i: int, remaining: int, prefix: list[int]):
        if i == len(box):
            out.append(tuple(prefix))
            if len(out) > cap:
                raise ExpansionCapError(f"box expands past cap {cap}")
            return
        lo, hi = box[i]
        for v in range(max(lo, remaining - suffix_hi[i + 1]),
                       min(hi, remaining - suffix_lo[i + 1]) + 1):
            prefix.append(v)
            rec(i + 1, remaining - v, prefix)
            prefix.pop()

    rec(0, total, [])
    return out


@dataclass(frozen=True)
class MassFunction:
    """Positive rational weights on pairwise-distinct focal elements, summing to 1."""

    assignments: tuple[tuple[FocalElement, Fraction], ...]

    def __post_init__(self):
        if not self.assignments:
            raise ValueError("mass function needs at least one focal element")
        norm = tuple((focal, Fraction(w)) for focal, w in self.assignments)
        object.__setattr__(self, "assignments", norm)
        if any(w <= 0 for _, w in norm):
            raise ValueError("every mass weight must be positive")
        if sum(w for _, w in norm) != 1:
            raise ValueError("mass weights must sum to exactly 1")
        for (f1, _), (f2, _) in itertools.combinations(norm, 2):
            if f1 == f2:
                raise ValueError("focal elements must be distinct after canonicalization")

    def support(self, cap: int = DEFAULT_CAP) -> tuple[Score, ...]:
        """Union of all focal expansions, sorted."""
        points: set[Score] = set()
        for focal, _ in self.assignments:
            points.update(focal.expand(cap))
        return tuple(sorted(points))


@dataclass(frozen=True)
class ScoreDistribution:
    """An exact probability distribution over score vectors."""

    support: tuple[tuple[Score, Fraction], ...]

    def __post_init__(self):
        norm = tuple(sorted((tuple(s), Fraction(p)) for s, p in self.support))
        object.__setattr__(self, "support", norm)
        if any(p <= 0 for _, p in norm):
            raise ValueError("probabilities must be positive")
        if sum(p for _, p in norm) != 1:
            raise ValueError("probabilities must sum to exactly 1")
        if len({s for s, _ in norm}) != len(norm):
            raise ValueError("duplicate score in distribution support")

    def probability(self, score: Score) -> Fraction:
        for s, p in self.support:
            if s == score:
                return p
        return Fraction(0)

    def expectation(self, u) -> Fraction:
        fn = _as_function(u)
        return sum((p * Fraction(fn(s)) for s, p in self.support), Fraction(0))


@dataclass(frozen=True)
class NeighborhoodSpec:
    metric: str
    radius: int

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")


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
        if not self.radii:
            raise ValueError("layered belief needs at least one radius")
        if any(r < 0 for r in self.radii):
            raise ValueError("radii must be nonnegative")
        if list(self.radii) != sorted(set(self.radii)):
            raise ValueError("radii must be strictly increasing")
        weights = tuple(Fraction(w) for w in self.weights)
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


def lower_probability(mass: MassFunction, event: Iterable[Score],
                      cap: int = DEFAULT_CAP) -> Fraction:
    """Total weight of focal elements entirely inside the event."""
    ev = {tuple(s) for s in event}
    total = Fraction(0)
    for focal, w in mass.assignments:
        if all(p in ev for p in focal.expand(cap)):
            total += w
    return total


def upper_probability(mass: MassFunction, event: Iterable[Score],
                      cap: int = DEFAULT_CAP) -> Fraction:
    """Total weight of focal elements touching the event."""
    ev = {tuple(s) for s in event}
    total = Fraction(0)
    for focal, w in mass.assignments:
        if any(p in ev for p in focal.expand(cap)):
            total += w
    return total


def _as_function(u) -> Callable[[Score], Fraction]:
    if callable(u):
        return u
    if isinstance(u, Mapping):
        return u.__getitem__
    raise TypeError("utility must be a callable or a mapping over score vectors")


def lower_expectation(mass: MassFunction, u, cap: int = DEFAULT_CAP) -> Fraction:
    """Weighted sum of each focal element's worst utility."""
    fn = _as_function(u)
    return sum((w * Fraction(min(fn(p) for p in focal.expand(cap)))
                for focal, w in mass.assignments), Fraction(0))


def upper_expectation(mass: MassFunction, u, cap: int = DEFAULT_CAP) -> Fraction:
    """Weighted sum of each focal element's best utility."""
    fn = _as_function(u)
    return sum((w * Fraction(max(fn(p) for p in focal.expand(cap)))
                for focal, w in mass.assignments), Fraction(0))


def pignistic(mass: MassFunction, cap: int = DEFAULT_CAP) -> ScoreDistribution:
    """Spread each focal element's weight uniformly over its points."""
    acc: dict[Score, Fraction] = {}
    for focal, w in mass.assignments:
        points = focal.expand(cap)
        share = w / len(points)
        for p in points:
            acc[p] = acc.get(p, Fraction(0)) + share
    return ScoreDistribution(tuple(acc.items()))


def neighborhood(center: Score, spec: NeighborhoodSpec,
                 cap: int = DEFAULT_CAP) -> FocalElement:
    """The set of score vectors within `spec.radius` of `center`.

    l1_addremove: all nonnegative integer vectors within l1 distance r; the
    vote total may drift by up to r (votes appear or vanish, as with late
    deciders or abstainers).

    voter_swap: vectors reachable by at most r single-vote reassignments, the
    vote total is preserved; a reassignment never moves a vote onto the
    center's current plurality winner (ties by candidate index), so the
    neighborhood models challengers gaining, never the leader consolidating.
    """
    center = validate_score(tuple(center))
    if spec.metric == L1_ADDREMOVE:
        points = _l1_ball(center, spec.radius, cap)
    else:
        points = _swap_ball(center, spec.radius, cap)
    return FocalElement.from_points(points)


def _l1_ball(center: Score, radius: int, cap: int) -> list[Score]:
    out: list[Score] = []

    def rec(i: int, budget: int, prefix: list[int]):
        if i == len(center):
            out.append(tuple(prefix))
            if len(out) > cap:
                raise ExpansionCapError(f"neighborhood expands past cap {cap}")
            return
        for delta in range(-min(center[i], budget), budget + 1):
            prefix.append(center[i] + delta)
            rec(i + 1, budget - abs(delta), prefix)
            prefix.pop()

    rec(0, radius, [])
    return out


def _swap_ball(center: Score, radius: int, cap: int) -> list[Score]:
    m = len(center)
    best = max(center)
    leader = min(c for c in range(m) if center[c] == best)
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for s in frontier:
            for src in range(m):
                if s[src] == 0:
                    continue
                for dst in range(m):
                    if dst == src or dst == leader:
                        continue
                    moved = list(s)
                    moved[src] -= 1
                    moved[dst] += 1
                    t = tuple(moved)
                    if t not in seen:
                        seen.add(t)
                        if len(seen) > cap:
                            raise ExpansionCapError(
                                f"neighborhood expands past cap {cap}")
                        nxt.append(t)
        frontier = nxt
    return sorted(seen)


def layered_to_mass(belief: LayeredBelief, center: Score,
                    cap: int = DEFAULT_CAP) -> MassFunction:
    """Materialize a layered belief around `center` as focal elements with the
    layer weights."""
    balls = [neighborhood(center, NeighborhoodSpec(belief.metric, r), cap)
             for r in belief.radii]
    if belief.kind == NESTED:
        focals = balls
    else:
        focals = [balls[0]]
        for prev, ball, r_prev, r in zip(balls, balls[1:],
                                         belief.radii, belief.radii[1:]):
            ring = sorted(set(ball.expand(cap)) - set(prev.expand(cap)))
            if not ring:
                raise ValueError(
                    f"partitioned ring between radii {r_prev} and {r} is empty")
            focals.append(FocalElement.from_points(ring))
    return MassFunction(tuple(zip(focals, belief.weights)))


def classify(mass: MassFunction, universe: Iterable[Score] | None = None,
             cap: int = DEFAULT_CAP) -> str:
    """Structural category of a mass function.

    bayesian: every focal element is a singleton. vacuous: a single focal
    element covering the declared universe (only detectable when `universe`
    is given). necessity: focal elements totally ordered by inclusion.
    inner: focal elements pairwise disjoint. Otherwise general.
    """
    expansions = [set(focal.expand(cap)) for focal, _ in mass.assignments]
    if all(len(e) == 1 for e in expansions):
        return "bayesian"
    if universe is not None and len(expansions) == 1 \
            and expansions[0] == {tuple(s) for s in universe}:
        return "vacuous"
    if all(a <= b or b <= a for a, b in itertools.combinations(expansions, 2)):
        return "necessity"
    if all(not (a & b) for a, b in itertools.combinations(expansions, 2)):
        return "inner"
    return "general"


def product_mass(ballot_masses: Sequence[Sequence[tuple[Iterable[int], Fraction]]],
                 candidates_m: int, cap: int = DEFAULT_CAP) -> MassFunction:
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
            subset = tuple(sorted(set(int(c) for c in subset)))
            if not subset:
                raise ValueError(f"voter {i} has an empty ballot set")
            if any(not 0 <= c < candidates_m for c in subset):
                raise ValueError(f"voter {i} ballot set out of range")
            w = Fraction(w)
            if w <= 0:
                raise ValueError(f"voter {i} has a nonpositive ballot weight")
            cleaned.append((subset, w))
        if sum(w for _, w in cleaned) != 1:
            raise ValueError(f"voter {i} ballot weights must sum to 1")
        per_voter.append(cleaned)

    tuples = 1
    for assignments in per_voter:
        tuples *= len(assignments)
        if tuples > cap:
            raise ExpansionCapError(f"focal tuple count exceeds cap {cap}")

    merged: dict[tuple[Score, ...], Fraction] = {}
    for combo in itertools.product(*per_voter):
        weight = math.prod((w for _, w in combo), start=Fraction(1))
        choices = 1
        for subset, _ in combo:
            choices *= len(subset)
            if choices > cap:
                raise ExpansionCapError(f"score enumeration exceeds cap {cap}")
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


def multinomial_distribution(q: Sequence[Fraction], n: int,
                             cap: int = DEFAULT_CAP) -> ScoreDistribution:
    """Exact multinomial distribution over all score vectors summing to n."""
    q = [Fraction(x) for x in q]
    if not q:
        raise ValueError("need at least one weight")
    if any(x < 0 for x in q):
        raise ValueError("weights must be nonnegative")
    if sum(q) != 1:
        raise ValueError("weights must sum to exactly 1")
    if n < 1:
        raise ValueError("need at least one voter")
    m = len(q)
    if math.comb(n + m - 1, m - 1) > cap:
        raise ExpansionCapError(f"composition count exceeds cap {cap}")
    support = []
    for combo in itertools.combinations(range(n + m - 1), m - 1):
        cuts = (-1,) + combo + (n + m - 1,)
        s = tuple(cuts[i + 1] - cuts[i] - 1 for i in range(m))
        prob = Fraction(math.factorial(n))
        for sx, qx in zip(s, q):
            prob *= qx ** sx / math.factorial(sx)
        if prob > 0:
            support.append((s, prob))
    return ScoreDistribution(tuple(support))
