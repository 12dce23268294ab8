"""Candidates, preferences, ballots, scores, and the plurality winner.

Score vectors are plain tuples of nonnegative ints, one entry per candidate.
Candidates are indices everywhere; labels exist only at the I/O boundary.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Score = tuple[int, ...]


@dataclass(frozen=True)
class CandidateSet:
    """The ordered set of candidate labels; index order is the default tie-break."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) <= 2:
            raise ValueError("need more than two candidates")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("candidate labels must be unique")

    @property
    def m(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class TieBreakOrder:
    """Permutation of candidate indices; earlier entries win ties."""

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("tie-break order must be a permutation of 0..m-1")

    @classmethod
    def default(cls, m: int) -> "TieBreakOrder":
        return cls(tuple(range(m)))


@dataclass(frozen=True)
class Preference:
    """A voter's strict linear order over candidate indices, best first."""

    ranking: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.ranking) != list(range(len(self.ranking))):
            raise ValueError("ranking must be a permutation of 0..m-1")

    @property
    def top(self) -> int:
        return self.ranking[0]

    def rank_of(self, candidate: int) -> int:
        return self.ranking.index(candidate)

    def prefers(self, x: int, y: int) -> bool:
        return self.ranking.index(x) < self.ranking.index(y)


@dataclass(frozen=True)
class PartialPreference:
    """A strict partial order over candidates, as a set of (better, worse) pairs."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        closure = transitive_closure(self.pairs)
        if any((x, x) in closure for x, _ in closure):
            raise ValueError("partial preference contains a cycle")
        object.__setattr__(self, "_closure", closure)

    @classmethod
    def from_pairs(cls, pairs) -> "PartialPreference":
        return cls(frozenset((int(x), int(y)) for x, y in pairs))

    def requires(self, x: int, y: int) -> bool:
        """True when x must precede y in every completion."""
        return (x, y) in self._closure


@dataclass(frozen=True)
class BallotProfile:
    """One ballot (candidate index) per voter."""

    ballots: tuple[int, ...]

    def __post_init__(self):
        if any(b < 0 for b in self.ballots):
            raise ValueError("ballots must be candidate indices")

    @property
    def n(self) -> int:
        return len(self.ballots)

    def with_ballot(self, voter: int, candidate: int) -> "BallotProfile":
        ballots = list(self.ballots)
        ballots[voter] = candidate
        return BallotProfile(tuple(ballots))


def transitive_closure(pairs) -> frozenset[tuple[int, int]]:
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(closure), repeat=2):
            if b == c and (a, d) not in closure:
                closure.add((a, d))
                changed = True
    return frozenset(closure)


def validate_score(score: Score, m: int | None = None) -> Score:
    if m is not None and len(score) != m:
        raise ValueError(f"score vector must have length {m}")
    if any(not isinstance(x, int) or x < 0 for x in score):
        raise ValueError("score entries must be nonnegative integers")
    return score


def tally(ballots: Sequence[int], m: int) -> Score:
    """Votes per candidate 0..m-1 from nonnegative ballots; a ballot of m or
    more is a ValueError."""
    counts = [0] * m
    try:
        for b in ballots:
            counts[b] += 1
    except IndexError:
        raise ValueError(f"ballot index {b} out of range") from None
    return tuple(counts)


def plurality_winner(score: Score, tie: TieBreakOrder) -> int:
    """The candidate with the most votes; ties go to the earliest in `tie`."""
    if not score:
        raise ValueError("empty score vector")
    best = max(score)
    for c in tie.order:
        if score[c] == best:
            return c
    raise ValueError("tie-break order does not cover all candidates")


def apply_move(score: Score, frm: int, to: int) -> Score:
    """Shift one vote from `frm` to `to`.

    The decrement clamps at 0: neighborhood states may be inconsistent with the
    mover's own ballot, and the move must stay total over them.
    """
    m = len(score)
    if not (0 <= frm < m and 0 <= to < m):
        raise ValueError("candidate index out of range")
    if frm == to:
        return score
    counts = list(score)
    if counts[frm] > 0:
        counts[frm] -= 1
    counts[to] += 1
    return tuple(counts)


def rank_utility(pref: Preference) -> dict[int, Fraction]:
    """Order-preserving cardinal utility: best candidate gets m-1, worst gets 0."""
    m = len(pref.ranking)
    return {c: Fraction(m - 1 - r) for r, c in enumerate(pref.ranking)}


def linear_extensions(partial: PartialPreference, candidates: CandidateSet) -> set[Preference]:
    """All strict linear orders consistent with the partial order."""
    m = candidates.m
    out = set()
    for perm in itertools.permutations(range(m)):
        pos = {c: i for i, c in enumerate(perm)}
        if all(pos[x] < pos[y] for x, y in partial.pairs):
            out.add(Preference(perm))
    return out


def possible_tops(partial: PartialPreference, m: int) -> set[int]:
    """The maximal elements of the partial order: every candidate no one beats."""
    dominated = {y for _, y in partial.pairs}
    return set(range(m)) - dominated
