"""Candidates, preferences, ballots, scores, and the plurality winner.

Score vectors are plain tuples of nonnegative ints, one entry per candidate.
Candidates are indices everywhere; labels exist only at the I/O boundary.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
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


@dataclass(frozen=True)
class TieBreakOrder:
    """Permutation of candidate indices; earlier entries win ties."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if (any(type(c) is not int for c in self.order)
                or sorted(self.order) != list(range(len(self.order)))):
            raise ValueError("tie-break order must be a permutation of 0..m-1")

    @classmethod
    def default(cls, m: int) -> "TieBreakOrder":
        return cls(tuple(range(m)))


@dataclass(frozen=True)
class Preference:
    """A voter's strict linear order over candidate indices, best first.

    It also holds each candidate's position in the order as the private
    `_rank`; that is not a field, so equality, hashing and repr ignore it.
    """

    ranking: tuple[int, ...]

    def __post_init__(self):
        if (any(type(c) is not int for c in self.ranking)
                or sorted(self.ranking) != list(range(len(self.ranking)))):
            raise ValueError("ranking must be a permutation of 0..m-1")
        rank = [0] * len(self.ranking)
        for position, candidate in enumerate(self.ranking):
            rank[candidate] = position
        object.__setattr__(self, "_rank", tuple(rank))

    @property
    def top(self) -> int:
        return self.ranking[0]

    def rank_of(self, candidate: int) -> int:
        # Checked, since a negative index would read the table from its end
        # and True would read candidate 1's rank.
        if type(candidate) is not int or not 0 <= candidate < len(self._rank):
            raise ValueError(f"{candidate!r} is not a candidate index")
        return self._rank[candidate]


@dataclass(frozen=True)
class PartialPreference:
    """A strict partial order over candidates, as a set of (better, worse)
    pairs; any iterable of pairs is held as a frozenset."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "pairs",
                           frozenset((x, y) for x, y in self.pairs))
        if any(type(c) is not int for pair in self.pairs for c in pair):
            raise ValueError("partial preference candidates must be integers")
        # A pair whose better candidate no remaining pair beats lies on no
        # cycle, so peel such pairs off; pairs left when none peels hold one.
        pairs = self.pairs
        while pairs:
            beaten = {y for _, y in pairs}
            kept = {(x, y) for x, y in pairs if x in beaten}
            if len(kept) == len(pairs):
                raise ValueError("partial preference contains a cycle")
            pairs = kept


@dataclass(frozen=True)
class BallotProfile:
    """One ballot (candidate index) per voter."""

    ballots: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ballots", tuple(self.ballots))
        if any(type(b) is not int or b < 0 for b in self.ballots):
            raise ValueError("ballots must be candidate indices")

    @property
    def n(self) -> int:
        return len(self.ballots)


def validate_score(score: Score) -> Score:
    if not score:
        raise ValueError("score needs at least one entry")
    if any(type(x) is not int or x < 0 for x in score):
        raise ValueError("score entries must be nonnegative integers")
    return score


def tally(ballots: Sequence[int], m: int) -> Score:
    """Votes per candidate 0..m-1; a ballot that is not an int in 0..m-1 is
    a ValueError."""
    counts = [0] * m
    for b in ballots:
        if type(b) is not int or not 0 <= b < m:
            raise ValueError(f"ballot index {b} out of range")
        counts[b] += 1
    return tuple(counts)


def plurality_winner(score: Score, tie: TieBreakOrder) -> int:
    """The candidate with the most votes; ties go to the earliest in `tie`."""
    if not score:
        raise ValueError("empty score vector")
    if len(tie.order) != len(score):
        raise ValueError("score and tie-break order differ in candidates")
    best = max(score)
    for c in tie.order:
        if score[c] == best:
            return c


def apply_move(score: Score, frm: int, to: int) -> Score:
    """Shift one vote from `frm` to `to`.

    The decrement clamps at 0: neighborhood states may be inconsistent with the
    mover's own ballot, and the move must stay total over them.
    """
    m = len(score)
    if not (type(frm) is int and type(to) is int and 0 <= frm < m
            and 0 <= to < m):
        raise ValueError("candidate index out of range")
    if frm == to:
        return score
    counts = list(score)
    if counts[frm] > 0:
        counts[frm] -= 1
    counts[to] += 1
    return tuple(counts)


def _check_candidates(partial: PartialPreference, m: int) -> None:
    if any(not 0 <= c < m for pair in partial.pairs for c in pair):
        raise ValueError(f"partial preference names a candidate outside "
                         f"0..{m - 1}")


def linear_extensions(partial: PartialPreference, m: int) -> set[Preference]:
    """All strict linear orders of candidates 0..m-1 consistent with the
    partial order."""
    _check_candidates(partial, m)
    out = set()
    for perm in itertools.permutations(range(m)):
        pos = {c: i for i, c in enumerate(perm)}
        if all(pos[x] < pos[y] for x, y in partial.pairs):
            out.add(Preference(perm))
    return out


def possible_tops(partial: PartialPreference, m: int) -> set[int]:
    """The maximal elements of the partial order: every candidate no one beats."""
    _check_candidates(partial, m)
    dominated = {y for _, y in partial.pairs}
    return set(range(m)) - dominated
