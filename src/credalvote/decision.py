"""Single-move strategic evaluation under belief-function uncertainty.

A move is a voter shifting their ballot from one candidate to another. Its
utility in a score state compares the winner after the shift to the winner
before it; a decision rule then aggregates utilities over the voter's belief
into one verdict: strictly preferred, weakly preferred, or not preferred.
Only strict preference ever justifies acting; exact rational arithmetic keeps
the zero threshold unambiguous.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .election import (
    PartialPreference,
    Preference,
    Score,
    TieBreakOrder,
    apply_move,
    plurality_winner,
    possible_tops,
)
from .uncertainty import (
    LRU_SIZE, FocalElement, MassFunction, _rational, product_mass)

MEIR_SIGN = "meir_sign"
DIRECT_BEST_RESPONSE = "direct_best_response"
CARDINAL_RANK = "cardinal_rank"
UTILITY_MODELS = (MEIR_SIGN, DIRECT_BEST_RESPONSE, CARDINAL_RANK)

PESSIMISTIC = "pessimistic"
PIGNISTIC = "pignistic"
MIXTURE = "mixture"
HURWICZ = "hurwicz"
RULE_KINDS = (PESSIMISTIC, PIGNISTIC, MIXTURE, HURWICZ)

STRICTLY_PREFERRED = "strictly_preferred"
WEAKLY_PREFERRED = "weakly_preferred"
NOT_PREFERRED = "not_preferred"


@dataclass(frozen=True)
class DecisionRule:
    """One of the four criteria; mixture and hurwicz carry an exact alpha.

    The scalar criterion value is the lower expectation for pessimistic (its
    maximin value), the pignistic expectation for pignistic, and the alpha
    blends for mixture (lower with pignistic) and hurwicz (lower with upper).
    """

    kind: str
    alpha: Fraction | None = None

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown decision rule {self.kind!r}")
        needs_alpha = self.kind in (MIXTURE, HURWICZ)
        if needs_alpha:
            if self.alpha is None:
                raise ValueError(f"{self.kind} needs an alpha")
            alpha = _rational(self.alpha)
            if not 0 <= alpha <= 1:
                raise ValueError("alpha must lie in [0, 1]")
            object.__setattr__(self, "alpha", alpha)
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} takes no alpha")


@dataclass(frozen=True)
class MoveEvaluation:
    """Diagnostic record of one evaluated move."""

    lower: Fraction
    upper: Fraction
    pignistic_value: Fraction | None
    criterion_value: Fraction
    verdict: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower expectation exceeds upper expectation")


# A move takes at most one vote from a candidate and gives one to another,
# so a candidate this far behind the top loses before and after it, while
# one a vote closer can tie the top after it and win on the tie order.
_CLIP = 3


@lru_cache(maxsize=LRU_SIZE)
def _classes(focal: FocalElement) -> tuple[tuple[Score, int], ...]:
    """One (clipped gaps, size) per class of the focal element's points with
    equal gaps to the top, clipped at _CLIP.

    Every move turns the points of one class into one winner pair, whatever
    focal element they lie in: the winner before is the first candidate in
    tie order at gap 0, and the one after depends only on the gaps below
    _CLIP. The clamp in `apply_move` never changes it: a candidate with no
    votes that does not lead cannot win either way, and one that leads is at
    the all-zero point, where the destination wins either way.
    """
    # Column by column, and counted by one Counter over the rows: no tuple
    # or dict update of its own per point.
    points = focal.points
    tops = list(map(max, points))
    columns = [[top - x if top - x < _CLIP else _CLIP
                for top, x in zip(tops, column)]
               for column in zip(*points)]
    return tuple(Counter(zip(*columns)).items())


@lru_cache(maxsize=LRU_SIZE)
def _move_pairs(order: tuple[int, ...], frm: int, gaps: Score
                ) -> tuple[tuple[int, int], ...]:
    """The (winner-before, winner-after) pair of a move from `frm` to each
    candidate, `frm` included, at every point with these clipped gaps under
    the tie order `order`. Read at the point with these gaps whose top is
    _CLIP, which gives every such point's pair (see `_classes`)."""
    tie = TieBreakOrder(order)
    s = tuple([_CLIP - g for g in gaps])
    before = plurality_winner(s, tie)
    return tuple([
        (before, before if to == frm
         else plurality_winner(apply_move(s, frm, to), tie))
        for to in range(len(gaps))])


@lru_cache(maxsize=LRU_SIZE)
def _pair_counts(focal: FocalElement, frm: int, order: tuple[int, ...]
                 ) -> dict[int, dict[tuple[int, int], int]]:
    """Counts of (winner-before, winner-after) pairs over the focal element
    under the tie order `order`, for each live destination of a move from
    `frm`: one to which some point changes its winner. A destination left
    out, `frm` included, is worth 0 under every utility model. One miss
    serves every voter, and one row per class of gaps every focal element.
    """
    rows = [(_move_pairs(order, frm, gaps), n) for gaps, n in _classes(focal)]
    live = {}
    for to in range(len(order)):
        counts = {}
        for row, n in rows:
            pair = row[to]
            counts[pair] = counts.get(pair, 0) + n
        if any(before != after for before, after in counts):
            live[to] = counts
    return live


def _focal_stats(focal: FocalElement, model: str, rank: Sequence[int],
                 frm: int, to: int,
                 tie: TieBreakOrder) -> tuple[int, int, int, int]:
    """(min, max, sum, count) of the move utility over one focal element,
    for a voter whose candidate c sits at position rank[c] of their order.

    A move to `to` that turns winner `before` into `after` is worth, by
    model: meir_sign: +1/0/-1 as the new winner is better, unchanged, or
    worse for the voter, the sign of rank[before] - rank[after].
    direct_best_response: the same, except that an improvement counts only
    when the new winner is the destination itself; other improvements count
    0. cardinal_rank: rank[before] - rank[after] itself.
    """
    counts = _pair_counts(focal, frm, tie.order).get(to)
    if counts is None:
        return 0, 0, 0, len(focal.points)
    # Every value lies within m - 1 of zero.
    lo, hi, total, n = len(rank), -len(rank), 0, 0
    for (before, after), count in counts.items():
        v = rank[before] - rank[after]
        if model == MEIR_SIGN:
            v = (v > 0) - (v < 0)
        elif model == DIRECT_BEST_RESPONSE:
            v = -1 if v < 0 else 1 if v > 0 and after == to else 0
        if v < lo:
            lo = v
        if v > hi:
            hi = v
        total += v * count
        n += count
    return lo, hi, total, n


@lru_cache(maxsize=LRU_SIZE)
def _record(verdict: str, lower: int, upper: int, den: int, pig: int | None,
            pig_den: int, num: int, num_den: int) -> MoveEvaluation:
    """The checked record of lower / den, upper / den, pignistic value
    pig / (den * pig_den) (None when pig is None) and criterion value
    num / num_den. Runs evaluate moves to few distinct values, so equal
    parts share one record."""
    return MoveEvaluation(
        Fraction(lower, den), Fraction(upper, den),
        None if pig is None else Fraction(pig, den * pig_den),
        Fraction(num, num_den), verdict)


def evaluate_move(mass: MassFunction, rule: DecisionRule, model: str,
                  voter_pref: Preference, frm: int, to: int,
                  tie: TieBreakOrder) -> MoveEvaluation:
    """Aggregate the move's utility over the belief and apply the rule.

    Sums run in integers over the weights' common denominator, and the
    verdict is read from their signs; equal sums share one checked record.
    `frm` and `to` are checked before any lookup, since the tables take
    True and 1.0 for 1.
    """
    if model not in UTILITY_MODELS:
        raise ValueError(f"unknown utility model {model!r}")
    rank = voter_pref._rank
    m = len(rank)
    # A mass of another size is refused by plurality_winner in _move_pairs.
    if m != len(tie.order):
        raise ValueError("preference and tie-break order differ in candidates")
    if not (type(frm) is int and type(to) is int and 0 <= frm < m
            and 0 <= to < m):
        raise ValueError("candidate index out of range")
    den, numerators = mass._scaled
    lower = upper = 0
    # The pignistic sum is pig / (den * pig_den).
    pig, pig_den = 0, 1
    want_pig = rule.kind in (PIGNISTIC, MIXTURE)
    for (focal, _), w in zip(mass.assignments, numerators):
        lo, hi, total, n = _focal_stats(focal, model, rank, frm, to, tie)
        lower += w * lo
        upper += w * hi
        if want_pig:
            pig = pig * n + w * total * pig_den
            pig_den *= n

    if rule.kind == PESSIMISTIC:
        num, num_den = lower, den
        verdict = (NOT_PREFERRED if lower < 0 else
                   STRICTLY_PREFERRED if upper > 0 else WEAKLY_PREFERRED)
    else:
        if rule.kind == PIGNISTIC:
            num, num_den = pig, den * pig_den
        else:
            a, b = rule.alpha.numerator, rule.alpha.denominator
            if rule.kind == MIXTURE:
                num = a * lower * pig_den + (b - a) * pig
                num_den = b * den * pig_den
            else:
                num = a * lower + (b - a) * upper
                num_den = b * den
        verdict = (STRICTLY_PREFERRED if num > 0 else
                   WEAKLY_PREFERRED if num == 0 else NOT_PREFERRED)
    return _record(verdict, lower, upper, den, pig if want_pig else None,
                   pig_den, num, num_den)


def dominating_manipulation(voter_pref: Preference,
                            others: Sequence[PartialPreference], frm: int,
                            to: int, tie: TieBreakOrder) -> bool:
    """True when the move never hurts and sometimes helps, over all completions.

    Each other voter votes for the top of their completed order, which ranges
    exactly over the maximal elements of their partial order. The product
    mass of those certain ballot sets, with the voter's own ballot, has one
    focal element: the score set of every completion. The pessimistic rule
    with the sign utility is strict exactly when no state yields -1 and some
    state yields +1.
    """
    m = len(voter_pref.ranking)
    mass = product_mass([[((frm,), 1)]]
                        + [[(possible_tops(p, m), 1)] for p in others], m)
    outcome = evaluate_move(mass, DecisionRule(PESSIMISTIC), MEIR_SIGN,
                            voter_pref, frm, to, tie)
    return outcome.verdict == STRICTLY_PREFERRED
