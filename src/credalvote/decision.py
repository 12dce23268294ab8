"""Single-move strategic evaluation under belief-function uncertainty.

A move is a voter shifting their ballot from one candidate to another. Its
utility in a score state compares the winner after the shift to the winner
before it; a decision rule then aggregates utilities over the voter's belief
into one verdict: strictly preferred, weakly preferred, or not preferred.
Only strict preference ever justifies acting; exact rational arithmetic keeps
the zero threshold unambiguous.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .election import (
    PartialPreference,
    Preference,
    Score,
    TieBreakOrder,
    apply_move,
    plurality_winner,
    possible_tops,
    rank_utility,
)
from .uncertainty import DEFAULT_CAP, ExpansionCapError, FocalElement, MassFunction

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
            alpha = Fraction(self.alpha)
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


_WINNERS: dict[tuple[int, ...], dict[Score, int]] = {}
_PAIR_COUNTS: dict[tuple, dict[tuple[int, int], int]] = {}


def _winner(score: Score, tie: TieBreakOrder) -> int:
    table = _WINNERS.setdefault(tie.order, {})
    w = table.get(score)
    if w is None:
        w = plurality_winner(score, tie)
        table[score] = w
    return w


def _pair_counts(focal: FocalElement, frm: int, to: int, tie: TieBreakOrder,
                 cap: int) -> dict[tuple[int, int], int]:
    """Counts of (winner-before, winner-after) pairs over the focal element.

    Voter-independent, so one pass per focal element serves every voter;
    keyed on the focal element's point set, so campaigns share the work
    across voters, steps, and runs.
    """
    points = focal.expand(cap)
    key = (tie.order, frm, to, focal)
    counts = _PAIR_COUNTS.get(key)
    if counts is None:
        counts = {}
        for s in points:
            pair = (_winner(s, tie), _winner(apply_move(s, frm, to), tie))
            counts[pair] = counts.get(pair, 0) + 1
        _PAIR_COUNTS[key] = counts
    return counts


def _pair_value(model: str, pref: Preference, to: int,
                pair: tuple[int, int]) -> Fraction | int:
    """Utility of a move to `to` that turns winner `before` into `after`.

    meir_sign: +1/0/-1 as the new winner is better, unchanged, or worse for
    the voter. direct_best_response: +1 only when the improved winner is the
    destination itself; other improvements count 0. cardinal_rank: the rank
    utility gap between new and old winners.
    """
    before, after = pair
    if model == CARDINAL_RANK:
        u = rank_utility(pref)
        return u[after] - u[before]
    if after == before:
        return 0
    if pref.prefers(after, before):
        if model == DIRECT_BEST_RESPONSE and after != to:
            return 0
        return 1
    return -1


def _focal_stats(focal: FocalElement, model: str, pref: Preference, frm: int,
                 to: int, tie: TieBreakOrder, cap: int):
    """(min, max, sum, count) of the move utility over one focal element."""
    counts = _pair_counts(focal, frm, to, tie, cap)
    lo = hi = None
    total = Fraction(0)
    n = 0
    for pair, c in counts.items():
        v = _pair_value(model, pref, to, pair)
        if lo is None or v < lo:
            lo = v
        if hi is None or v > hi:
            hi = v
        total += v * c
        n += c
    return lo, hi, total, n


def evaluate_move(mass: MassFunction, rule: DecisionRule, model: str,
                  voter_pref: Preference, frm: int, to: int,
                  tie: TieBreakOrder, cap: int = DEFAULT_CAP) -> MoveEvaluation:
    """Aggregate the move's utility over the belief and apply the rule."""
    if model not in UTILITY_MODELS:
        raise ValueError(f"unknown utility model {model!r}")
    lower = Fraction(0)
    upper = Fraction(0)
    pig = Fraction(0)
    want_pig = rule.kind in (PIGNISTIC, MIXTURE)
    for focal, w in mass.assignments:
        lo, hi, total, n = _focal_stats(focal, model, voter_pref, frm, to, tie, cap)
        lower += w * lo
        upper += w * hi
        if want_pig:
            pig += w * total / n

    if rule.kind == PESSIMISTIC:
        value = lower
        if lower < 0:
            verdict = NOT_PREFERRED
        elif upper > 0:
            verdict = STRICTLY_PREFERRED
        else:
            verdict = WEAKLY_PREFERRED
    else:
        if rule.kind == PIGNISTIC:
            value = pig
        elif rule.kind == MIXTURE:
            value = rule.alpha * lower + (1 - rule.alpha) * pig
        else:
            value = rule.alpha * lower + (1 - rule.alpha) * upper
        if value > 0:
            verdict = STRICTLY_PREFERRED
        elif value == 0:
            verdict = WEAKLY_PREFERRED
        else:
            verdict = NOT_PREFERRED
    return MoveEvaluation(lower=lower, upper=upper,
                          pignistic_value=pig if want_pig else None,
                          criterion_value=value, verdict=verdict)


def pignistic_cardinal(mass: MassFunction, voter_pref: Preference, frm: int,
                       to: int, tie: TieBreakOrder, cap: int = DEFAULT_CAP) -> int:
    """Improving states minus worsening states over a single-focal belief.

    Uses the sign utility; on a uniform single focal element its sign matches
    the pignistic rule's verdict.
    """
    if len(mass.assignments) != 1:
        raise ValueError("pignistic_cardinal needs a single-focal mass")
    focal, _ = mass.assignments[0]
    _, _, total, _ = _focal_stats(focal, MEIR_SIGN, voter_pref, frm, to, tie,
                                  cap)
    return int(total)


def completion_scores(voter_ballot: int, others: Sequence[PartialPreference],
                      m: int, cap: int = DEFAULT_CAP) -> tuple[Score, ...]:
    """Scores consistent with every completion of the others' partial orders.

    Each other voter votes for the top of their completed order, which ranges
    exactly over the maximal elements of their partial order; the evaluating
    voter's own ballot is included in every score.
    """
    tops = [sorted(possible_tops(p, m)) for p in others]
    combos = 1
    for t in tops:
        combos *= len(t)
        if combos > cap:
            raise ExpansionCapError(f"completion count exceeds cap {cap}")
    scores = set()
    for picks in itertools.product(*tops):
        counts = [0] * m
        counts[voter_ballot] += 1
        for c in picks:
            counts[c] += 1
        scores.add(tuple(counts))
    return tuple(sorted(scores))


def dominating_manipulation(voter_pref: Preference,
                            others: Sequence[PartialPreference], frm: int,
                            to: int, tie: TieBreakOrder,
                            cap: int = DEFAULT_CAP) -> bool:
    """True when the move never hurts and sometimes helps, over all completions.

    The completions' score set becomes a single vacuous focal element; the
    pessimistic rule with the sign utility is strict exactly when no state
    yields -1 and some state yields +1.
    """
    m = len(voter_pref.ranking)
    scores = completion_scores(frm, others, m, cap)
    mass = MassFunction(((FocalElement.from_points(scores), Fraction(1)),))
    outcome = evaluate_move(mass, DecisionRule(PESSIMISTIC), MEIR_SIGN,
                            voter_pref, frm, to, tie, cap)
    return outcome.verdict == STRICTLY_PREFERRED
