"""Brute-force reference implementations for cross-checking the fast paths.

Each oracle recomputes a result from first principles with a different
traversal than the operation it checks, and agreement must be exact. Size
caps are hard errors: a truncated oracle is worse than none.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .election import (
    PartialPreference,
    Preference,
    Score,
    TieBreakOrder,
    apply_move,
    linear_extensions,
    plurality_winner,
)
from .uncertainty import FocalElement, MassFunction
from .decision import (
    CARDINAL_RANK,
    DIRECT_BEST_RESPONSE,
    MEIR_SIGN,
    MIXTURE,
    NOT_PREFERRED,
    PESSIMISTIC,
    PIGNISTIC,
    STRICTLY_PREFERRED,
    WEAKLY_PREFERRED,
    MoveEvaluation,
)
from .dynamics import GameState, VoterConfig

ORACLE_MAX_FOCALS = 6
ORACLE_MAX_POINTS = 6
ORACLE_MAX_COMPLETIONS = 10_000


def _selection_values(mass: MassFunction, u) -> list[Fraction]:
    """Expected value of u under every selection of one point per focal element."""
    if len(mass.assignments) > ORACLE_MAX_FOCALS:
        raise ValueError(
            f"selection oracle handles at most {ORACLE_MAX_FOCALS} focal elements")
    expanded = []
    for focal, w in mass.assignments:
        points = focal.points
        if len(points) > ORACLE_MAX_POINTS:
            raise ValueError(
                f"selection oracle handles focal elements of at most "
                f"{ORACLE_MAX_POINTS} points")
        expanded.append((points, w))
    fn = u if callable(u) else u.__getitem__
    values = []
    for selection in itertools.product(*[points for points, _ in expanded]):
        total = Fraction(0)
        for point, (_, w) in zip(selection, expanded):
            total += w * Fraction(fn(point))
        values.append(total)
    return values


def oracle_lower_expectation(mass: MassFunction, u) -> Fraction:
    """Minimum expectation over all selection functions."""
    return min(_selection_values(mass, u))


def oracle_upper_expectation(mass: MassFunction, u) -> Fraction:
    """Maximum expectation over all selection functions."""
    return max(_selection_values(mass, u))


def oracle_pignistic(mass: MassFunction) -> MassFunction:
    """Point-first pignistic transform: for each score point, sum the weight
    shares of the focal elements containing it, as a Bayesian mass."""
    expanded = [(set(focal.points), focal.points, w)
                for focal, w in mass.assignments]
    universe = sorted(set().union(*[points for points, _, _ in expanded]))
    support = []
    for point in universe:
        prob = Fraction(0)
        for members, points, w in expanded:
            if point in members:
                prob += w / len(points)
        if prob > 0:
            support.append((FocalElement((point,)), prob))
    return MassFunction(tuple(support))


def raw_move_utility(model: str, pref: Preference, frm: int, to: int, s: Score,
                 tie: TieBreakOrder) -> Fraction:
    """Move utility recomputed from winner comparisons alone."""
    old_winner = plurality_winner(s, tie)
    new_winner = plurality_winner(apply_move(s, frm, to), tie)
    old_rank = pref.ranking.index(old_winner)
    new_rank = pref.ranking.index(new_winner)
    if model == CARDINAL_RANK:
        return Fraction(old_rank - new_rank)
    if new_rank < old_rank:
        if model == DIRECT_BEST_RESPONSE and new_winner != to:
            return Fraction(0)
        return Fraction(1)
    if new_rank > old_rank:
        return Fraction(-1)
    return Fraction(0)


def oracle_evaluation(mass: MassFunction, config: VoterConfig, frm: int,
                      to: int, tie: TieBreakOrder) -> MoveEvaluation:
    """The move's evaluation re-derived point by point from raw winner
    comparisons, bypassing evaluate_move's pair counts and integer sums.

    Lower and upper take each focal element's worst and best utility;
    the pignistic value, for the pignistic and mixture rules only, weighs
    each point by its pignistic probability.
    """
    pref, model, rule = config.preference, config.utility, config.rule
    lower = upper = Fraction(0)
    for focal, w in mass.assignments:
        values = [raw_move_utility(model, pref, frm, to, s, tie)
                  for s in focal.points]
        lower += w * min(values)
        upper += w * max(values)
    pig = None
    if rule.kind in (PIGNISTIC, MIXTURE):
        pig = sum((w * raw_move_utility(model, pref, frm, to, f.points[0], tie)
                   for f, w in oracle_pignistic(mass).assignments),
                  Fraction(0))
    if rule.kind == PESSIMISTIC:
        value = lower
        verdict = (NOT_PREFERRED if lower < 0 else
                   STRICTLY_PREFERRED if upper > 0 else WEAKLY_PREFERRED)
    else:
        if rule.kind == PIGNISTIC:
            value = pig
        elif rule.kind == MIXTURE:
            value = rule.alpha * lower + (1 - rule.alpha) * pig
        else:
            value = rule.alpha * lower + (1 - rule.alpha) * upper
        verdict = (STRICTLY_PREFERRED if value > 0 else
                   WEAKLY_PREFERRED if value == 0 else NOT_PREFERRED)
    return MoveEvaluation(lower=lower, upper=upper, pignistic_value=pig,
                          criterion_value=value, verdict=verdict)


def oracle_equilibrium(state: GameState, configs: Sequence[VoterConfig],
                       tie: TieBreakOrder) -> bool:
    """Exhaustive scan of every voter and destination; no early exit."""
    m = len(configs[0].preference.ranking)
    counts = [0] * m
    for b in state.profile.ballots:
        counts[b] += 1
    broadcast: Score = tuple(counts)
    found_strict = False
    for voter, config in enumerate(configs):
        mass = config.mass_at(broadcast)
        frm = state.profile.ballots[voter]
        for to in range(m):
            if to == frm:
                continue
            if (oracle_evaluation(mass, config, frm, to, tie).verdict
                    == STRICTLY_PREFERRED):
                found_strict = True
    return not found_strict


def oracle_dominance(voter_pref: Preference,
                     others_partials: Sequence[PartialPreference], frm: int,
                     to: int, tie: TieBreakOrder) -> bool:
    """Loop over the full Cartesian product of the others' linear extensions."""
    m = len(voter_pref.ranking)
    extension_lists = []
    total = 1
    for partial in others_partials:
        exts = sorted(linear_extensions(partial, m),
                      key=lambda p: p.ranking)
        total *= len(exts)
        if total > ORACLE_MAX_COMPLETIONS:
            raise ValueError(
                f"completion oracle handles at most {ORACLE_MAX_COMPLETIONS} "
                f"completions")
        extension_lists.append(exts)
    saw_gain = False
    for completion in itertools.product(*extension_lists):
        counts = [0] * m
        counts[frm] += 1
        for order in completion:
            counts[order.top] += 1
        value = raw_move_utility(MEIR_SIGN, voter_pref, frm, to, tuple(counts), tie)
        if value < 0:
            return False
        if value > 0:
            saw_gain = True
    return saw_gain
