"""Iterative voting: round-robin scheduling, moves, equilibria, and cycles.

A state is a ballot profile and a scheduler position. `step` is the
round-robin scan: from the scheduler position, the first voter holding a
strictly preferred move is the mover, every layered belief being re-centered
on the broadcast score. `run` executes that move, advances the position past
the mover, and scans again; a full scan without a strict move is an
equilibrium. A repeated (ballot profile, scheduler position) pair proves a
cycle, because the dynamics are a deterministic function of that pair.

`run` owns the loop. It keeps the ballots in one list, with the scheduler
position and the broadcast, tallies once, and changes one entry per move. It
stores no ballot profile per step: equal profiles have equal broadcast
scores, so it keys each state on (broadcast, scheduler position) and confirms
a key hit from the trace: the state at step s has the current ballots iff
every voter that moved in trace[s:] holds again the ballot of its first move
there. A hit costs O(t - s) at step t; a step that hits nothing costs O(m).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .decision import (
    DecisionRule,
    MoveEvaluation,
    STRICTLY_PREFERRED,
    UTILITY_MODELS,
    _pair_counts,
    evaluate_move,
)
from .election import (
    BallotProfile, Preference, Score, TieBreakOrder, apply_move, tally,
    validate_score)
from .uncertainty import LRU_SIZE, LayeredBelief, MassFunction, layered_to_mass

CONVERGED = "converged"
CYCLE = "cycle"
STEP_LIMIT = "step_limit"

DEFAULT_MAX_STEPS = 10_000


@lru_cache(maxsize=LRU_SIZE)
def _layered_mass(belief: LayeredBelief, center: Score) -> MassFunction:
    return layered_to_mass(belief, center)


@dataclass(frozen=True)
class VoterConfig:
    """One voter's preference, belief, decision rule, and utility model."""

    preference: Preference
    belief: LayeredBelief | MassFunction
    rule: DecisionRule
    utility: str

    def __post_init__(self):
        if self.utility not in UTILITY_MODELS:
            raise ValueError(f"unknown utility model {self.utility!r}")
        if not isinstance(self.belief, (LayeredBelief, MassFunction)):
            raise TypeError("belief must be a LayeredBelief or MassFunction")
        if (isinstance(self.belief, MassFunction)
                and len(self.belief.assignments[0][0].points[0])
                != len(self.preference.ranking)):
            raise ValueError("belief and preference differ in candidates")

    def mass_at(self, broadcast: Score) -> MassFunction:
        """The fixed mass, or the layered belief centered on `broadcast`."""
        if isinstance(self.belief, MassFunction):
            return self.belief
        # Checked before the lookup, which takes True and 1.0 for 1.
        return _layered_mass(self.belief, validate_score(tuple(broadcast)))


@dataclass(frozen=True)
class GameState:
    """A ballot profile and the scheduler's position."""

    profile: BallotProfile
    next_voter: int = 0

    def __post_init__(self):
        if (type(self.next_voter) is not int
                or not 0 <= self.next_voter < self.profile.n):
            raise ValueError("scheduler position out of range")


@dataclass(frozen=True)
class MoveRecord:
    step: int
    voter: int
    frm: int
    to: int
    criterion_value: Fraction
    score_before: Score
    score_after: Score


@dataclass(frozen=True)
class RunOutcome:
    status: str
    steps: int
    final: GameState
    trace: tuple[MoveRecord, ...]
    cycle_start: int | None = None
    cycle_length: int | None = None


@lru_cache(maxsize=LRU_SIZE)
def _least_centre(broadcast: Score, radius: int) -> Score:
    """The componentwise-least score whose gaps to the top, clipped at 2R+3,
    and entries, clipped at R+1, equal the broadcast's, for R = `radius`.

    Such centres give equal (winner-before, winner-after) counts for every
    move over each ball of radius r <= R, so over each ring: a point of the
    ball moves a gap by at most 2r and a move by 2 more, so a candidate 2r+3
    behind never wins; an entry above r stays clear of the ball's bound at 0
    and of apply_move's clamp; the candidates nearer the top shift as one,
    which keeps their order and voter_swap's leader. Each clipped gap plus
    clipped entry bounds the least top from below; the true top meets all.
    """
    clip, top = 2 * radius + 3, max(broadcast)
    signature = [(min(top - c, clip), min(c, radius + 1)) for c in broadcast]
    least_top = max(gap + entry for gap, entry in signature)
    return tuple(least_top - gap if gap < clip else entry
                 for gap, entry in signature)


def _strict_options(config: VoterConfig, frm: int, broadcast: Score,
                    tie: TieBreakOrder) -> list[tuple[int, MoveEvaluation]]:
    belief = config.belief
    mass = config.mass_at(broadcast if isinstance(belief, MassFunction)
                          else _least_centre(broadcast, belief.radii[-1]))
    # A destination that changes no winner in any focal element is worth 0
    # under every rule, so it is never strict. The live destinations are
    # gathered as the keys of one dict, which merges faster than a set.
    live = {}
    for focal, _ in mass.assignments:
        live.update(_pair_counts(focal, frm, tie.order))
    options = []
    for to in sorted(live):
        outcome = evaluate_move(mass, config.rule, config.utility,
                                config.preference, frm, to, tie)
        if outcome.verdict == STRICTLY_PREFERRED:
            options.append((to, outcome))
    return options


def default_policy(options: list[tuple[int, MoveEvaluation]],
                   pref: Preference) -> tuple[int, MoveEvaluation]:
    """Pick the (destination, record) pair of highest criterion value; break
    ties by the voter's own preference over destinations. That order is
    strict and destinations are distinct, so no tie is left for the
    tie-break order to decide."""
    return max(options, key=lambda item: (item[1].criterion_value,
                                          -pref.rank_of(item[0])))


def step(ballots: Sequence[int], next_voter: int, broadcast: Score,
         configs: Sequence[VoterConfig], tie: TieBreakOrder
         ) -> tuple[int, int, MoveEvaluation] | None:
    """The round-robin scan: (voter, destination, evaluation) for the first
    voter from `next_voter` on that holds a strictly preferred move, or None
    when the state is stable. `broadcast` must be the tally of `ballots`;
    its entries are checked before any lookup, since the tables take True
    and 1.0 for 1."""
    broadcast = validate_score(tuple(broadcast))
    n = len(ballots)
    for k in range(n):
        voter = (next_voter + k) % n
        config = configs[voter]
        options = _strict_options(config, ballots[voter], broadcast, tie)
        if options:
            to, outcome = default_policy(options, config.preference)
            return voter, to, outcome
    return None


def _check_sizes(state: GameState, configs: Sequence[VoterConfig],
                 tie: TieBreakOrder) -> None:
    """Refuse a game whose voters, ballots and candidates disagree."""
    m = len(tie.order)
    if len(configs) != state.profile.n or any(
            len(c.preference.ranking) != m for c in configs):
        raise ValueError(f"need {state.profile.n} voter configs, each "
                         f"ranking the tie order's {m} candidates")


def equilibrium_check(state: GameState, configs: Sequence[VoterConfig],
                      tie: TieBreakOrder
                      ) -> tuple[bool, tuple[int, int, int] | None]:
    """True when no voter holds a strictly preferred move; else, as witness,
    the move (voter, from, to) a scan from voter 0 would make."""
    _check_sizes(state, configs, tie)
    ballots = state.profile.ballots
    move = step(ballots, 0, tally(ballots, len(tie.order)), configs, tie)
    if move is None:
        return True, None
    voter, to, _ = move
    return False, (voter, ballots[voter], to)


def _holds_ballots_of(trace: Sequence[MoveRecord], start: int,
                      ballots: Sequence[int]) -> bool:
    """True when `ballots` are the ballots before trace[start]: every voter
    that moved since holds again the ballot it first moved from."""
    # Read backwards, so each voter's entry ends at its first move.
    first = {record.voter: record.frm
             for record in reversed(trace[start:])}
    return all(ballots[voter] == frm for voter, frm in first.items())


def run(initial: GameState, configs: Sequence[VoterConfig], tie: TieBreakOrder,
        max_steps: int = DEFAULT_MAX_STEPS) -> RunOutcome:
    """Iterate steps until equilibrium, a repeated state, or the step limit."""
    if type(max_steps) is not int or max_steps < 1:
        raise ValueError("max_steps must be an integer of at least 1")
    _check_sizes(initial, configs, tie)
    ballots = list(initial.profile.ballots)
    next_voter = initial.next_voter
    broadcast = tally(ballots, len(tie.order))
    # (broadcast, scheduler position) -> the steps whose state had them.
    seen: dict[tuple[Score, int], list[int]] = {}
    trace: list[MoveRecord] = []
    status = STEP_LIMIT
    while True:
        t = len(trace)
        steps = seen.setdefault((broadcast, next_voter), [])
        cycle_start = next((start for start in reversed(steps)
                            if _holds_ballots_of(trace, start, ballots)), None)
        if cycle_start is not None:
            status = CYCLE
            break
        steps.append(t)
        move = step(ballots, next_voter, broadcast, configs, tie)
        if move is None:
            status = CONVERGED
            break
        if t == max_steps:
            break
        voter, to, outcome = move
        frm = ballots[voter]
        # broadcast[frm] holds the mover's own vote, so apply_move's clamp
        # never applies and score_after is the tally of the new ballots.
        after = apply_move(broadcast, frm, to)
        trace.append(MoveRecord(step=t, voter=voter, frm=frm, to=to,
                                criterion_value=outcome.criterion_value,
                                score_before=broadcast, score_after=after))
        ballots[voter] = to
        next_voter = (voter + 1) % len(ballots)
        broadcast = after
    final = (GameState(BallotProfile(tuple(ballots)), next_voter) if trace
             else initial)
    return RunOutcome(status=status, steps=len(trace), final=final,
                      trace=tuple(trace), cycle_start=cycle_start,
                      cycle_length=(None if cycle_start is None
                                    else len(trace) - cycle_start))


def truthful_profile(configs: Sequence[VoterConfig]) -> BallotProfile:
    return BallotProfile(tuple(c.preference.top for c in configs))


@dataclass(frozen=True)
class RunSetup:
    """Everything one run needs; campaign generators produce these."""

    initial: GameState
    configs: tuple[VoterConfig, ...]
    tie: TieBreakOrder
    max_steps: int = DEFAULT_MAX_STEPS


@dataclass(frozen=True)
class CampaignSummary:
    rows: tuple[tuple[int, str, int, int | None], ...]
    convergence_rate: Fraction
    max_steps_observed: int
    cycle_outcomes: tuple[tuple[int, RunOutcome], ...]


def campaign(make_instance: Callable[[int], RunSetup], count: int,
             base_seed: int = 0) -> CampaignSummary:
    """Run `count` seeded instances and summarize statuses.

    Rows are (seed, status, steps, cycle_length), ordered by seed; cycle
    outcomes keep their full traces for serialization."""
    if type(count) is not int or count < 1:
        raise ValueError("count must be an integer of at least 1")
    rows = []
    cycles = []
    converged = 0
    max_observed = 0
    for seed in range(base_seed, base_seed + count):
        setup = make_instance(seed)
        outcome = run(setup.initial, setup.configs, setup.tie,
                      setup.max_steps)
        rows.append((seed, outcome.status, outcome.steps, outcome.cycle_length))
        max_observed = max(max_observed, outcome.steps)
        if outcome.status == CONVERGED:
            converged += 1
        elif outcome.status == CYCLE:
            cycles.append((seed, outcome))
    return CampaignSummary(rows=tuple(rows),
                           convergence_rate=Fraction(converged, count),
                           max_steps_observed=max_observed,
                           cycle_outcomes=tuple(cycles))
