"""Iterative voting: round-robin scheduling, moves, equilibria, and cycles.

Each step scans voters round-robin from the scheduler position; the first
voter holding a strictly preferred move executes one move, every layered
belief is re-centered on the new broadcast score, and the scan position
advances past the mover. A full scan without a strict move is an equilibrium.
A repeated (ballot profile, scheduler position) pair proves a cycle, because
the dynamics are a deterministic function of that pair.
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
    evaluate_move,
)
from .election import BallotProfile, Preference, Score, TieBreakOrder, tally
from .uncertainty import DEFAULT_CAP, LayeredBelief, MassFunction, layered_to_mass

CONVERGED = "converged"
CYCLE = "cycle"
STEP_LIMIT = "step_limit"

DEFAULT_MAX_STEPS = 10_000


@lru_cache(maxsize=None)
def _layered_mass(belief: LayeredBelief, center: Score,
                  cap: int) -> MassFunction:
    return layered_to_mass(belief, center, cap)


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

    def mass_at(self, broadcast: Score, cap: int = DEFAULT_CAP) -> MassFunction:
        """The fixed mass, or the layered belief centered on `broadcast`."""
        if isinstance(self.belief, MassFunction):
            return self.belief
        return _layered_mass(self.belief, broadcast, cap)


@dataclass(frozen=True)
class GameState:
    profile: BallotProfile
    step: int = 0
    next_voter: int = 0

    def __post_init__(self):
        if self.step < 0:
            raise ValueError("step must be nonnegative")
        if not 0 <= self.next_voter < self.profile.n:
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


def _strict_options(voter: int, config: VoterConfig, profile: BallotProfile,
                    broadcast: Score, tie: TieBreakOrder,
                    cap: int) -> list[tuple[int, MoveEvaluation]]:
    frm = profile.ballots[voter]
    mass = config.mass_at(broadcast, cap)
    options = []
    for to in range(len(broadcast)):
        if to == frm:
            continue
        outcome = evaluate_move(mass, config.rule, config.utility,
                                config.preference, frm, to, tie, cap)
        if outcome.verdict == STRICTLY_PREFERRED:
            options.append((to, outcome))
    return options


def default_policy(options: list[tuple[int, MoveEvaluation]],
                   pref: Preference, tie: TieBreakOrder) -> int:
    """Pick the highest criterion value; break ties by the voter's own
    preference over destinations, then by the tie-break order."""
    tie_pos = {c: i for i, c in enumerate(tie.order)}
    best = min(options, key=lambda item: (-item[1].criterion_value,
                                          pref.rank_of(item[0]),
                                          tie_pos[item[0]]))
    return best[0]


def equilibrium_check(state: GameState, configs: Sequence[VoterConfig],
                      tie: TieBreakOrder, cap: int = DEFAULT_CAP
                      ) -> tuple[bool, tuple[int, int, int] | None]:
    """True when no voter holds a strictly preferred move; else one witness
    (voter, from, to)."""
    m = len(configs[0].preference.ranking)
    broadcast = tally(state.profile.ballots, m)
    for voter, config in enumerate(configs):
        options = _strict_options(voter, config, state.profile, broadcast,
                                  tie, cap)
        if options:
            to = default_policy(options, config.preference, tie)
            return False, (voter, state.profile.ballots[voter], to)
    return True, None


def step(state: GameState, configs: Sequence[VoterConfig], tie: TieBreakOrder,
         policy: Callable = default_policy, cap: int = DEFAULT_CAP
         ) -> tuple[GameState, MoveRecord] | None:
    """Execute one move, or return None when the state is stable."""
    n = state.profile.n
    m = len(configs[0].preference.ranking)
    broadcast = tally(state.profile.ballots, m)
    for k in range(n):
        voter = (state.next_voter + k) % n
        config = configs[voter]
        options = _strict_options(voter, config, state.profile, broadcast,
                                  tie, cap)
        if not options:
            continue
        to = policy(options, config.preference, tie)
        outcome = dict(options)[to]
        frm = state.profile.ballots[voter]
        profile = state.profile.with_ballot(voter, to)
        record = MoveRecord(step=state.step, voter=voter, frm=frm, to=to,
                            criterion_value=outcome.criterion_value,
                            score_before=broadcast,
                            score_after=tally(profile.ballots, m))
        return GameState(profile=profile, step=state.step + 1,
                         next_voter=(voter + 1) % n), record
    return None


def run(initial: GameState, configs: Sequence[VoterConfig], tie: TieBreakOrder,
        max_steps: int = DEFAULT_MAX_STEPS, policy: Callable = default_policy,
        cap: int = DEFAULT_CAP) -> RunOutcome:
    """Iterate steps until equilibrium, a repeated state, or the step limit."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    seen: dict[tuple[tuple[int, ...], int], int] = {}
    trace: list[MoveRecord] = []
    state = initial
    while len(trace) <= max_steps:
        key = (state.profile.ballots, state.next_voter)
        if key in seen:
            start = seen[key]
            return RunOutcome(status=CYCLE, steps=len(trace), final=state,
                              trace=tuple(trace), cycle_start=start,
                              cycle_length=len(trace) - start)
        seen[key] = len(trace)
        moved = step(state, configs, tie, policy, cap)
        if moved is None:
            return RunOutcome(status=CONVERGED, steps=len(trace), final=state,
                              trace=tuple(trace))
        if len(trace) == max_steps:
            break
        state, record = moved
        trace.append(record)
    return RunOutcome(status=STEP_LIMIT, steps=len(trace), final=state,
                      trace=tuple(trace))


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
             base_seed: int = 0, cap: int = DEFAULT_CAP) -> CampaignSummary:
    """Run `count` seeded instances and summarize statuses.

    Rows are (seed, status, steps, cycle_length), ordered by seed; cycle
    outcomes keep their full traces for serialization."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rows = []
    cycles = []
    converged = 0
    max_observed = 0
    for seed in range(base_seed, base_seed + count):
        setup = make_instance(seed)
        outcome = run(setup.initial, setup.configs, setup.tie,
                      setup.max_steps, cap=cap)
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
