import importlib
import json
import os
import pathlib
import pkgutil
import random
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from credalvote import (
    BallotProfile,
    CONVERGED,
    CYCLE,
    DecisionRule,
    ExpansionCapError,
    FocalElement,
    GameState,
    HURWICZ,
    LayeredBelief,
    MEIR_R0,
    MEIR_SIGN,
    METRICS,
    MassFunction,
    MoveEvaluation,
    MoveRecord,
    NESTED,
    PARTITIONED,
    PESSIMISTIC,
    PIGNISTIC,
    Preference,
    RunOutcome,
    STEP_LIMIT,
    STRICTLY_PREFERRED,
    THEOREM1_NESTED,
    TieBreakOrder,
    UTILITY_MODELS,
    VoterConfig,
    campaign,
    default_policy,
    equilibrium_check,
    evaluate_move,
    family_setup,
    fixture_text,
    parse_scenario,
    run,
    scenario_to_setup,
    step,
    tally,
    truthful_profile,
)
import credalvote
from credalvote import uncertainty
from credalvote.cli import main
from credalvote.decision import _classes, _move_pairs, _pair_counts
from credalvote.dynamics import _layered_mass, _least_centre, _strict_options
from credalvote.oracles import oracle_equilibrium, oracle_evaluation
from strategies import (
    decision_rules, mass_functions, preferences, small_games, tie_orders)

THIRD = Fraction(1, 3)
TIE3 = TieBreakOrder.default(3)


def package_modules():
    """(name, module) for every module of the package but `__main__`, which
    runs the CLI when imported."""
    return [(info.name, importlib.import_module(f"credalvote.{info.name}"))
            for info in pkgutil.iter_modules(credalvote.__path__)
            if info.name != "__main__"]


def prop_setup(max_steps=None):
    scenario = parse_scenario(fixture_text("prop1_counterexample"))
    setup = scenario_to_setup(scenario)
    if max_steps is not None:
        setup = type(setup)(initial=setup.initial, configs=setup.configs,
                            tie=setup.tie, max_steps=max_steps)
    return setup


def oscillator():
    """Single voter wedded to a stale three-state poll; its fixed belief makes
    a -> b and b -> a both strict forever."""
    mass = MassFunction((
        (FocalElement.from_points([(1, 2, 3)]), THIRD),
        (FocalElement.from_points([(2, 3, 0)]), THIRD),
        (FocalElement.from_points([(2, 1, 3)]), THIRD)))
    config = VoterConfig(preference=Preference((0, 1, 2)), belief=mass,
                         rule=DecisionRule(PESSIMISTIC), utility=MEIR_SIGN)
    return GameState(profile=BallotProfile((0,))), (config,)


class TestTemplatesAndConfigs:
    def test_template_validation(self):
        with pytest.raises(ValueError):
            LayeredBelief(kind="spiral", radii=(1,), weights=(Fraction(1),))
        with pytest.raises(ValueError):
            LayeredBelief(kind=NESTED, radii=(2, 1),
                          weights=(Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValueError):
            LayeredBelief(kind=NESTED, radii=(1,), weights=(Fraction(1, 2),))

    def test_decreasing_weights_flag(self):
        up = LayeredBelief(kind=NESTED, radii=(1, 2),
                           weights=(Fraction(1, 3), Fraction(2, 3)))
        down = LayeredBelief(kind=NESTED, radii=(1, 2),
                             weights=(Fraction(2, 3), Fraction(1, 3)))
        assert not up.has_decreasing_weights
        assert down.has_decreasing_weights

    def test_recentring_is_cached(self):
        belief = LayeredBelief(kind=NESTED, radii=(1,),
                               weights=(Fraction(1),))
        config = VoterConfig(preference=Preference((0, 1, 2)), belief=belief,
                             rule=DecisionRule(PESSIMISTIC), utility=MEIR_SIGN)
        assert config.mass_at((1, 1, 1)) is config.mass_at((1, 1, 1))
        assert config.mass_at((1, 1, 1)) != config.mass_at((2, 1, 1))

    def test_recentring_cache_is_bounded(self):
        assert 0 < uncertainty.LRU_SIZE < 10**6
        for cached in (_layered_mass, _least_centre, uncertainty._ball,
                       uncertainty._ring):
            assert cached.cache_info().maxsize == uncertainty.LRU_SIZE

    def test_every_module_lru_cache_is_bounded(self):
        maxsizes = {}
        for module_name, module in package_modules():
            for name, value in vars(module).items():
                if hasattr(value, "cache_parameters"):
                    maxsizes[f"{module_name}.{name}"] = \
                        value.cache_parameters()["maxsize"]
        assert {"dynamics._layered_mass", "dynamics._least_centre",
                "uncertainty._ball", "uncertainty._ring",
                "decision._classes", "decision._move_pairs",
                "decision._pair_counts",
                "scenario._generated_belief"} <= set(maxsizes)
        assert None not in maxsizes.values(), maxsizes

    def test_no_module_container_grows(self, capsys):
        # Every per-process table is a bounded lru_cache, so no module-level
        # dict, list or set grows over a campaign of fresh seeds and a
        # simulate.
        def sizes():
            return {f"{module_name}.{name}": len(value)
                    for module_name, module in package_modules()
                    for name, value in vars(module).items()
                    if isinstance(value, (dict, list, set))
                    and not name.startswith("__")}

        before = sizes()
        campaign(lambda seed: family_setup(seed, THEOREM1_NESTED, 7, 4), 3,
                 base_seed=70_000)
        assert main(["simulate", "prop1_counterexample"]) == 0
        capsys.readouterr()
        assert sizes() == before

    def test_mass_at_validates_a_cached_centre(self):
        # The recentred-mass table takes True and 1.0 for 1.
        config = VoterConfig(preference=Preference((0, 1, 2)),
                             belief=LayeredBelief(kind=NESTED, radii=(1,),
                                                  weights=(Fraction(1),)),
                             rule=DecisionRule(PESSIMISTIC), utility=MEIR_SIGN)
        config.mass_at((1, 1, 1))
        for centre in ((True, 1, 1), (1.0, 1, 1)):
            with pytest.raises(ValueError, match="score entries must be "
                                                 "nonnegative integers"):
                config.mass_at(centre)

    def test_voter_config_validation(self):
        belief = LayeredBelief(kind=NESTED, radii=(1,),
                               weights=(Fraction(1),))
        with pytest.raises(ValueError):
            VoterConfig(preference=Preference((0, 1, 2)), belief=belief,
                        rule=DecisionRule(PESSIMISTIC), utility="bliss")
        with pytest.raises(TypeError):
            VoterConfig(preference=Preference((0, 1, 2)), belief=(1, 2),
                        rule=DecisionRule(PESSIMISTIC), utility=MEIR_SIGN)
        # A fixed mass over 4-entry scores with a 3-candidate preference once
        # ran, moved, and reported converged.
        four = MassFunction(((FocalElement.from_points([(2, 1, 0, 0)]),
                              Fraction(1)),))
        with pytest.raises(ValueError, match="differ in candidates"):
            VoterConfig(preference=Preference((0, 1, 2)), belief=four,
                        rule=DecisionRule(PESSIMISTIC), utility=MEIR_SIGN)

    def test_games_whose_sizes_disagree_are_refused(self):
        # Fewer configs than ballots raised IndexError, and extra ones were
        # ignored; so was a preference over another number of candidates
        # than the tie order's.
        setup = prop_setup()
        configs = setup.configs
        three = replace(configs[0], preference=Preference((0, 1, 2)))
        for bad in (configs[:-1], configs + configs[:1],
                    (three,) + configs[1:]):
            for call in (run, equilibrium_check):
                with pytest.raises(ValueError, match="voter configs"):
                    call(setup.initial, bad, setup.tie)
        assert run(setup.initial, configs, setup.tie).status == CONVERGED
        assert equilibrium_check(setup.initial, configs, setup.tie)[0] is False

    def test_game_state_validation(self):
        profile = BallotProfile((0, 1))
        for position in (2, -1, 1.0, True):
            with pytest.raises(ValueError, match="scheduler position"):
                GameState(profile=profile, next_voter=position)

    def test_truthful_profile(self):
        belief = LayeredBelief(kind=NESTED, radii=(0,),
                               weights=(Fraction(1),))
        configs = [VoterConfig(preference=Preference(r), belief=belief,
                               rule=DecisionRule(PESSIMISTIC),
                               utility=MEIR_SIGN)
                   for r in ((2, 0, 1), (0, 1, 2))]
        assert truthful_profile(configs).ballots == (2, 0)


class TestPolicy:
    @staticmethod
    def option(to, value):
        v = Fraction(value)
        return to, MoveEvaluation(lower=v, upper=v, pignistic_value=None,
                                  criterion_value=v, verdict=STRICTLY_PREFERRED)

    def test_highest_value_wins(self):
        options = [self.option(1, THIRD), self.option(2, Fraction(2, 3))]
        assert default_policy(options, Preference((0, 1, 2))) == options[1]

    def test_value_ties_go_to_the_preferred_destination(self):
        options = [self.option(1, THIRD), self.option(2, THIRD)]
        assert default_policy(options, Preference((2, 1, 0))) == options[1]
        assert default_policy(options, Preference((0, 1, 2))) == options[0]

    @given(st.data())
    @settings(max_examples=200)
    def test_policy_matches_the_minimum_key(self, data):
        # Against the key the policy once took the minimum over, with few
        # distinct values so that ties on the value are common.
        m = data.draw(st.integers(2, 6))
        pref, tie = data.draw(preferences(m)), data.draw(tie_orders(m))
        destinations = data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                          max_size=m, unique=True))
        options = [self.option(to, data.draw(st.sampled_from(
            (Fraction(-1, 2), THIRD, Fraction(2, 3)))))
            for to in destinations]
        tie_pos = {c: i for i, c in enumerate(tie.order)}
        expected = min(options, key=lambda item: (-item[1].criterion_value,
                                                  pref.rank_of(item[0]),
                                                  tie_pos[item[0]]))
        assert default_policy(options, pref) == expected


class TestStep:
    def test_scan_starts_at_next_voter(self):
        # both voters hold the same strict move; scheduler position decides
        mass = MassFunction(
            ((FocalElement.from_points([(1, 2, 3)]), Fraction(1)),))
        config = VoterConfig(preference=Preference((0, 1, 2)), belief=mass,
                             rule=DecisionRule(PESSIMISTIC), utility=MEIR_SIGN)
        ballots = (0, 0)
        broadcast = tally(ballots, 3)
        first = step(ballots, 0, broadcast, (config, config), TIE3)
        second = step(ballots, 1, broadcast, (config, config), TIE3)
        assert first is not None and second is not None
        assert first[0] == 0
        assert second[0] == 1
        assert first[1:] == second[1:]

    def test_stable_state_returns_none(self):
        setup = scenario_to_setup(parse_scenario(fixture_text("equilibrium")))
        ballots = setup.initial.profile.ballots
        broadcast = tally(ballots, len(setup.tie.order))
        for position in range(len(ballots)):
            assert step(ballots, position, broadcast, setup.configs,
                        setup.tie) is None

    @settings(deadline=None, max_examples=150)
    @given(small_games())
    def test_the_scan_moves_the_first_voter_the_oracle_finds_strict(self,
                                                                   game):
        # At every scheduler position: None iff the oracle finds no strict
        # move anywhere; else the first voter in round-robin order from that
        # position with a strict destination, and a strict destination.
        state, configs, tie = game
        ballots, m = state.profile.ballots, len(tie.order)
        n, broadcast = len(ballots), tally(ballots, m)
        strict = []
        for voter, config in enumerate(configs):
            mass = config.mass_at(broadcast)
            evaluations = {to: oracle_evaluation(mass, config, ballots[voter],
                                                 to, tie)
                           for to in range(m) if to != ballots[voter]}
            strict.append({to: e for to, e in evaluations.items()
                           if e.verdict == STRICTLY_PREFERRED})
        stable = oracle_equilibrium(state, configs, tie)
        for position in range(n):
            move = step(ballots, position, broadcast, configs, tie)
            assert (move is None) == stable
            if move is None:
                continue
            voter, to, outcome = move
            assert voter == next(v for v in ((position + k) % n
                                             for k in range(n)) if strict[v])
            assert strict[voter].get(to) == outcome

    def test_a_refused_broadcast_leaves_the_tables_clean(self):
        # The tables take 1.0 for 1, so a float broadcast must be refused
        # before any lookup: a centre of floats stored in the least-centre
        # table would make the valid call after it fail too.
        setup = family_setup(2, THEOREM1_NESTED, 12, 4)
        ballots = setup.initial.profile.ballots
        configs, tie = setup.configs, setup.tie
        assert tally(ballots, 4) == (3, 3, 5, 1)
        for table in (_least_centre, _layered_mass, uncertainty._ball,
                      uncertainty._ring, _classes, _move_pairs, _pair_counts):
            table.cache_clear()
        for _ in range(2):  # on fresh tables, then on warm ones
            with pytest.raises(ValueError, match=(
                    "^score entries must be nonnegative integers$")):
                step(ballots, 0, (3.0, 3.0, 5.0, 1.0), configs, tie)
            voter, to, _ = step(ballots, 0, (3, 3, 5, 1), configs, tie)
            assert (voter, to) == (1, 0)

    def test_a_ball_past_the_cap_raises(self):
        # 120 ballots spread over six candidates: the radius-12 l1 ball
        # around (20, ..., 20) passes the cap while the first voter scans.
        belief = LayeredBelief(NESTED, (12,), (Fraction(1),))
        configs = tuple(
            VoterConfig(preference=Preference(tuple(
                (c + k) % 6 for k in range(6))), belief=belief,
                rule=DecisionRule(PESSIMISTIC), utility=MEIR_SIGN)
            for c in range(6) for _ in range(20))
        ballots = truthful_profile(configs).ballots
        with pytest.raises(ExpansionCapError,
                           match="neighborhood expands past cap 100000"):
            step(ballots, 0, tally(ballots, 6), configs,
                 TieBreakOrder.default(6))


@st.composite
def scans(draw):
    """A ballot profile whose voter 0 scans, that voter's config and a tie
    order, over 3 to 5 candidates. The belief is layered (nested or
    partitioned, one to three radii up to 2, either metric) or a fixed mass
    of up to four focal elements."""
    m = draw(st.integers(3, 5))
    ballots = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=8))
    if draw(st.booleans()):
        radii = tuple(sorted(draw(st.sets(st.integers(0, 2), min_size=1,
                                          max_size=3))))
        parts = [draw(st.integers(1, 4)) for _ in radii]
        belief = LayeredBelief(
            draw(st.sampled_from((NESTED, PARTITIONED))), radii,
            tuple(Fraction(p, sum(parts)) for p in parts),
            draw(st.sampled_from(METRICS)))
    else:
        belief = draw(mass_functions(m=m, max_votes=3))
    config = VoterConfig(draw(preferences(m)), belief, draw(decision_rules()),
                         draw(st.sampled_from(UTILITY_MODELS)))
    return BallotProfile(tuple(ballots)), config, draw(tie_orders(m))


class TestStrictOptions:
    @given(scans())
    @settings(max_examples=250, deadline=None)
    def test_scan_keeps_exactly_the_oracles_strict_moves(self, scan):
        # The scan evaluates only destinations that change a winner in some
        # focal element; every other one must be one the oracle finds
        # weakly preferred, and the records must not depend on the skip.
        profile, config, tie = scan
        m = len(tie.order)
        broadcast = tally(profile.ballots, m)
        centre = broadcast
        if isinstance(config.belief, LayeredBelief):
            centre = _least_centre(broadcast, config.belief.radii[-1])
        try:
            mass = config.mass_at(broadcast)
            config.mass_at(centre)
        except ValueError:  # an empty voter_swap ring
            assume(False)
        frm = profile.ballots[0]
        options = _strict_options(config, frm, broadcast, tie)
        oracles = [oracle_evaluation(mass, config, frm, to, tie)
                   for to in range(m)]
        assert [to for to, _ in options] == [
            to for to, o in enumerate(oracles)
            if o.verdict == STRICTLY_PREFERRED]
        kept = dict(options)
        for to, oracle in enumerate(oracles):
            record = evaluate_move(mass, config.rule, config.utility,
                                   config.preference, frm, to, tie)
            assert record == oracle, to
            if to in kept:
                assert kept[to] == record, to


class TestRun:
    def test_max_steps_validation(self):
        state, configs = oscillator()
        for max_steps in (0, 1.5, True):
            with pytest.raises(ValueError, match="max_steps must be"):
                run(state, configs, TIE3, max_steps=max_steps)

    def test_cycle_detected(self):
        state, configs = oscillator()
        outcome = run(state, configs, TIE3)
        assert outcome.status == CYCLE
        assert outcome.steps == 2
        assert outcome.cycle_start == 0
        assert outcome.cycle_length == 2
        assert [(r.frm, r.to) for r in outcome.trace] == [(0, 1), (1, 0)]
        assert outcome.final.profile.ballots == (0,)

    def test_list_typed_fields_run(self):
        def game(seq):
            belief = LayeredBelief(kind=NESTED, radii=seq((0, 1)),
                                   weights=(Fraction(1, 2), Fraction(1, 2)))
            config = VoterConfig(preference=Preference((1, 0, 2)),
                                 belief=belief, rule=DecisionRule(PESSIMISTIC),
                                 utility=MEIR_SIGN)
            return (GameState(BallotProfile(seq((1, 1, 2)))), (config,) * 3,
                    TieBreakOrder(seq((0, 1, 2))))

        assert game(list) == game(tuple)
        assert run(*game(list)) == run(*game(tuple))

    def test_step_limit_cuts_the_oscillator(self):
        state, configs = oscillator()
        outcome = run(state, configs, TIE3, max_steps=1)
        assert outcome.status == STEP_LIMIT
        assert outcome.steps == 1
        assert outcome.cycle_start is None

    def test_contested_profile_converges(self):
        setup = prop_setup()
        outcome = run(*_unpack(setup))
        assert outcome.status == CONVERGED
        assert outcome.steps == 5
        assert tally(outcome.final.profile.ballots, 4) == (0, 5, 5, 0)
        stable, witness = equilibrium_check(outcome.final, setup.configs,
                                            setup.tie)
        assert stable and witness is None

    def test_contested_profile_initial_witness(self):
        setup = prop_setup()
        stable, witness = equilibrium_check(setup.initial, setup.configs,
                                            setup.tie)
        assert not stable
        assert witness == (0, 0, 1)

    def test_coinciding_nested_balls_run(self):
        # Both voters' radius-2 and radius-3 voter_swap balls around (2, 0, 0)
        # are all six 2-vote scores, one focal element under two layers.
        belief = {"kind": "nested", "metric": "voter_swap", "radii": [2, 3],
                  "weights": ["1/2", "1/2"]}
        voters = [{"preference": pref, "belief": belief,
                   "rule": {"kind": "pignistic"}, "utility": "meir_sign"}
                  for pref in (["b", "a", "c"], ["c", "b", "a"])]
        scenario = parse_scenario(json.dumps({
            "format_version": 1, "candidates": ["a", "b", "c"],
            "voters": voters, "initial_ballots": ["a", "a"]}))
        setup = scenario_to_setup(scenario)
        outcome = run(*_unpack(setup))
        assert outcome.status == CONVERGED
        for state in (setup.initial, outcome.final):
            stable, _ = equilibrium_check(state, setup.configs, setup.tie)
            assert stable == oracle_equilibrium(state, setup.configs,
                                                setup.tie)

    def test_step_limit_on_contested_profile(self):
        outcome = run(*_unpack(prop_setup(max_steps=1)), max_steps=1)
        assert outcome.status == STEP_LIMIT
        assert outcome.steps == 1

    @staticmethod
    def whole_state_run(initial, configs, tie, max_steps):
        """The reference: `run` with its cycle check keyed on whole
        (ballots, scheduler position) states, each state tallied afresh and
        each move applied here. Also returns how many states had the
        broadcast and position of an earlier state with other ballots, the
        key hits that `run` must not take for repeats."""
        seen, keys, trace = {}, set(), []
        ballots, position = initial.profile.ballots, initial.next_voter
        false_hits = 0
        while True:
            state = GameState(BallotProfile(ballots), position)
            start = seen.get((ballots, position))
            if start is not None:
                return RunOutcome(CYCLE, len(trace), state, tuple(trace),
                                  start, len(trace) - start), false_hits
            seen[ballots, position] = len(trace)
            broadcast = tally(ballots, len(tie.order))
            false_hits += (broadcast, position) in keys
            keys.add((broadcast, position))
            move = step(ballots, position, broadcast, configs, tie)
            if move is None:
                return RunOutcome(CONVERGED, len(trace), state,
                                  tuple(trace)), false_hits
            if len(trace) == max_steps:
                return RunOutcome(STEP_LIMIT, len(trace), state,
                                  tuple(trace)), false_hits
            voter, to, outcome = move
            moved = ballots[:voter] + (to,) + ballots[voter + 1:]
            trace.append(MoveRecord(
                step=len(trace), voter=voter, frm=ballots[voter], to=to,
                criterion_value=outcome.criterion_value,
                score_before=broadcast,
                score_after=tally(moved, len(tie.order))))
            ballots, position = moved, (voter + 1) % len(ballots)

    def test_run_matches_the_whole_state_reference(self):
        seen = {"late_cycle": 0, "false_hit": 0, "cut": 0}

        @settings(deadline=None, max_examples=200)
        @given(small_games(), st.data())
        def one_game(game, data):
            state, configs, tie = game
            state = replace(state, next_voter=data.draw(
                st.integers(0, state.profile.n - 1)))
            max_steps = data.draw(st.sampled_from((1, 2, 3, 200)))
            expected, false_hits = self.whole_state_run(state, configs, tie,
                                                        max_steps)
            assert run(state, configs, tie, max_steps) == expected
            seen["late_cycle"] += bool(expected.cycle_start)
            seen["false_hit"] += false_hits > 0
            seen["cut"] += expected.status == STEP_LIMIT

        one_game()
        assert all(seen.values()), seen

    def test_a_key_hit_that_is_not_a_repeat(self):
        # Step 2 has step 0's broadcast (1, 1, 0) and position 0, but the
        # two ballots are swapped, so the run goes on and converges.
        setup = family_setup(1, THEOREM1_NESTED, 2, 3)
        initial = GameState(BallotProfile((0, 1)), next_voter=0)
        outcome = run(initial, setup.configs, setup.tie)
        assert outcome.status == CONVERGED
        assert outcome.steps == 2
        assert outcome.trace[0].score_before == (1, 1, 0)
        assert outcome.trace[-1].score_after == (1, 1, 0)
        assert outcome.final == GameState(BallotProfile((1, 0)))

    def test_a_run_tallies_once(self, monkeypatch):
        # The scan takes each broadcast from the run, which tallies only
        # the initial ballots and applies each move to that score.
        calls = []

        def counted(ballots, m):
            calls.append(m)
            return tally(ballots, m)

        monkeypatch.setattr(credalvote.dynamics, "tally", counted)
        outcome = run(*_unpack(prop_setup()))
        assert outcome.steps == 5
        assert calls == [4]

    def test_a_cycle_that_starts_after_step_0(self):
        # Hurwicz at alpha = 1/3, below Theorem 2's bound of 1/2, with one
        # radius-1 layer, cycles from the truthful start at (4, 3).
        belief = LayeredBelief(kind=NESTED, radii=(1,),
                               weights=(Fraction(1),))
        rule = DecisionRule(HURWICZ, alpha=THIRD)
        configs = tuple(
            VoterConfig(preference=Preference(ranking), belief=belief,
                        rule=rule, utility=MEIR_SIGN)
            for ranking in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 2, 0)))
        game = (GameState(truthful_profile(configs)), configs, TIE3, 100)
        outcome = run(*game)
        assert (outcome.status, outcome.steps, outcome.cycle_start,
                outcome.cycle_length) == (CYCLE, 9, 1, 8)
        assert outcome == self.whole_state_run(*game)[0]

    def test_a_run_keeps_no_profile_per_step(self):
        # 300 moves at n = 1000: a run that kept each step's ballots would
        # hold 300 tuples of 1000 entries, about 8 KB each.
        n, m, moves = 1000, 6, 300
        rng = random.Random(0)
        ballots = [i % m for i in range(n)]
        rng.shuffle(ballots)
        belief = LayeredBelief(kind=NESTED, radii=(1,),
                               weights=(Fraction(1),))
        configs = tuple(
            VoterConfig(preference=Preference(tuple(rng.sample(range(m), m))),
                        belief=belief, rule=DecisionRule(PIGNISTIC),
                        utility=MEIR_SIGN)
            for _ in range(n))
        game = (GameState(BallotProfile(tuple(ballots))), configs,
                TieBreakOrder.default(m))
        # The first run fills the recentring and pair-count tables, so the
        # traced one allocates only what a run itself keeps.
        first = run(*game, max_steps=moves)
        tracemalloc.start()
        try:
            again = run(*game, max_steps=moves)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == first and first.steps == moves
        assert peak < 2048 * moves, peak

    @settings(deadline=None, max_examples=60)
    @given(small_games())
    def test_runs_are_deterministic_and_replayable(self, game):
        state, configs, tie = game
        first = run(state, configs, tie, max_steps=40)
        second = run(state, configs, tie, max_steps=40)
        assert first == second

        m = 3
        current = state.profile.ballots
        for i, record in enumerate(first.trace):
            assert record.step == i
            assert record.score_before == tally(current, m)
            current = list(current)
            current[record.voter] = record.to
            current = tuple(current)
            assert record.score_after == tally(current, m)
        assert first.final.profile.ballots == current
        if first.trace:
            assert first.final.next_voter == \
                (first.trace[-1].voter + 1) % state.profile.n

    @staticmethod
    def recentred(configs, broadcast):
        """True when some layered voter's fast path evaluates its moves at a
        least centre other than the broadcast."""
        return any(_least_centre(broadcast, c.belief.radii[-1]) != broadcast
                   for c in configs if isinstance(c.belief, LayeredBelief))

    # Three voters never lift a radius-1 least centre off the broadcast;
    # twenty or more do, so the fast path is checked where it recentres.
    GAMES = small_games() | small_games(voters=(20, 40))

    def test_every_executed_move_is_strict(self):
        recentred = []

        @settings(deadline=None, max_examples=80)
        @given(self.GAMES)
        def one_game(game):
            state, configs, tie = game
            outcome = run(state, configs, tie, max_steps=40)
            for record in outcome.trace:
                config = configs[record.voter]
                mass = config.mass_at(record.score_before)
                check = evaluate_move(mass, config.rule, config.utility,
                                      config.preference, record.frm,
                                      record.to, tie)
                assert check.verdict == STRICTLY_PREFERRED
                assert check.criterion_value == record.criterion_value
                recentred.append(self.recentred([config], record.score_before))

        one_game()
        assert any(recentred)

    def test_converged_finals_are_equilibria(self):
        recentred = []

        @settings(deadline=None, max_examples=80)
        @given(self.GAMES)
        def one_game(game):
            state, configs, tie = game
            outcome = run(state, configs, tie, max_steps=40)
            if outcome.status == CONVERGED:
                stable, _ = equilibrium_check(outcome.final, configs, tie)
                assert stable
                assert oracle_equilibrium(outcome.final, configs, tie)
                recentred.append(self.recentred(
                    configs, tally(outcome.final.profile.ballots, 3)))

        one_game()
        assert any(recentred)


class TestCampaign:
    def test_summary_accounting(self):
        summary = campaign(lambda seed: family_setup(seed, MEIR_R0), 20)
        assert [row[0] for row in summary.rows] == list(range(20))
        statuses = [row[1] for row in summary.rows]
        assert summary.convergence_rate == \
            Fraction(statuses.count(CONVERGED), 20)
        assert summary.max_steps_observed == max(r[2] for r in summary.rows)
        assert all(row[3] is None for row in summary.rows
                   if row[1] != CYCLE)

    def test_base_seed_offsets_rows(self):
        summary = campaign(lambda seed: family_setup(seed, MEIR_R0), 5,
                           base_seed=7)
        assert [row[0] for row in summary.rows] == [7, 8, 9, 10, 11]

    def test_count_validation(self):
        for count in (0, True, 2.5):
            with pytest.raises(ValueError, match="count must be"):
                campaign(lambda seed: family_setup(seed, MEIR_R0), count)

    def test_peak_memory_stays_flat_over_repeated_campaigns(self):
        # Four back-to-back 300-seed campaigns at n=12, m=4 over fresh seeds,
        # in a fresh interpreter so the peak is this workload's own. With
        # every table bounded the peak grows by about 3 MB after the first
        # campaign; with the unbounded module-level caches of commit 4814dcf
        # it grew from 61 to 136 MB.
        code = textwrap.dedent("""
            import resource, sys
            from credalvote import THEOREM1_NESTED, campaign, family_setup
            peaks = []
            for k in range(4):
                campaign(lambda seed: family_setup(seed, THEOREM1_NESTED,
                                                   12, 4), 300, 300 * k)
                peaks.append(resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss)
            # Linux counts ru_maxrss in KiB, macOS in bytes.
            unit = 1 << (20 if sys.platform == "darwin" else 10)
            print(*(p / unit for p in peaks))
            """)
        src = pathlib.Path(credalvote.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        first, *_, last = map(float, done.stdout.split())
        assert last - first < 16, done.stdout

    def test_single_voter_games_settle_in_at_most_one_move(self):
        from credalvote import FAMILIES
        for family in FAMILIES:
            for seed in range(25):
                setup = family_setup(seed, family, n=1, m=3)
                outcome = run(setup.initial, setup.configs, setup.tie,
                              setup.max_steps)
                assert outcome.status == CONVERGED, (family, seed)
                assert outcome.steps <= 1, (family, seed)


def _unpack(setup):
    return setup.initial, setup.configs, setup.tie
