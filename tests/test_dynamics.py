from fractions import Fraction

import pytest
from hypothesis import given, settings

from credalvote import (
    BallotProfile,
    CONVERGED,
    CYCLE,
    DecisionRule,
    FocalElement,
    GameState,
    LayeredBelief,
    MEIR_R0,
    MEIR_SIGN,
    MassFunction,
    MoveEvaluation,
    NESTED,
    PESSIMISTIC,
    Preference,
    STEP_LIMIT,
    STRICTLY_PREFERRED,
    TieBreakOrder,
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
from credalvote.oracles import oracle_equilibrium
from strategies import small_games

THIRD = Fraction(1, 3)
TIE3 = TieBreakOrder.default(3)


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

    def test_voter_config_validation(self):
        belief = LayeredBelief(kind=NESTED, radii=(1,),
                               weights=(Fraction(1),))
        with pytest.raises(ValueError):
            VoterConfig(preference=Preference((0, 1, 2)), belief=belief,
                        rule=DecisionRule(PESSIMISTIC), utility="bliss")
        with pytest.raises(TypeError):
            VoterConfig(preference=Preference((0, 1, 2)), belief=(1, 2),
                        rule=DecisionRule(PESSIMISTIC), utility=MEIR_SIGN)

    def test_game_state_validation(self):
        with pytest.raises(ValueError):
            GameState(profile=BallotProfile((0, 1)), step=-1)
        with pytest.raises(ValueError):
            GameState(profile=BallotProfile((0, 1)), next_voter=2)

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
        assert default_policy(options, Preference((0, 1, 2)), TIE3) == 2

    def test_value_ties_go_to_the_preferred_destination(self):
        options = [self.option(1, THIRD), self.option(2, THIRD)]
        assert default_policy(options, Preference((2, 1, 0)), TIE3) == 2
        assert default_policy(options, Preference((0, 1, 2)), TIE3) == 1


class TestStep:
    def test_scan_starts_at_next_voter(self):
        # both voters hold the same strict move; scheduler position decides
        mass = MassFunction(
            ((FocalElement.from_points([(1, 2, 3)]), Fraction(1)),))
        config = VoterConfig(preference=Preference((0, 1, 2)), belief=mass,
                             rule=DecisionRule(PESSIMISTIC), utility=MEIR_SIGN)
        profile = BallotProfile((0, 0))
        first = step(GameState(profile=profile), (config, config), TIE3)
        second = step(GameState(profile=profile, next_voter=1),
                      (config, config), TIE3)
        assert first is not None and second is not None
        assert first[1].voter == 0
        assert second[1].voter == 1
        assert first[0].next_voter == 1
        assert second[0].next_voter == 0

    def test_stable_state_returns_none(self):
        setup = scenario_to_setup(parse_scenario(fixture_text("equilibrium")))
        assert step(setup.initial, setup.configs, setup.tie) is None


class TestRun:
    def test_max_steps_validation(self):
        state, configs = oscillator()
        with pytest.raises(ValueError):
            run(state, configs, TIE3, max_steps=0)

    def test_cycle_detected(self):
        state, configs = oscillator()
        outcome = run(state, configs, TIE3)
        assert outcome.status == CYCLE
        assert outcome.steps == 2
        assert outcome.cycle_start == 0
        assert outcome.cycle_length == 2
        assert [(r.frm, r.to) for r in outcome.trace] == [(0, 1), (1, 0)]
        assert outcome.final.profile.ballots == (0,)

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

    def test_step_limit_on_contested_profile(self):
        outcome = run(*_unpack(prop_setup(max_steps=1)), max_steps=1)
        assert outcome.status == STEP_LIMIT
        assert outcome.steps == 1

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

    @settings(deadline=None, max_examples=60)
    @given(small_games())
    def test_every_executed_move_is_strict(self, game):
        state, configs, tie = game
        outcome = run(state, configs, tie, max_steps=40)
        for record in outcome.trace:
            config = configs[record.voter]
            mass = config.mass_at(record.score_before)
            check = evaluate_move(mass, config.rule, config.utility,
                                  config.preference, record.frm, record.to,
                                  tie)
            assert check.verdict == STRICTLY_PREFERRED
            assert check.criterion_value == record.criterion_value

    @settings(deadline=None, max_examples=60)
    @given(small_games())
    def test_converged_finals_are_equilibria(self, game):
        state, configs, tie = game
        outcome = run(state, configs, tie, max_steps=40)
        if outcome.status == CONVERGED:
            stable, _ = equilibrium_check(outcome.final, configs, tie)
            assert stable
            assert oracle_equilibrium(outcome.final, configs, tie)


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
        with pytest.raises(ValueError):
            campaign(lambda seed: family_setup(seed, MEIR_R0), 0)

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
