"""Release gate: one test per shipped acceptance criterion.

Each test prints its own `criterion N: PASS|FAIL` line with the mismatches,
so `pytest -v` gives one line per criterion twice over. Exact rational
equality everywhere; the campaign criteria are statistical only in the sense
that they run many seeded instances, each checked exactly.
"""
import random
import time
from fractions import Fraction

from credalvote import (
    CYCLE,
    DecisionRule,
    FocalElement,
    HURWICZ,
    L1_ADDREMOVE,
    MEIR_R0,
    MEIR_SIGN,
    MIXTURE,
    MassFunction,
    PESSIMISTIC,
    PIGNISTIC,
    PartialPreference,
    Preference,
    STRICTLY_PREFERRED,
    THEOREM1_NESTED,
    THEOREM1_PARTITIONED,
    THEOREM2_HURWICZ,
    TieBreakOrder,
    VOTER_SWAP,
    campaign,
    dominating_manipulation,
    evaluate_move,
    family_setup,
    fixture_text,
    lower_expectation,
    neighborhood,
    parse_scenario,
    pignistic,
    plurality_winner,
    run,
    scenario_to_setup,
    upper_expectation,
)
from credalvote.oracles import (
    oracle_dominance,
    oracle_evaluation,
    oracle_lower_expectation,
    oracle_pignistic,
    oracle_upper_expectation,
    raw_move_utility,
)


# Proposition 1: pignistic voters have no convergence guarantee. Three of them
# over radius-1 voter-swap balls, re-centred on each broadcast score, cycle
# from ballots (b, c, d) after three moves. The bundled prop1_counterexample
# fixture converges and is no cycle witness.
CONTESTED_RACE = """{
  "format_version": 1,
  "candidates": ["a", "b", "c", "d"],
  "tie_break": ["a", "b", "c", "d"],
  "voters": [
    {"preference": ["d", "a", "b", "c"],
     "belief": {"kind": "nested", "metric": "voter_swap", "radii": [1],
                "weights": ["1"]},
     "rule": {"kind": "pignistic"}, "utility": "meir_sign"},
    {"preference": ["c", "b", "d", "a"],
     "belief": {"kind": "nested", "metric": "voter_swap", "radii": [1],
                "weights": ["1"]},
     "rule": {"kind": "pignistic"}, "utility": "meir_sign"},
    {"preference": ["b", "a", "c", "d"],
     "belief": {"kind": "nested", "metric": "voter_swap", "radii": [1],
                "weights": ["1"]},
     "rule": {"kind": "pignistic"}, "utility": "meir_sign"}
  ],
  "initial_ballots": ["b", "c", "d"],
  "scheduler": {"max_steps": 10000}
}"""


def _finish(num: int, problems: list):
    print(f"criterion {num}: {'FAIL' if problems else 'PASS'}")
    for p in problems:
        print(f"  {p}")
    assert not problems


def _random_mass(rng: random.Random, singletons: bool = False) -> MassFunction:
    focals = {}
    for _ in range(rng.randint(1, 4)):
        size = 1 if singletons else rng.randint(1, 4)
        pts = {tuple(rng.randint(0, 3) for _ in range(3))
               for _ in range(size)}
        focals[tuple(sorted(pts))] = None
    keys = list(focals)
    parts = [rng.randint(1, 9) for _ in keys]
    total = sum(parts)
    return MassFunction(tuple(
        (FocalElement.from_points(k), Fraction(p, total))
        for k, p in zip(keys, parts)))


def test_criterion_1_hesitating_voter_evaluation():
    started = time.perf_counter()
    problems = []
    scenario = parse_scenario(fixture_text("example4"))
    setup = scenario_to_setup(scenario)
    voter = scenario.voters[1]
    frm = setup.initial.profile.ballots[1]
    to = scenario.candidates.labels.index("c")
    out = evaluate_move(voter.belief, voter.rule, voter.utility,
                        voter.preference, frm, to, scenario.tie)
    if out.lower != 0:
        problems.append(f"lower expectation {out.lower}, expected 0")
    if out.upper != 1:
        problems.append(f"upper expectation {out.upper}, expected 1")
    if voter.rule != DecisionRule(HURWICZ, alpha=Fraction(1, 3)):
        problems.append(f"fixture rule {voter.rule}, expected Hurwicz 1/3")
    if out.criterion_value != Fraction(2, 3):
        problems.append(f"criterion value {out.criterion_value}, expected 2/3")
    if out.verdict != STRICTLY_PREFERRED:
        problems.append(f"verdict {out.verdict!r}, expected strict")
    elapsed = time.perf_counter() - started
    if elapsed >= 1:
        problems.append(f"took {elapsed:.2f} s, budget 1 s")
    _finish(1, problems)


def test_criterion_2_contested_race_cycles():
    started = time.perf_counter()
    problems = []
    setup = scenario_to_setup(parse_scenario(CONTESTED_RACE))
    outcome = run(setup.initial, setup.configs, setup.tie, setup.max_steps)

    if outcome.status != CYCLE:
        problems.append(f"status {outcome.status!r} after {outcome.steps} "
                        f"moves, expected 'cycle'")
    if (outcome.cycle_start, outcome.cycle_length) != (3, 4):
        problems.append(f"cycle starts after {outcome.cycle_start} moves "
                        f"with length {outcome.cycle_length}, expected 3 "
                        f"and 4")
    # (score before, voter, from, to, improving-minus-worsening count)
    claimed = (
        ((0, 2, 0, 1), 0, 3, 0, 1),
        ((1, 2, 0, 0), 1, 1, 2, 1),
        ((1, 1, 1, 0), 0, 0, 3, 2),
        ((0, 1, 1, 1), 1, 2, 1, 1),
    )
    start = outcome.cycle_start or 0
    cyclic = outcome.trace[start:]
    actual_moves = tuple((r.score_before, r.voter, r.frm, r.to)
                         for r in cyclic)
    expected_moves = tuple(c[:4] for c in claimed)
    if actual_moves != expected_moves:
        problems.append(f"moves {actual_moves}, expected {expected_moves}")
    if cyclic and cyclic[-1].score_after != cyclic[0].score_before:
        problems.append(f"last move ends at {cyclic[-1].score_after}, not "
                        f"at the first move's {cyclic[0].score_before}")

    # every count and verdict recomputed by the oracles over the raw ball
    tie = setup.tie

    def ball_mass(state):
        return MassFunction(((neighborhood(state, VOTER_SWAP, 1),
                              Fraction(1)),))

    for state, voter, frm, to, expected in claimed:
        config = setup.configs[voter]
        mass = ball_mass(state)
        oracle = sum(raw_move_utility(MEIR_SIGN, config.preference, frm, to,
                                      s, tie)
                     for s in neighborhood(state, VOTER_SWAP, 1).points)
        # The fast path's pignistic value over the voter's one ball, times
        # the ball's point count.
        fast_mass = config.mass_at(state)
        (ball, _), = fast_mass.assignments
        fast = evaluate_move(fast_mass, DecisionRule(PIGNISTIC), MEIR_SIGN,
                             config.preference, frm, to,
                             tie).pignistic_value * len(ball.points)
        if not oracle == fast == expected > 0:
            problems.append(f"net count at {state} for voter {voter} "
                            f"{frm}->{to}: oracle {oracle}, fast {fast}, "
                            f"expected {expected}")
        if (oracle_evaluation(mass, config, frm, to, tie).verdict
                != STRICTLY_PREFERRED):
            problems.append(f"oracle finds voter {voter}'s {frm}->{to} at "
                            f"{state} not strict")

    # the round-robin scan passes over voter 2 twice per cycle; the oracle
    # must find no strict move for it there
    ballots = list(setup.initial.profile.ballots)
    n = len(ballots)
    m = len(setup.tie.order)
    passed_over = []
    for record in outcome.trace:
        if record.step >= start:
            k = ((outcome.trace[record.step - 1].voter + 1) % n
                 if record.step else setup.initial.next_voter)
            while k != record.voter:
                passed_over.append((record.score_before, k))
                mass = ball_mass(record.score_before)
                for to in range(m):
                    if to != ballots[k] and oracle_evaluation(
                            mass, setup.configs[k], ballots[k], to,
                            tie).verdict == STRICTLY_PREFERRED:
                        problems.append(f"scan passed over voter {k} at "
                                        f"{record.score_before}, but the "
                                        f"oracle finds {ballots[k]}->{to} "
                                        f"strict")
                k = (k + 1) % n
        ballots[record.voter] = record.to
    if passed_over != [((0, 2, 0, 1), 2), ((1, 1, 1, 0), 2)]:
        problems.append(f"scan passed over {passed_over}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1:
        problems.append(f"took {elapsed:.2f} s, budget 1 s")
    _finish(2, problems)


def test_criterion_3_neighborhood_sets():
    problems = []
    l1 = set(neighborhood((2, 2, 3, 3), L1_ADDREMOVE, 1).points)
    expected_l1 = {
        (2, 2, 3, 3), (1, 2, 3, 3), (2, 1, 3, 3), (2, 2, 2, 3), (2, 2, 3, 2),
        (3, 2, 3, 3), (2, 3, 3, 3), (2, 2, 4, 3), (2, 2, 3, 4)}
    if l1 != expected_l1:
        problems.append(f"radius-1 add/remove ball off by "
                        f"{l1 ^ expected_l1}")
    swap = set(neighborhood((0, 2, 1), VOTER_SWAP, 1).points)
    expected_swap = {(0, 2, 1), (1, 1, 1), (0, 1, 2), (1, 2, 0)}
    if swap != expected_swap:
        problems.append(f"radius-1 swap ball off by {swap ^ expected_swap}")
    _finish(3, problems)


def test_criterion_4_layered_pessimistic_campaigns_converge():
    started = time.perf_counter()
    problems = []
    for family in (THEOREM1_NESTED, THEOREM1_PARTITIONED):
        summary = campaign(lambda seed: family_setup(seed, family), 1000)
        if summary.convergence_rate != 1:
            problems.append(f"{family}: convergence rate "
                            f"{summary.convergence_rate}, expected exactly 1")
        if summary.cycle_outcomes:
            problems.append(f"{family}: {len(summary.cycle_outcomes)} cycles")
    elapsed = time.perf_counter() - started
    if elapsed >= 120:
        problems.append(f"took {elapsed:.1f} s, budget 120 s")
    _finish(4, problems)


def test_criterion_5_hurwicz_campaign_never_cycles():
    started = time.perf_counter()
    problems = []
    summary = campaign(lambda seed: family_setup(seed, THEOREM2_HURWICZ),
                       1000)
    if summary.cycle_outcomes:
        problems.append(f"{len(summary.cycle_outcomes)} cycles, expected none")
    cycle_rows = [row for row in summary.rows if row[1] == CYCLE]
    if cycle_rows:
        problems.append(f"cycle rows: {cycle_rows[:5]}")
    elapsed = time.perf_counter() - started
    if elapsed >= 120:
        problems.append(f"took {elapsed:.1f} s, budget 120 s")
    _finish(5, problems)


def test_criterion_6_singleton_beliefs_move_to_the_new_winner():
    problems = []
    for seed in range(500):
        setup = family_setup(seed, MEIR_R0)
        outcome = run(setup.initial, setup.configs, setup.tie,
                      setup.max_steps)
        if outcome.status == CYCLE:
            problems.append(f"seed {seed}: cycle of length "
                            f"{outcome.cycle_length}")
        for record in outcome.trace:
            winner = plurality_winner(record.score_after, setup.tie)
            if winner != record.to:
                problems.append(f"seed {seed} step {record.step}: moved to "
                                f"{record.to} but the winner is {winner}")
    _finish(6, problems[:10])


def test_criterion_7_expectation_operators_match_the_selection_oracle():
    rng = random.Random(74)
    problems = []
    for case in range(10_000):
        mass = _random_mass(rng)
        points = set().union(*(f.points for f, _ in mass.assignments))
        u = {s: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
             for s in sorted(points)}
        if lower_expectation(mass, u) != oracle_lower_expectation(mass, u):
            problems.append(f"case {case}: lower expectation diverges")
        if upper_expectation(mass, u) != oracle_upper_expectation(mass, u):
            problems.append(f"case {case}: upper expectation diverges")
        if pignistic(mass) != oracle_pignistic(mass):
            problems.append(f"case {case}: pignistic transform diverges")
        if problems:
            break
    _finish(7, problems)


def test_criterion_8_certainty_collapses_the_rules():
    rng = random.Random(75)
    problems = []
    tie = TieBreakOrder.default(3)
    rules = (DecisionRule(PESSIMISTIC), DecisionRule(PIGNISTIC),
             DecisionRule(MIXTURE, alpha=Fraction(1, 2)),
             DecisionRule(HURWICZ, alpha=Fraction(1, 2)))
    for case in range(1000):
        ranking = list(range(3))
        rng.shuffle(ranking)
        pref = Preference(tuple(ranking))
        frm, to = rng.randint(0, 2), rng.randint(0, 2)

        bayes = _random_mass(rng, singletons=True)
        verdicts = {evaluate_move(bayes, rule, MEIR_SIGN, pref, frm, to,
                                  tie).verdict for rule in rules}
        if len(verdicts) != 1:
            problems.append(f"case {case}: bayesian verdicts differ: "
                            f"{sorted(verdicts)}")

        mass = _random_mass(rng)
        mix0 = evaluate_move(mass, DecisionRule(MIXTURE, alpha=0), MEIR_SIGN,
                             pref, frm, to, tie)
        pig = evaluate_move(mass, DecisionRule(PIGNISTIC), MEIR_SIGN, pref,
                            frm, to, tie)
        if (mix0.criterion_value, mix0.verdict) != (pig.criterion_value,
                                                    pig.verdict):
            problems.append(f"case {case}: mixture(0) deviates from the "
                            f"pignistic rule")
        hur1 = evaluate_move(mass, DecisionRule(HURWICZ, alpha=1), MEIR_SIGN,
                             pref, frm, to, tie)
        if (hur1.criterion_value > 0) != (hur1.lower > 0):
            problems.append(f"case {case}: hurwicz(1) sign deviates from "
                            f"the lower expectation sign")
        if problems:
            break
    _finish(8, problems)


def test_criterion_9_dominance_agrees_with_the_extension_oracle():
    """Incomplete preferences: dominating manipulation over one product
    mass agrees with a scan of every completion of the others' partial
    orders (Conitzer, Walsh & Xia, "Dominating manipulations in voting with
    partial information", AAAI 2011), on 500 seeded cases."""
    rng = random.Random(76)
    tie = TieBreakOrder.default(3)
    all_pairs = [(x, y) for x in range(3) for y in range(3) if x != y]
    problems = []

    def random_partial():
        while True:
            chosen = rng.sample(all_pairs, rng.randint(0, 3))
            try:
                return PartialPreference(chosen)
            except ValueError:
                continue

    for case in range(500):
        ranking = list(range(3))
        rng.shuffle(ranking)
        pref = Preference(tuple(ranking))
        others = [random_partial() for _ in range(rng.randint(1, 3))]
        frm = rng.randint(0, 2)
        to = (frm + rng.randint(1, 2)) % 3
        fast = dominating_manipulation(pref, others, frm, to, tie)
        slow = oracle_dominance(pref, others, frm, to, tie)
        if fast != slow:
            problems.append(f"case {case}: fast {fast}, oracle {slow}")
            break
    _finish(9, problems)
