"""Command-line front end.

Subcommands: simulate (run one scenario, emit a move trace and a summary),
check (is the initial state an equilibrium), verify (cross-check the fast
evaluation paths against the brute-force references), campaign (many seeded
runs of one family, CSV summary), and gen (emit a generated scenario).

Exit codes: 0 success, 1 validation problem, 2 failed verification or a
cycle in a family that asserts convergence.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .decision import evaluate_move
from .dynamics import CONVERGED, CYCLE, run, equilibrium_check
from .election import plurality_winner, tally
from .oracles import oracle_equilibrium, oracle_evaluation, oracle_pignistic
from .scenario import (
    ASSERTING_FAMILIES,
    FAMILIES,
    Scenario,
    ScenarioError,
    emit_scenario,
    emit_trace,
    family_setup,
    fixture_text,
    generate_instance,
    parse_scenario,
    scenario_to_setup,
    summary_csv,
    trace_record,
)
from .uncertainty import pignistic
from .dynamics import campaign as run_campaign


def _load_scenario(spec: str) -> Scenario:
    """Read a scenario from a path, or from the shipped fixtures by name."""
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    else:
        try:
            text = fixture_text(spec)
        except FileNotFoundError:
            raise ScenarioError(
                [f"{spec}: no such file and no fixture with that name"])
    return parse_scenario(text)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario)
    setup = scenario_to_setup(scenario)
    outcome = run(setup.initial, setup.configs, setup.tie, setup.max_steps)
    records = [trace_record(move, scenario.candidates, scenario.tie)
               for move in outcome.trace]
    _write(args.trace, emit_trace(records))
    final_scores = tally(outcome.final.profile.ballots, scenario.candidates.m)
    summary = {
        "status": outcome.status,
        "steps": outcome.steps,
        "final_scores": final_scores,
        "final_ballots": [scenario.candidates.labels[b]
                          for b in outcome.final.profile.ballots],
    }
    if outcome.status == CYCLE:
        summary["cycle_start"] = outcome.cycle_start
        summary["cycle_length"] = outcome.cycle_length
    if outcome.status == CONVERGED:
        summary["winner"] = scenario.candidates.labels[
            plurality_winner(final_scores, scenario.tie)]
    print(json.dumps(summary))
    return 0


def _cmd_check(args) -> int:
    scenario = _load_scenario(args.scenario)
    setup = scenario_to_setup(scenario)
    stable, witness = equilibrium_check(setup.initial, setup.configs, setup.tie)
    print(f"equilibrium: {'true' if stable else 'false'}")
    if witness is not None:
        voter, frm, to = witness
        labels = scenario.candidates.labels
        print(f"witness: voter={voter} from={labels[frm]} to={labels[to]}")
    return 0


def _cmd_verify(args) -> int:
    scenario = _load_scenario(args.scenario)
    setup = scenario_to_setup(scenario)
    state, configs, tie = setup.initial, setup.configs, setup.tie
    m = scenario.candidates.m
    labels = scenario.candidates.labels
    broadcast = tally(state.profile.ballots, m)

    mismatches = 0

    def report(ok: bool, what: str, detail: str = "") -> None:
        nonlocal mismatches
        if ok:
            print(f"ok: {what} agrees{detail}")
        else:
            mismatches += 1
            print(f"MISMATCH: {what} disagrees{detail}")

    stable, _ = equilibrium_check(state, configs, tie)
    report(stable == oracle_equilibrium(state, configs, tie),
           "equilibrium check", f" (equilibrium={str(stable).lower()})")

    for i, config in enumerate(configs):
        mass = config.mass_at(broadcast)
        report(pignistic(mass) == oracle_pignistic(mass),
               f"voter {i}: pignistic transform")
        frm = state.profile.ballots[i]
        for to in range(m):
            if to == frm:
                continue
            fast = evaluate_move(mass, config.rule, config.utility,
                                 config.preference, frm, to, tie)
            report(fast == oracle_evaluation(mass, config, frm, to, tie),
                   f"voter {i}: move {labels[frm]}->{labels[to]} evaluation")

    if mismatches:
        print(f"{mismatches} mismatch(es)")
        return 2
    print("all checks agree")
    return 0


def _cmd_campaign(args) -> int:
    if args.count < 1:
        raise ScenarioError(["--count must be at least 1"])
    summary = run_campaign(
        lambda seed: family_setup(seed, args.family, args.voters,
                                  args.candidates),
        args.count, base_seed=args.seed)
    _write(args.out, summary_csv(summary))
    rate = summary.convergence_rate
    print(f"convergence_rate: {rate} ({float(rate):.4f})", file=sys.stderr)
    print(f"max_steps_observed: {summary.max_steps_observed}", file=sys.stderr)
    print(f"cycles: {len(summary.cycle_outcomes)}", file=sys.stderr)
    for seed, outcome in summary.cycle_outcomes:
        print(f"cycle at seed {seed}: length {outcome.cycle_length}",
              file=sys.stderr)
    if args.family in ASSERTING_FAMILIES and rate != 1:
        print(f"family {args.family!r} asserts convergence; run failed",
              file=sys.stderr)
        return 2
    return 0


def _cmd_gen(args) -> int:
    scenario = generate_instance(args.seed, args.voters, args.candidates,
                                 args.family)
    _write(args.out, emit_scenario(scenario))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credalvote",
        description="Strategic plurality voting under belief-function "
                    "uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario to equilibrium, "
                                        "cycle, or the step limit")
    p.add_argument("scenario", help="scenario path or fixture name")
    p.add_argument("--trace", help="write the move trace here instead of "
                                   "stdout")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check", help="test whether the initial state is an "
                                     "equilibrium")
    p.add_argument("scenario", help="scenario path or fixture name")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="cross-check fast paths against "
                                      "brute-force references")
    p.add_argument("scenario", help="scenario path or fixture name")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("campaign", help="run many seeded instances of one "
                                        "family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--voters", type=int, help="pin the voter count")
    p.add_argument("--candidates", type=int, help="pin the candidate count")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("gen", help="emit a generated scenario")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--voters", type=int, required=True)
    p.add_argument("--candidates", type=int, required=True)
    p.add_argument("--out", help="write the scenario here instead of stdout")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except ScenarioError as e:
        for msg in e.errors:
            print(f"error: {msg}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
