"""One benchmark repetition, in a fresh interpreter.

    python3 -I perfbench/worker.py --src SRC --workload NAME --seed N
        [--trace 0|1] [--oracle 0|1] [--spans PATH]

Set-up imports `credalvote` from SRC and generates the workload's inputs from
the seed. The timed region hands every input to the program, as the CLI
would, and ends with the CSV summary. The output checks run afterwards, and
one JSON object goes to stdout. `run.py` starts one of these per repetition
because the program's caches are module-global and unbounded: a second
repetition in the same process would measure caches no CLI user ever has.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

LABELS = "abcdefghijklmnopqrstuvwxyz"
# Inputs per repetition: enough that the work done (evaluations, points
# materialized) varies by only 3-4% from one workload seed to the next, while
# a repetition stays short enough for a run to hold several of them.
CAMPAIGN_RUNS = 300
ELECTORATE_RUNS = 8
ELECTORATE_MOVES = 500
# The calibration loop runs again after any input that ends this long after
# its last run, so its samples follow the host's speed through the timed
# region. Its time is taken out of wall_s and cpu_s.
CALIBRATE_EVERY_S = 0.3


def _campaign_mid(seed):
    # The reference campaign of the roadmap, n=12 and m=4 with truthful
    # starts, over consecutive instance seeds as `campaign --seed` runs them.
    base = seed * CAMPAIGN_RUNS
    return [("theorem1_nested", s, 12, 4)
            for s in range(base, base + CAMPAIGN_RUNS)]


def _electorate_large(seed):
    # Pignistic voters with one radius-1 layer, as the pignistic_uniform
    # family has them. Truthful or uniformly random starts at n=1000 are
    # already equilibria; a shuffled equal split across candidates makes
    # 800-870 moves. The last few hundred are 5-20 full passes over the
    # electorate, whose number varies by about 25% from one input to the
    # next, so each run stops at its 500th move, where the work per input
    # varies by about 7%.
    n, m = 1000, 6
    labels = list(LABELS[:m])
    texts = []
    for k in range(ELECTORATE_RUNS):
        rng = random.Random(f"electorate_large/{seed}/{k}")
        initial = [i % m for i in range(n)]
        rng.shuffle(initial)
        voters = []
        for _ in range(n):
            ranking = labels[:]
            rng.shuffle(ranking)
            voters.append({
                "preference": ranking,
                "belief": {"kind": "nested", "radii": [1], "weights": ["1"]},
                "rule": {"kind": "pignistic"},
                "utility": "meir_sign",
            })
        texts.append(json.dumps({
            "format_version": 1, "candidates": labels, "voters": voters,
            "initial_ballots": [labels[b] for b in initial],
            "scheduler": {"max_steps": ELECTORATE_MOVES}}))
    return texts


@dataclass
class Result:
    """What one input produced, kept for the checks after the timed region."""

    label: int
    family: str | None
    configs: tuple
    tie: object
    outcome: object
    candidates: object
    trace_text: str | None = None
    records: list | None = None
    parsed: tuple | None = None  # the trace read back, for simulate inputs


def _campaign_pipeline(cv, item, label):
    # What `credalvote campaign` does per seed; it writes no trace, so the
    # trace the digest needs is built after the timed region.
    family, seed, n, m = item
    setup = cv.scenario.family_setup(seed, family, n, m)
    outcome = cv.dynamics.run(setup.initial, setup.configs, setup.tie,
                              setup.max_steps)
    m = len(setup.configs[0].preference.ranking)
    return Result(seed, family, setup.configs, setup.tie, outcome,
                  cv.election.CandidateSet(tuple(LABELS[:m])))


def _simulate_pipeline(cv, text, label):
    scn = cv.scenario.parse_scenario(text)
    setup = cv.scenario.scenario_to_setup(scn)
    outcome = cv.dynamics.run(setup.initial, setup.configs, setup.tie,
                              setup.max_steps)
    records = [cv.scenario.trace_record(move, scn.candidates, scn.tie)
               for move in outcome.trace]
    trace_text = cv.scenario.emit_trace(records)
    return Result(label, scn.family, setup.configs, setup.tie, outcome,
                  scn.candidates, trace_text, records,
                  cv.scenario.parse_trace(trace_text))


def _untimed_trace(cv, res) -> None:
    """Give a campaign input the trace text the digest covers."""
    if res is not None and res.trace_text is None:
        res.trace_text = cv.scenario.emit_trace(
            [cv.scenario.trace_record(move, res.candidates, res.tie)
             for move in res.outcome.trace])


# name -> (input generator, pipeline)
WORKLOADS = {
    "campaign_mid": (_campaign_mid, _campaign_pipeline),
    "electorate_large": (_electorate_large, _simulate_pipeline),
}


def _summary_csv(cv, results):
    rows, cycles, converged, longest = [], [], 0, 0
    for res in results:
        if res is None:
            continue
        out = res.outcome
        rows.append((res.label, out.status, out.steps, out.cycle_length))
        longest = max(longest, out.steps)
        if out.status == cv.dynamics.CONVERGED:
            converged += 1
        elif out.status == cv.dynamics.CYCLE:
            cycles.append((res.label, out))
    summary = cv.dynamics.CampaignSummary(
        rows=tuple(rows), convergence_rate=Fraction(converged, len(results)),
        max_steps_observed=longest, cycle_outcomes=tuple(cycles))
    return cv.scenario.summary_csv(summary)


def _problems(cv, res, oracle) -> list[str]:
    out = res.outcome
    found = []
    if (res.family in cv.scenario.ASSERTING_FAMILIES
            and out.status != cv.dynamics.CONVERGED):
        found.append(f"family {res.family} ended {out.status}")
    for move in out.trace:
        if move.score_after != cv.election.apply_move(move.score_before,
                                                      move.frm, move.to):
            found.append(f"move at step {move.step} does not replay")
            break
    if res.parsed is not None and res.parsed != tuple(res.records):
        found.append("trace does not read back as written")
    if (oracle and out.status == cv.dynamics.CONVERGED
            and not cv.oracles.oracle_equilibrium(out.final, res.configs,
                                                  res.tie)):
        found.append("converged state fails the equilibrium oracle")
    return found


def _digest(csv_text, results) -> str:
    h = hashlib.sha256(csv_text.encode("utf-8"))
    for res in results:
        if res is None:
            h.update(b"error\n")
            continue
        ballots = " ".join(map(str, res.outcome.final.profile.ballots))
        h.update(f"final {ballots}\n".encode("utf-8"))
        h.update(res.trace_text.encode("utf-8"))
    return h.hexdigest()


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes, independent of credalvote.

    It does the kind of work the program does (exact Fraction arithmetic,
    tuple keys, dict updates), so it slows down with the program when other
    tenants of a shared host take its CPU; run.py divides every timing by it.
    """
    start = time.perf_counter()
    total, counts = Fraction(0), {}
    for i in range(1, 5000):
        total += Fraction(i % 7, i % 97 + 1)
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def _import_credalvote(src):
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import credalvote
    # Loads each module the benchmark calls as an attribute of the package.
    from credalvote import dynamics, election, oracles, scenario  # noqa: F401
    origin = os.path.abspath(credalvote.__file__)
    if not origin.startswith(src + os.sep):
        raise SystemExit(f"credalvote imported from {origin}, not from {src}")
    return credalvote


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)

    cv = _import_credalvote(args.src)
    generate, pipeline = WORKLOADS[args.workload]
    inputs = generate(args.seed)
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer(cv)
        tracer.install()

    setup_end = time.monotonic()
    calibration = [calibrate()]
    results, run_ms, errors = [], [], []
    paused = paused_cpu = 0.0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    calibrated = wall0
    for label, item in enumerate(inputs):
        if tracer is not None:
            tracer.run_id = label
        start = time.perf_counter()
        try:
            results.append(pipeline(cv, item, label))
        except Exception:
            results.append(None)
            errors.append(f"input {label}: {traceback.format_exc()}")
        run_ms.append((time.perf_counter() - start) * 1000)
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            pause, pause_cpu = time.perf_counter(), time.process_time()
            calibration.append(calibrate())
            calibrated = time.perf_counter()
            paused += calibrated - pause
            paused_cpu += time.process_time() - pause_cpu
    if tracer is not None:
        tracer.run_id = -1
    csv_text = _summary_csv(cv, results)
    wall = time.perf_counter() - wall0 - paused
    cpu = time.process_time() - cpu0 - paused_cpu
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration.append(calibrate())

    layers = hooks = None
    unrestored = []
    if tracer is not None:
        unrestored = tracer.restore()
        layers = tracer.layer_metrics()
        hooks = tracer.hook_status()
        if args.spans:
            tracer.write_spans(args.spans)

    for res in results:
        _untimed_trace(cv, res)
    if layers is not None:
        # The size of the trace every input ends with, whether the timed
        # region emitted it (simulate) or the digest needed it (campaign),
        # so it is measured on every workload.
        layers["scenario.trace_bytes"] = sum(
            len(res.trace_text.encode("utf-8"))
            for res in results if res is not None)
    oracle = bool(args.oracle)
    failed = 0
    for label, res in enumerate(results):
        if res is None:
            failed += 1
            continue
        found = _problems(cv, res, oracle)
        if found:
            failed += 1
            errors.append(f"input {label}: " + "; ".join(found))

    json.dump({
        "runs": len(inputs),
        "steps": sum(r.outcome.steps for r in results if r is not None),
        "wall_s": wall,
        "cpu_s": cpu,
        "run_ms": run_ms,
        "setup_end": setup_end,
        "calibration_s": calibration,
        "peak_rss_kb": peak_rss_kb,
        "digest": _digest(csv_text, results),
        "failed": failed,
        "errors": errors[:5],
        "oracle_checked": sum(1 for r in results if oracle and r is not None
                              and r.outcome.status == cv.dynamics.CONVERGED),
        "layers": layers,
        "hooks": hooks,
        "unrestored": unrestored,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
