"""Benchmark of credalvote: run one workload for a while and check its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--src src]

Each repetition runs in a fresh interpreter (`worker.py`), one at a time,
until `--seconds` have passed and at least three have run. With `--trace 0`
the result holds the end-to-end metrics, as medians over the repetitions.
Every timing is scaled to a reference host speed (see
REFERENCE_CALIBRATION_S); the report lines also give the measured medians.
With `--trace 1` untraced and traced repetitions alternate, and the result
holds the per-layer metrics of the traced ones plus the tracing overhead.

Every line but the last is for people: the context (Python, CPUs, the `src`
tree and its line count), each metric with its unit and sample count, and the
checks. The last line is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from worker import WORKLOADS  # noqa: E402  (the worker is a sibling script)

BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "digests.json")
WORKER_TIMEOUT_S = 150
MIN_REPS = 3          # untraced repetitions with --trace 0
MIN_EACH_TRACED = 2   # untraced and traced repetitions each, with --trace 1
P99_TAIL = 10         # samples that must lie beyond a reported p99
# Every timing is scaled by REFERENCE_CALIBRATION_S over the mean time the
# worker's calibration loop took in the samples it takes after set-up, through
# the timed region and after it. The shared 2-vCPU Xeon host this was built on
# changes speed by up to 2x for seconds to minutes at a time: over five seeds
# the median wall_s of 55 s electorate_large runs spread by about 20% (IQR over
# median), and by 2-3% once scaled. The value is about what the loop takes on
# that host when it is quiet, so scaled seconds read close to measured ones.
REFERENCE_CALIBRATION_S = 0.015


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def context(src: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = 0
    for root, _, names in os.walk(src):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "src": src,
            "src_lines": lines}


def repetition(args, workload: str, traced: bool, oracle: bool,
               index: int) -> dict:
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"),
           "--src", args.src, "--workload", workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--oracle", str(int(oracle))]
    if traced:
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--spans", os.path.join(
            ".bench_out", f"spans-{workload}-seed{args.seed}-rep{index}"
                          ".jsonl")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {index} ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"repetition {index} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["duration_s"] = time.monotonic() - started
    rep["traced"] = traced
    rep["measured"] = {"wall_s": rep["wall_s"],
                       "setup_s": rep["setup_end"] - started}
    speed = REFERENCE_CALIBRATION_S / statistics.mean(rep["calibration_s"])
    rep["setup_s"] = rep["measured"]["setup_s"] * speed
    rep["wall_s"] *= speed
    rep["cpu_s"] *= speed
    rep["run_ms"] = [x * speed for x in rep["run_ms"]]
    for name, value in (rep["layers"] or {}).items():
        if name.endswith("_s") and value is not None:
            rep["layers"][name] = value * speed
    return rep


def repetitions(args, workload: str) -> list[dict]:
    """Untraced (and, with --trace 1, traced) repetitions until time is up.

    A repetition is started only while it is expected to end inside the
    window, once the minimum count has run."""
    kinds = (False, True) if args.trace else (False,)
    least = MIN_EACH_TRACED * 2 if args.trace else MIN_REPS
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        if len(reps) >= least:
            expected = statistics.median(r["duration_s"] for r in reps[1:])
            if time.monotonic() - start + expected > args.seconds:
                return reps
        traced = kinds[len(reps) % len(kinds)]
        reps.append(repetition(args, workload, traced, oracle=not reps,
                               index=len(reps)))


def percentile_line(samples: list[float]) -> tuple[float | None, str]:
    """p99 and its sample note, or None when fewer than P99_TAIL lie beyond."""
    p99 = statistics.quantiles(samples, n=100)[98] if len(samples) > 1 else 0
    beyond = sum(1 for x in samples if x > p99)
    if beyond < P99_TAIL:
        return None, (f"not reported: {len(samples)} runs leave {beyond} "
                      f"beyond p99, {P99_TAIL} needed")
    return p99, f"{len(samples)} runs, {beyond} beyond"


def end_to_end(untraced: list[dict]) -> dict[str, tuple]:
    """name -> (value, unit, sample note); value None when not reported."""
    n = len(untraced)
    reps = f"median of {n} repetitions"
    scaled = reps + ", scaled"
    run_ms = [x for r in untraced for x in r["run_ms"]]
    p99, p99_note = percentile_line(run_ms)
    med = statistics.median
    return {
        "wall_s": (med(r["wall_s"] for r in untraced), "s", scaled),
        "cpu_s": (med(r["cpu_s"] for r in untraced), "s", scaled),
        "runs_per_s": (med(r["runs"] / r["wall_s"] for r in untraced), "1/s",
                       scaled),
        "steps_per_s": (med(r["steps"] / r["wall_s"] for r in untraced),
                        "1/s", scaled),
        "run_ms_p50": (med(run_ms), "ms",
                       f"median of {len(run_ms)} runs, scaled"),
        "run_ms_p99": (p99, "ms", p99_note),
        "peak_rss_mb": (med(r["peak_rss_kb"] / 1024 for r in untraced), "MB",
                        reps),
        "setup_s": (med(r["setup_s"] for r in untraced), "s",
                    f"median of {n} set-ups, scaled"),
    }


def per_layer(untraced: list[dict], traced: list[dict], units: dict,
              problems: list[str]) -> dict[str, tuple]:
    """Per-layer metrics of the traced repetitions: counts must repeat
    exactly, times are medians."""
    out = {}
    note = f"median of {len(traced)} traced repetitions, scaled"
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        values = [r["layers"].get(name) for r in traced]
        if any(v is None for v in values):
            out[name] = (None, unit, "not measured")
        elif unit == "s":
            out[name] = (statistics.median(values), unit, note)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced "
                                f"repetitions: {values}")
            out[name] = (values[0], unit, f"equal in {len(traced)} traced "
                                           f"repetitions")
    out["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced),
        "s", "traced minus untraced median wall_s")
    return out


def check(workload: str, seed: int, reps: list[dict],
          problems: list[str]) -> tuple[int, bool]:
    """Failed runs, and whether the seed has a pinned digest. Failed runs are
    those a repetition reported, plus every run of a repetition whose output
    digest is not the pinned one (or, unpinned, not the first repetition's)."""
    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)["digests"].get(workload, {})
    expected = pinned.get(str(seed), reps[0]["digest"])
    failed = 0
    for i, rep in enumerate(reps):
        kind = "traced" if rep["traced"] else "untraced"
        problems.extend(f"repetition {i}: {e}" for e in rep["errors"])
        problems.extend(f"repetition {i}: {a} left wrapped"
                        for a in rep["unrestored"])
        if rep["digest"] != expected:
            problems.append(f"repetition {i} ({kind}): output digest "
                            f"{rep['digest']} is not {expected}")
            failed += rep["runs"]
        else:
            failed += rep["failed"]
    return failed, str(seed) in pinned


def measure(args, workload: str, spec: dict) -> None:
    """Run one workload, print its report and, last, its result line."""
    listed = spec["per_layer" if args.trace else "end_to_end"]
    reps = repetitions(args, workload)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    problems: list[str] = []
    failed, pinned = check(workload, args.seed, reps, problems)
    attempted = sum(r["runs"] for r in reps)
    metrics = end_to_end(untraced)
    if traced:
        metrics.update(per_layer(untraced, traced,
                                 {m["name"]: m["unit"] for m in listed},
                                 problems))
    metrics["failed_frac"] = (failed / attempted, "1",
                              f"{failed} of {attempted} runs")
    first = reps[0]
    checks = {
        "oracle_checked": first["oracle_checked"],
        "digest": first["digest"],
        "digest_pinned": pinned,
        "same_output_every_repetition": len({r["digest"] for r in reps}) == 1,
        "problems": problems,
    }
    if traced:
        checks["hooks"] = traced[0]["hooks"]
    ctx = context(args.src)
    host = {
        "calibration_ms": 1000 * statistics.median(
            x for r in reps for x in r["calibration_s"]),
        "reference_ms": 1000 * REFERENCE_CALIBRATION_S,
        "measured_wall_s": statistics.median(
            r["measured"]["wall_s"] for r in untraced),
        "measured_setup_s": statistics.median(
            r["measured"]["setup_s"] for r in untraced),
    }

    print(f"workload {workload}, seed {args.seed}, trace {args.trace}: "
          f"{first['runs']} runs and {first['steps']} moves per repetition, "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions")
    print("  context: " + ", ".join(f"{k} {v}" for k, v in ctx.items()))
    print("  host: calibration loop {calibration_ms:.1f} ms (reference "
          "{reference_ms:.0f} ms); unscaled medians wall_s {measured_wall_s:.4f}"
          " s, setup_s {measured_setup_s:.4f} s".format(**host))
    for name, (value, unit, note) in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:32} {shown:>12} {unit:6} {note}")
    against = ("the pinned digest" if pinned
               else "the first repetition (no digest pinned for this seed)")
    oracle = (f"{first['oracle_checked']} converged final states pass the "
              f"equilibrium oracle" if first["oracle_checked"]
              else "no equilibrium oracle on this workload")
    print(f"  checks: {oracle}; every repetition's output digest compared "
          f"with {against}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print("report: " + json.dumps({
        "context": ctx, "host": host, "workload": workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u, "samples": s}
                    for k, (v, u, s) in metrics.items()},
        "checks": checks}))
    result = {}
    for m in listed:
        value, unit, note = metrics[m["name"]]
        result[m["name"]] = ({"value": value, "unit": unit} if value is not None
                             else {"value": None, "unit": unit, "note": note})
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": result}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"),
                        help="a workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default="src",
                        help="the credalvote source tree to measure")
    args = parser.parse_args(argv)

    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        if not os.path.isfile(os.path.join(args.src, "credalvote",
                                           "__init__.py")):
            raise BenchError(f"no credalvote package under {args.src!r}")
        # Compile the package's bytecode once, as any earlier use would have.
        warm = subprocess.run(
            [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, "
             "sys.argv[1]); import credalvote", os.path.abspath(args.src)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if warm.returncode != 0:
            raise BenchError(f"cannot import credalvote:\n{warm.stderr}")
        names = WORKLOADS if args.workload == "all" else [args.workload]
        for workload in names:
            measure(args, workload, spec)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
