"""Scenario files, trace records, and seeded instance generation.

A scenario is a JSON object describing one election game: candidates, a
tie-break order, per-voter preferences, beliefs, decision rules, and utility
models, plus initial ballots and scheduler settings. Parsing collects every
validation error instead of stopping at the first; emission is canonical
(fixed key order, rationals as "p/q" strings) so parse(emit(x)) == x.

Belief variants in the `belief` object, by `kind`:

  nested | partitioned   layered neighborhoods re-centered on each broadcast
                         score: {"kind", "metric"?, "radii", "weights"}
  fixed_mass             an explicit mass: {"assignments": [{"focal", "weight"}]}
  set                    one focal element with weight 1: {"focal": ...}
  probability            singleton focal elements: {"support":
                         [{"score", "prob"}]}

A focal element is {"points": [[...], ...]} or {"box": [[lo, hi], ...],
"total"?: int}.
"""
from __future__ import annotations

import io
import csv
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib.resources import files

from .decision import (
    DIRECT_BEST_RESPONSE,
    HURWICZ,
    MEIR_SIGN,
    PESSIMISTIC,
    PIGNISTIC,
    RULE_KINDS,
    UTILITY_MODELS,
    DecisionRule,
)
from .dynamics import (
    DEFAULT_MAX_STEPS,
    CampaignSummary,
    GameState,
    MoveRecord,
    RunSetup,
    VoterConfig,
    truthful_profile,
)
from .election import (
    BallotProfile,
    CandidateSet,
    Preference,
    Score,
    TieBreakOrder,
    plurality_winner,
)
from .uncertainty import (
    L1_ADDREMOVE,
    METRICS,
    NESTED,
    PARTITIONED,
    FocalElement,
    LayeredBelief,
    MassFunction,
)

FORMAT_VERSION = 1

THEOREM1_NESTED = "theorem1_nested"
THEOREM1_PARTITIONED = "theorem1_partitioned"
THEOREM2_HURWICZ = "theorem2_hurwicz"
PIGNISTIC_UNIFORM = "pignistic_uniform"
MEIR_R0 = "meir_r0"
FAMILIES = (THEOREM1_NESTED, THEOREM1_PARTITIONED, THEOREM2_HURWICZ,
            PIGNISTIC_UNIFORM, MEIR_R0)
# Families whose runs carry a convergence claim; a cycle in one is a failure,
# not a finding.
ASSERTING_FAMILIES = (THEOREM1_NESTED, THEOREM1_PARTITIONED,
                      THEOREM2_HURWICZ, MEIR_R0)
_THEOREM_FAMILIES = (THEOREM1_NESTED, THEOREM1_PARTITIONED, THEOREM2_HURWICZ)

HURWICZ_ALPHAS = (Fraction(51, 100), Fraction(2, 3), Fraction(9, 10),
                  Fraction(1))


class ScenarioError(ValueError):
    """All validation problems found in one scenario or trace text."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class Scenario:
    """One parsed election game. `initial_ballots` of None means truthful."""

    candidates: CandidateSet
    tie: TieBreakOrder
    voters: tuple[VoterConfig, ...]
    initial_ballots: tuple[int, ...] | None = None
    max_steps: int = DEFAULT_MAX_STEPS
    seed: int | None = None
    family: str | None = None


@dataclass(frozen=True)
class TraceRecord:
    """One executed move with candidate labels and both winners."""

    step: int
    voter: int
    frm: str
    to: str
    criterion_value: Fraction
    score_before: Score
    score_after: Score
    winner_before: str
    winner_after: str


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_fraction(value, path: str, errors: list[str]) -> Fraction | None:
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            errors.append(f"{path}: not a rational number: {value!r}")
            return None
    errors.append(f'{path}: rationals must be "p/q" strings or integers')
    return None


def _parse_score(value, m: int | None, path: str, errors: list[str]) -> Score | None:
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        errors.append(f"{path}: expected a list of integers")
        return None
    if any(x < 0 for x in value):
        errors.append(f"{path}: score entries must be nonnegative")
        return None
    if m is not None and len(value) != m:
        errors.append(f"{path}: expected {m} entries, got {len(value)}")
        return None
    return tuple(value)


def _parse_focal(raw, m: int | None, path: str,
                 errors: list[str]) -> FocalElement | None:
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected an object with points or box")
        return None
    has_points = "points" in raw
    has_box = "box" in raw
    if has_points == has_box:
        errors.append(f"{path}: needs exactly one of points or box")
        return None
    try:
        if has_points:
            pts = raw["points"]
            if not isinstance(pts, list) or not pts:
                errors.append(f"{path}.points: expected a nonempty list")
                return None
            scores = [_parse_score(p, m, f"{path}.points[{i}]", errors)
                      for i, p in enumerate(pts)]
            if any(s is None for s in scores):
                return None
            return FocalElement.from_points(scores)
        box = raw["box"]
        if (not isinstance(box, list)
                or not all(isinstance(iv, list) and len(iv) == 2
                           and all(_is_int(x) for x in iv) for iv in box)):
            errors.append(f"{path}.box: expected a list of [lo, hi] pairs")
            return None
        if m is not None and len(box) != m:
            errors.append(f"{path}.box: expected {m} intervals, got {len(box)}")
            return None
        total = raw.get("total")
        if total is not None and not _is_int(total):
            errors.append(f"{path}.total: expected an integer")
            return None
        return FocalElement.from_box(box, total)
    except ValueError as e:
        errors.append(f"{path}: {e}")
        return None


def _parse_belief(raw, m: int | None, path: str,
                  errors: list[str]) -> LayeredBelief | MassFunction | None:
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected an object")
        return None
    kind = raw.get("kind")
    if kind in (NESTED, PARTITIONED):
        metric = raw.get("metric", L1_ADDREMOVE)
        if metric not in METRICS:
            errors.append(f"{path}.metric: unknown metric {metric!r}, "
                          f"expected one of {list(METRICS)}")
            return None
        radii = raw.get("radii")
        if (not isinstance(radii, list) or not radii
                or not all(_is_int(r) for r in radii)):
            errors.append(f"{path}.radii: expected a nonempty list of integers")
            return None
        raw_weights = raw.get("weights")
        if not isinstance(raw_weights, list) or not raw_weights:
            errors.append(f"{path}.weights: expected a nonempty list")
            return None
        weights = [_parse_fraction(w, f"{path}.weights[{i}]", errors)
                   for i, w in enumerate(raw_weights)]
        if any(w is None for w in weights):
            return None
        try:
            return LayeredBelief(kind=kind, radii=tuple(radii),
                                 weights=tuple(weights), metric=metric)
        except ValueError as e:
            errors.append(f"{path}: {e}")
            return None
    if kind == "fixed_mass":
        assignments = raw.get("assignments")
        if not isinstance(assignments, list) or not assignments:
            errors.append(f"{path}.assignments: expected a nonempty list")
            return None
        pairs = []
        for i, entry in enumerate(assignments):
            sub = f"{path}.assignments[{i}]"
            if not isinstance(entry, dict):
                errors.append(f"{sub}: expected an object")
                return None
            focal = _parse_focal(entry.get("focal"), m, f"{sub}.focal", errors)
            weight = _parse_fraction(entry.get("weight"), f"{sub}.weight", errors)
            if focal is None or weight is None:
                return None
            pairs.append((focal, weight))
        try:
            return MassFunction(tuple(pairs))
        except ValueError as e:
            errors.append(f"{path}: {e}")
            return None
    if kind == "set":
        focal = _parse_focal(raw.get("focal"), m, f"{path}.focal", errors)
        if focal is None:
            return None
        try:
            return MassFunction(((focal, Fraction(1)),))
        except ValueError as e:
            errors.append(f"{path}: {e}")
            return None
    if kind == "probability":
        support = raw.get("support")
        if not isinstance(support, list) or not support:
            errors.append(f"{path}.support: expected a nonempty list")
            return None
        pairs = []
        for i, entry in enumerate(support):
            sub = f"{path}.support[{i}]"
            if not isinstance(entry, dict):
                errors.append(f"{sub}: expected an object")
                return None
            score = _parse_score(entry.get("score"), m, f"{sub}.score", errors)
            prob = _parse_fraction(entry.get("prob"), f"{sub}.prob", errors)
            if score is None or prob is None:
                return None
            pairs.append((FocalElement.from_points([score]), prob))
        try:
            return MassFunction(tuple(pairs))
        except ValueError as e:
            errors.append(f"{path}: {e}")
            return None
    errors.append(f"{path}.kind: unknown belief kind {kind!r}, expected one of "
                  f"['nested', 'partitioned', 'fixed_mass', 'set', 'probability']")
    return None


def _parse_rule(raw, path: str, errors: list[str]) -> DecisionRule | None:
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected an object")
        return None
    kind = raw.get("kind")
    if kind not in RULE_KINDS:
        errors.append(f"{path}.kind: unknown rule {kind!r}, expected one of "
                      f"{list(RULE_KINDS)}")
        return None
    alpha = None
    if "alpha" in raw:
        alpha = _parse_fraction(raw["alpha"], f"{path}.alpha", errors)
        if alpha is None:
            return None
    try:
        return DecisionRule(kind=kind, alpha=alpha)
    except ValueError as e:
        errors.append(f"{path}: {e}")
        return None


def _parse_labels(raw, candidates: CandidateSet | None, path: str,
                  errors: list[str]) -> tuple[int, ...] | None:
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        errors.append(f"{path}: expected a list of candidate labels")
        return None
    if candidates is None:
        return None
    out = []
    ok = True
    for i, label in enumerate(raw):
        if label not in candidates.labels:
            errors.append(f"{path}[{i}]: unknown candidate label {label!r}")
            ok = False
        else:
            out.append(candidates.index(label))
    return tuple(out) if ok else None


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario JSON, reporting every problem found."""
    errors: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError([f"invalid JSON: {e}"])
    if not isinstance(raw, dict):
        raise ScenarioError(["top level must be a JSON object"])

    if raw.get("format_version") != FORMAT_VERSION:
        errors.append(f"format_version: expected {FORMAT_VERSION}")

    known = {"format_version", "candidates", "tie_break", "voters",
             "initial_ballots", "scheduler", "seed", "family"}
    for key in sorted(set(raw) - known):
        errors.append(f"{key}: unknown field")

    candidates = None
    raw_candidates = raw.get("candidates")
    if (not isinstance(raw_candidates, list)
            or not all(isinstance(x, str) for x in raw_candidates)):
        errors.append("candidates: expected a list of labels")
    else:
        try:
            candidates = CandidateSet(tuple(raw_candidates))
        except ValueError as e:
            errors.append(f"candidates: {e}")
    m = candidates.m if candidates is not None else None

    tie = None
    if "tie_break" in raw:
        order = _parse_labels(raw["tie_break"], candidates, "tie_break", errors)
        if order is not None:
            try:
                tie = TieBreakOrder(order)
            except ValueError as e:
                errors.append(f"tie_break: {e}")
    elif candidates is not None:
        tie = TieBreakOrder.default(candidates.m)

    voters: list[VoterConfig | None] = []
    raw_voters = raw.get("voters")
    if not isinstance(raw_voters, list) or not raw_voters:
        errors.append("voters: expected a nonempty list")
        raw_voters = []
    for i, rv in enumerate(raw_voters):
        path = f"voters[{i}]"
        if not isinstance(rv, dict):
            errors.append(f"{path}: expected an object")
            voters.append(None)
            continue
        pref = None
        ranking = _parse_labels(rv.get("preference"), candidates,
                                f"{path}.preference", errors)
        if ranking is not None:
            try:
                pref = Preference(ranking)
            except ValueError as e:
                errors.append(f"{path}.preference: {e}")
        belief = _parse_belief(rv.get("belief"), m, f"{path}.belief", errors)
        rule = _parse_rule(rv.get("rule"), f"{path}.rule", errors)
        utility = rv.get("utility")
        if utility not in UTILITY_MODELS:
            errors.append(f"{path}.utility: unknown utility model {utility!r}, "
                          f"expected one of {list(UTILITY_MODELS)}")
            utility = None
        if None in (pref, belief, rule, utility):
            voters.append(None)
        else:
            voters.append(VoterConfig(preference=pref, belief=belief,
                                      rule=rule, utility=utility))

    initial = None
    raw_initial = raw.get("initial_ballots", "truthful")
    if raw_initial != "truthful":
        initial = _parse_labels(raw_initial, candidates, "initial_ballots",
                                errors)
        if initial is not None and len(initial) != len(raw_voters):
            errors.append(f"initial_ballots: expected {len(raw_voters)} "
                          f"ballots, got {len(initial)}")
            initial = None

    max_steps = DEFAULT_MAX_STEPS
    if "scheduler" in raw:
        sched = raw["scheduler"]
        if not isinstance(sched, dict):
            errors.append("scheduler: expected an object")
        else:
            for key in sorted(set(sched) - {"max_steps"}):
                errors.append(f"scheduler.{key}: unknown field")
            if "max_steps" in sched:
                if not _is_int(sched["max_steps"]) or sched["max_steps"] < 1:
                    errors.append("scheduler.max_steps: expected a positive "
                                  "integer")
                else:
                    max_steps = sched["max_steps"]

    seed = raw.get("seed")
    if seed is not None and not _is_int(seed):
        errors.append("seed: expected an integer")
        seed = None

    family = raw.get("family")
    if family is not None:
        if family not in FAMILIES:
            errors.append(f"family: unknown family {family!r}, expected one "
                          f"of {list(FAMILIES)}")
            family = None
        elif family in _THEOREM_FAMILIES:
            for i, voter in enumerate(voters):
                if voter is None:
                    continue
                if not isinstance(voter.belief, LayeredBelief):
                    errors.append(f"voters[{i}].belief: family {family!r} "
                                  f"requires a layered belief")
                elif not voter.belief.has_decreasing_weights:
                    errors.append(f"voters[{i}].belief.weights: family "
                                  f"{family!r} requires decreasing layer "
                                  f"weights")

    if errors:
        raise ScenarioError(errors)
    return Scenario(candidates=candidates, tie=tie, voters=tuple(voters),
                    initial_ballots=initial, max_steps=max_steps, seed=seed,
                    family=family)


def _emit_focal(focal: FocalElement) -> dict:
    if focal.box is not None:
        out = {"box": [list(iv) for iv in focal.box]}
        if focal.total is not None:
            out["total"] = focal.total
        return out
    return {"points": [list(p) for p in focal.points]}


def _emit_belief(belief: LayeredBelief | MassFunction) -> dict:
    if isinstance(belief, LayeredBelief):
        return {"kind": belief.kind, "metric": belief.metric,
                "radii": list(belief.radii),
                "weights": [str(w) for w in belief.weights]}
    return {"kind": "fixed_mass",
            "assignments": [{"focal": _emit_focal(focal), "weight": str(w)}
                            for focal, w in belief.assignments]}


def emit_scenario(scenario: Scenario) -> str:
    """Canonical JSON text: fixed key order, rationals as strings."""
    labels = scenario.candidates.labels
    out = {
        "format_version": FORMAT_VERSION,
        "candidates": list(labels),
        "tie_break": [labels[c] for c in scenario.tie.order],
        "voters": [
            {
                "preference": [labels[c] for c in v.preference.ranking],
                "belief": _emit_belief(v.belief),
                "rule": ({"kind": v.rule.kind, "alpha": str(v.rule.alpha)}
                         if v.rule.alpha is not None else {"kind": v.rule.kind}),
                "utility": v.utility,
            }
            for v in scenario.voters
        ],
        "initial_ballots": ("truthful" if scenario.initial_ballots is None
                            else [labels[b] for b in scenario.initial_ballots]),
        "scheduler": {"max_steps": scenario.max_steps},
    }
    if scenario.seed is not None:
        out["seed"] = scenario.seed
    if scenario.family is not None:
        out["family"] = scenario.family
    return json.dumps(out, indent=2) + "\n"


def scenario_to_setup(scenario: Scenario) -> RunSetup:
    if scenario.initial_ballots is None:
        profile = truthful_profile(scenario.voters)
    else:
        profile = BallotProfile(scenario.initial_ballots)
    return RunSetup(initial=GameState(profile=profile),
                    configs=scenario.voters, tie=scenario.tie,
                    max_steps=scenario.max_steps)


def trace_record(move: MoveRecord, candidates: CandidateSet,
                 tie: TieBreakOrder) -> TraceRecord:
    labels = candidates.labels
    return TraceRecord(
        step=move.step, voter=move.voter, frm=labels[move.frm],
        to=labels[move.to], criterion_value=move.criterion_value,
        score_before=move.score_before, score_after=move.score_after,
        winner_before=labels[plurality_winner(move.score_before, tie)],
        winner_after=labels[plurality_winner(move.score_after, tie)])


def emit_trace(records) -> str:
    """Line-delimited JSON, one record per line."""
    lines = []
    for r in records:
        lines.append(json.dumps({
            "step": r.step, "voter": r.voter, "from": r.frm, "to": r.to,
            "criterion_value": str(r.criterion_value),
            "score_before": list(r.score_before),
            "score_after": list(r.score_after),
            "winner_before": r.winner_before,
            "winner_after": r.winner_after,
        }))
    return "".join(line + "\n" for line in lines)


def parse_trace(text: str) -> tuple[TraceRecord, ...]:
    errors: list[str] = []
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: invalid JSON: {e}")
            continue
        if not isinstance(raw, dict):
            errors.append(f"line {lineno}: expected an object")
            continue
        path = f"line {lineno}"
        step = raw.get("step")
        voter = raw.get("voter")
        if not _is_int(step) or step < 0:
            errors.append(f"{path}.step: expected a nonnegative integer")
            continue
        if not _is_int(voter) or voter < 0:
            errors.append(f"{path}.voter: expected a nonnegative integer")
            continue
        value = _parse_fraction(raw.get("criterion_value"),
                                f"{path}.criterion_value", errors)
        before = _parse_score(raw.get("score_before"), None,
                              f"{path}.score_before", errors)
        after = _parse_score(raw.get("score_after"), None,
                             f"{path}.score_after", errors)
        names = {}
        for key in ("from", "to", "winner_before", "winner_after"):
            if not isinstance(raw.get(key), str):
                errors.append(f"{path}.{key}: expected a candidate label")
            else:
                names[key] = raw[key]
        if value is None or before is None or after is None or len(names) != 4:
            continue
        records.append(TraceRecord(
            step=step, voter=voter, frm=names["from"], to=names["to"],
            criterion_value=value, score_before=before, score_after=after,
            winner_before=names["winner_before"],
            winner_after=names["winner_after"]))
    if errors:
        raise ScenarioError(errors)
    return tuple(records)


def summary_csv(summary: CampaignSummary) -> str:
    """CSV rows (seed, status, steps, cycle_len); cycle_len empty unless cyclic."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["seed", "status", "steps", "cycle_len"])
    for seed, status, steps, cycle_len in summary.rows:
        writer.writerow([seed, status, steps,
                         "" if cycle_len is None else cycle_len])
    return buf.getvalue()


def fixture_text(name: str) -> str:
    """Text of a shipped scenario fixture, by bare name or file name."""
    if not name.endswith(".json"):
        name += ".json"
    return (files("credalvote") / "fixtures" / name).read_text()


def _decreasing_weights(rng: random.Random, layers: int) -> tuple[Fraction, ...]:
    parts = sorted((rng.randint(1, 6) for _ in range(layers)), reverse=True)
    total = sum(parts)
    return tuple(Fraction(p, total) for p in parts)


def generate_instance(seed: int, n: int, m: int, family: str) -> Scenario:
    """A deterministic random scenario: uniform preferences, truthful starts.

    theorem1_nested, theorem1_partitioned: layered beliefs with decreasing
    weights and the pessimistic rule. theorem2_hurwicz: nested decreasing
    layers with a Hurwicz rule, alpha above one half. pignistic_uniform: one
    radius-1 layer under the pignistic rule. meir_r0: radius-0 singleton
    beliefs, pessimistic, direct best response.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("need at least one voter")
    if m <= 2:
        raise ValueError("need more than two candidates")
    rng = random.Random(seed)
    labels = tuple("abcdefghijklmnopqrstuvwxyz"[:m])
    voters = []
    for _ in range(n):
        ranking = list(range(m))
        rng.shuffle(ranking)
        pref = Preference(tuple(ranking))
        if family in (THEOREM1_NESTED, THEOREM1_PARTITIONED):
            kind = NESTED if family == THEOREM1_NESTED else PARTITIONED
            layers = rng.randint(1, 3)
            radii = tuple(sorted(rng.sample([1, 2, 3], layers)))
            belief = LayeredBelief(kind=kind, radii=radii,
                                   weights=_decreasing_weights(rng, layers))
            rule = DecisionRule(PESSIMISTIC)
            utility = MEIR_SIGN
        elif family == THEOREM2_HURWICZ:
            layers = rng.randint(1, 3)
            radii = tuple(sorted(rng.sample([1, 2, 3], layers)))
            belief = LayeredBelief(kind=NESTED, radii=radii,
                                   weights=_decreasing_weights(rng, layers))
            rule = DecisionRule(HURWICZ, alpha=rng.choice(HURWICZ_ALPHAS))
            utility = MEIR_SIGN
        elif family == PIGNISTIC_UNIFORM:
            belief = LayeredBelief(kind=NESTED, radii=(1,),
                                   weights=(Fraction(1),))
            rule = DecisionRule(PIGNISTIC)
            utility = MEIR_SIGN
        else:
            belief = LayeredBelief(kind=NESTED, radii=(0,),
                                   weights=(Fraction(1),))
            rule = DecisionRule(PESSIMISTIC)
            utility = DIRECT_BEST_RESPONSE
        voters.append(VoterConfig(preference=pref, belief=belief, rule=rule,
                                  utility=utility))
    return Scenario(candidates=CandidateSet(labels),
                    tie=TieBreakOrder.default(m), voters=tuple(voters),
                    initial_ballots=None, max_steps=DEFAULT_MAX_STEPS,
                    seed=seed, family=family)


def family_setup(seed: int, family: str, n: int | None = None,
                 m: int | None = None) -> RunSetup:
    """RunSetup for one campaign instance; sizes drawn from the seed when
    not pinned."""
    rng = random.Random(f"{family}/{seed}")
    n = n if n is not None else rng.randint(2, 6)
    m = m if m is not None else rng.randint(3, 4)
    return scenario_to_setup(generate_instance(seed, n, m, family))
