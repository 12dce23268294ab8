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
"total"?: int}. Emission writes every belief that is not layered as a
fixed_mass of sorted points.
"""
from __future__ import annotations

import io
import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    LRU_SIZE,
    METRICS,
    NESTED,
    PARTITIONED,
    FocalElement,
    LayeredBelief,
    MassFunction,
    _rational,
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

_LABELS = "abcdefghijklmnopqrstuvwxyz"

# The fields each object inside the scenario may carry; any other key is
# reported as unknown.
_VOTER_FIELDS = frozenset({"preference", "belief", "rule", "utility"})
_RULE_FIELDS = frozenset({"kind", "alpha"})
_LAYERED_FIELDS = frozenset({"kind", "metric", "radii", "weights"})
_BELIEF_FIELDS = {NESTED: _LAYERED_FIELDS, PARTITIONED: _LAYERED_FIELDS,
                  "fixed_mass": frozenset({"kind", "assignments"}),
                  "set": frozenset({"kind", "focal"}),
                  "probability": frozenset({"kind", "support"})}
_ASSIGNMENT_FIELDS = frozenset({"focal", "weight"})
_SUPPORT_FIELDS = frozenset({"score", "prob"})
_POINTS_FIELDS = frozenset({"points"})
_BOX_FIELDS = frozenset({"box", "total"})
_SCHEDULER_FIELDS = frozenset({"max_steps"})

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


def _unknown_fields(raw: dict, known: frozenset[str], path: str,
                    errors: list[str]) -> bool:
    """Report each key of `raw` outside `known`; True when there is one."""
    if raw.keys() <= known:
        return False
    for key in sorted(raw.keys() - known):
        errors.append(f"{path}.{key}: unknown field")
    return True


def _built(path: str, errors: list[str], build, *args):
    """`build(*args)`, or None with its `ValueError` reported under `path`."""
    try:
        return build(*args)
    except ValueError as e:
        errors.append(f"{path}: {e}")
        return None


def _parse_fraction(value, path: str, errors: list[str]) -> Fraction | None:
    """`_rational(value)`, or None with the error under `path`."""
    if isinstance(value, str) or type(value) is int:
        try:
            return _rational(value)
        except ValueError:
            errors.append(f"{path}: not a rational number: {value!r}")
            return None
    errors.append(f'{path}: rationals must be "p/q" strings or integers')
    return None


# The types of a list whose entries are all exact integers (bools are not).
_INTS = frozenset({int})


def _parse_score(value, m: int | None, path: str, errors: list[str]) -> Score | None:
    # `value` is decoded JSON, so `type` tells lists and ints from the rest.
    if type(value) is not list or not set(map(type, value)) <= _INTS:
        errors.append(f"{path}: expected a list of integers")
        return None
    if min(value, default=0) < 0:
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
    if _unknown_fields(raw, _POINTS_FIELDS if has_points else _BOX_FIELDS,
                       path, errors):
        return None
    if has_points:
        pts = raw["points"]
        if not isinstance(pts, list) or not pts:
            errors.append(f"{path}.points: expected a nonempty list")
            return None
        scores = [_parse_score(p, m, f"{path}.points[{i}]", errors)
                  for i, p in enumerate(pts)]
        if any(s is None for s in scores):
            return None
        return _built(path, errors, FocalElement.from_points, scores)
    box = raw["box"]
    if (not isinstance(box, list)
            or not all(isinstance(iv, list) and len(iv) == 2
                       and all(type(x) is int for x in iv) for iv in box)):
        errors.append(f"{path}.box: expected a list of [lo, hi] pairs")
        return None
    if m is not None and len(box) != m:
        errors.append(f"{path}.box: expected {m} intervals, got {len(box)}")
        return None
    total = raw.get("total")
    if total is not None and type(total) is not int:
        errors.append(f"{path}.total: expected an integer")
        return None
    return _built(path, errors, FocalElement.from_box, box, total)


def _parse_belief(raw, m: int | None, path: str,
                  errors: list[str]) -> LayeredBelief | MassFunction | None:
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected an object")
        return None
    kind = raw.get("kind")
    # A list or object kind cannot be looked up, and is reported as unknown.
    known = _BELIEF_FIELDS.get(kind) if isinstance(kind, str) else None
    if known is not None and _unknown_fields(raw, known, path, errors):
        return None
    if kind in (NESTED, PARTITIONED):
        metric = raw.get("metric", L1_ADDREMOVE)
        if metric not in METRICS:
            errors.append(f"{path}.metric: unknown metric {metric!r}, "
                          f"expected one of {list(METRICS)}")
            return None
        radii = raw.get("radii")
        if (not isinstance(radii, list) or not radii
                or not all(type(r) is int for r in radii)):
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
        return _built(path, errors, LayeredBelief, kind, tuple(radii),
                      tuple(weights), metric)
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
            if _unknown_fields(entry, _ASSIGNMENT_FIELDS, sub, errors):
                return None
            focal = _parse_focal(entry.get("focal"), m, f"{sub}.focal", errors)
            weight = _parse_fraction(entry.get("weight"), f"{sub}.weight", errors)
            if focal is None or weight is None:
                return None
            pairs.append((focal, weight))
    elif kind == "set":
        focal = _parse_focal(raw.get("focal"), m, f"{path}.focal", errors)
        if focal is None:
            return None
        pairs = [(focal, Fraction(1))]
    elif kind == "probability":
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
            if _unknown_fields(entry, _SUPPORT_FIELDS, sub, errors):
                return None
            score = _parse_score(entry.get("score"), m, f"{sub}.score", errors)
            prob = _parse_fraction(entry.get("prob"), f"{sub}.prob", errors)
            if score is None or prob is None:
                return None
            pairs.append((FocalElement.from_points([score]), prob))
    else:
        errors.append(f"{path}.kind: unknown belief kind {kind!r}, expected one "
                      f"of ['nested', 'partitioned', 'fixed_mass', 'set', 'probability']")
        return None
    return _built(path, errors, MassFunction, tuple(pairs))


def _parse_rule(raw, path: str, errors: list[str]) -> DecisionRule | None:
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected an object")
        return None
    if _unknown_fields(raw, _RULE_FIELDS, path, errors):
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
    return _built(path, errors, DecisionRule, kind, alpha)


def _parse_labels(raw, index: dict[str, int] | None, path: str,
                  errors: list[str]) -> tuple[int, ...] | None:
    """The candidate indices of a list of labels; `index` maps each label to
    its index, and is None when the candidates are invalid."""
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        errors.append(f"{path}: expected a list of candidate labels")
        return None
    if index is None:
        return None
    try:
        return tuple([index[label] for label in raw])
    except KeyError:
        for i, label in enumerate(raw):
            if label not in index:
                errors.append(f"{path}[{i}]: unknown candidate label {label!r}")
        return None


def _parse_order(raw, index: dict[str, int] | None, cls, path: str,
                 errors: list[str]):
    """A `cls` (Preference or TieBreakOrder) listing every candidate once."""
    order = _parse_labels(raw, index, path, errors)
    if order is None:
        return None
    if len(order) != len(index):
        errors.append(f"{path}: expected {len(index)} labels, "
                      f"got {len(order)}")
        return None
    return _built(path, errors, cls, order)


def _parse_shared(raw, table: dict, parse):
    """`parse(raw)`, shared through `table` by raw values written the same
    way (equal reprs). A value that `parse` refuses (None) is not kept."""
    key = repr(raw)
    value = table.get(key)
    if value is None:
        value = parse(raw)
        if value is not None:
            table[key] = value
    return value


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario JSON, reporting every problem found."""
    errors: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError([f"invalid JSON: {e}"])
    except RecursionError:
        raise ScenarioError(["invalid JSON: nested too deeply"]) from None
    if not isinstance(raw, dict):
        raise ScenarioError(["top level must be a JSON object"])

    version = raw.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        errors.append(f"format_version: expected {FORMAT_VERSION}")

    known = {"format_version", "candidates", "tie_break", "voters",
             "initial_ballots", "scheduler", "seed", "family"}
    for key in sorted(set(raw) - known):
        errors.append(f"{key}: unknown field")

    candidates = index = m = None
    raw_candidates = raw.get("candidates")
    if (not isinstance(raw_candidates, list)
            or not all(isinstance(x, str) for x in raw_candidates)):
        errors.append("candidates: expected a list of labels")
    else:
        candidates = _built("candidates", errors, CandidateSet,
                            tuple(raw_candidates))
    if candidates is not None:
        index = {label: c for c, label in enumerate(candidates.labels)}
        m = candidates.m

    tie = None
    if "tie_break" in raw:
        tie = _parse_order(raw["tie_break"], index, TieBreakOrder,
                           "tie_break", errors)
    elif candidates is not None:
        tie = TieBreakOrder.default(candidates.m)

    voters: list[VoterConfig | None] = []
    # Preferences, beliefs and rules written the same way are parsed once
    # and shared. Only valid ones are kept, so every voter with an invalid
    # one gets errors under its own path.
    beliefs: dict[str, LayeredBelief | MassFunction] = {}
    rules: dict[str, DecisionRule] = {}
    prefs: dict[tuple[str, ...], Preference] = {}
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
        unknown = _unknown_fields(rv, _VOTER_FIELDS, path, errors)
        raw_pref = rv.get("preference")
        try:
            # A hit is a valid preference, so a list of labels.
            pref = prefs.get(tuple(raw_pref)) if type(raw_pref) is list else None
        except TypeError:  # an entry that cannot be hashed, so no label
            pref = None
        if pref is None:
            pref = _parse_order(raw_pref, index, Preference,
                                f"{path}.preference", errors)
            if pref is not None:
                prefs[tuple(raw_pref)] = pref
        belief = _parse_shared(rv.get("belief"), beliefs, lambda raw: (
            _parse_belief(raw, m, f"{path}.belief", errors)))
        rule = _parse_shared(rv.get("rule"), rules, lambda raw: (
            _parse_rule(raw, f"{path}.rule", errors)))
        utility = rv.get("utility")
        if utility not in UTILITY_MODELS:
            errors.append(f"{path}.utility: unknown utility model {utility!r}, "
                          f"expected one of {list(UTILITY_MODELS)}")
            utility = None
        if (unknown or pref is None or belief is None or rule is None
                or utility is None):
            voters.append(None)
        else:
            voters.append(VoterConfig(preference=pref, belief=belief,
                                      rule=rule, utility=utility))

    initial = None
    raw_initial = raw.get("initial_ballots", "truthful")
    if raw_initial != "truthful":
        initial = _parse_labels(raw_initial, index, "initial_ballots", errors)
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
            _unknown_fields(sched, _SCHEDULER_FIELDS, "scheduler", errors)
            if "max_steps" in sched:
                if (type(sched["max_steps"]) is not int
                        or sched["max_steps"] < 1):
                    errors.append("scheduler.max_steps: expected a positive "
                                  "integer")
                else:
                    max_steps = sched["max_steps"]

    seed = raw.get("seed")
    if seed is not None and type(seed) is not int:
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


def _emit_belief(belief: LayeredBelief | MassFunction) -> dict:
    if isinstance(belief, LayeredBelief):
        return {"kind": belief.kind, "metric": belief.metric,
                "radii": list(belief.radii),
                "weights": [str(w) for w in belief.weights]}
    return {"kind": "fixed_mass",
            "assignments": [
                {"focal": {"points": [list(p) for p in focal.points]},
                 "weight": str(w)}
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


class _Quoted(dict):
    """Each label's JSON string, encoded on first use."""

    def __missing__(self, label):
        self[label] = quoted = json.dumps(label)
        return quoted


def emit_trace(records) -> str:
    """Line-delimited JSON, one record per line.

    Each line is what `json.dumps` writes for the record's fields in this
    order, for records that hold the types `TraceRecord` declares.
    """
    quoted = _Quoted()
    return "".join([
        f'{{"step": {r.step}, "voter": {r.voter}, "from": {quoted[r.frm]}, '
        f'"to": {quoted[r.to]}, "criterion_value": "{r.criterion_value!s}", '
        f'"score_before": {list(r.score_before)}, '
        f'"score_after": {list(r.score_after)}, '
        f'"winner_before": {quoted[r.winner_before]}, '
        f'"winner_after": {quoted[r.winner_after]}}}\n'
        for r in records])


_TRACE_LABELS = ("from", "to", "winner_before", "winner_after")


def _parse_trace_line(raw, path: str, errors: list[str]) -> TraceRecord | None:
    """One decoded trace line as a record, or None with its errors."""
    if type(raw) is not dict:
        errors.append(f"{path}: expected an object")
        return None
    step = raw.get("step")
    voter = raw.get("voter")
    if type(step) is not int or step < 0:
        errors.append(f"{path}.step: expected a nonnegative integer")
        return None
    if type(voter) is not int or voter < 0:
        errors.append(f"{path}.voter: expected a nonnegative integer")
        return None
    value = _parse_fraction(raw.get("criterion_value"),
                            f"{path}.criterion_value", errors)
    before = _parse_score(raw.get("score_before"), None,
                          f"{path}.score_before", errors)
    after = _parse_score(raw.get("score_after"),
                         None if before is None else len(before),
                         f"{path}.score_after", errors)
    labels = []
    for key in _TRACE_LABELS:
        label = raw.get(key)
        if type(label) is str:
            labels.append(label)
        else:
            errors.append(f"{path}.{key}: expected a candidate label")
    if value is None or before is None or after is None or len(labels) != 4:
        return None
    return TraceRecord(step, voter, labels[0], labels[1], value, before, after,
                       labels[2], labels[3])


def parse_trace(text: str) -> tuple[TraceRecord, ...]:
    """The records of a trace written by `emit_trace`; every bad line is
    reported, by its line number."""
    errors: list[str] = []
    records = []
    # Each line is decoded alone: lines such as `1, [2` and `3]` would
    # decode as one value when joined.
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: invalid JSON: {e}")
            continue
        except RecursionError:
            errors.append(f"line {lineno}: invalid JSON: nested too deeply")
            continue
        record = _parse_trace_line(raw, f"line {lineno}", errors)
        if record is not None:
            records.append(record)
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


@lru_cache(maxsize=LRU_SIZE)
def _generated_belief(kind: str, radii: tuple[int, ...],
                      parts: tuple[int, ...]) -> LayeredBelief:
    """The l1_addremove belief on `radii` weighted by the integer `parts`
    over their sum, built once and shared by every instance that draws it."""
    total = sum(parts)
    return LayeredBelief(kind, radii, tuple(Fraction(p, total) for p in parts))


def generate_instance(seed: int, n: int, m: int, family: str) -> Scenario:
    """A deterministic random scenario: uniform preferences, truthful starts.

    theorem1_nested, theorem1_partitioned: layered beliefs with decreasing
    weights and the pessimistic rule. theorem2_hurwicz: nested decreasing
    layers with a Hurwicz rule, alpha above one half. pignistic_uniform: one
    radius-1 layer under the pignistic rule. meir_r0: radius-0 singleton
    beliefs, pessimistic, direct best response. Equal beliefs are one
    shared object, from `_generated_belief`.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    for name, value in (("seed", seed), ("n", n), ("m", m)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer")
    if n < 1:
        raise ValueError("need at least one voter")
    if m <= 2:
        raise ValueError("need more than two candidates")
    if m > len(_LABELS):
        raise ValueError(f"need at most {len(_LABELS)} candidates, "
                         f"one per letter a-z")
    rng = random.Random(seed)
    labels = tuple(_LABELS[:m])
    voters = []
    for _ in range(n):
        ranking = list(range(m))
        rng.shuffle(ranking)
        pref = Preference(tuple(ranking))
        if family in _THEOREM_FAMILIES:
            kind = PARTITIONED if family == THEOREM1_PARTITIONED else NESTED
            layers = rng.randint(1, 3)
            radii = tuple(sorted(rng.sample([1, 2, 3], layers)))
            # Decreasing weights: integer parts, largest first, over their
            # sum, in lowest terms, so that equal beliefs share one entry.
            parts = sorted((rng.randint(1, 6) for _ in range(layers)),
                           reverse=True)
            g = math.gcd(*parts)
            belief = _generated_belief(kind, radii,
                                       tuple(p // g for p in parts))
            rule = (DecisionRule(HURWICZ, alpha=rng.choice(HURWICZ_ALPHAS))
                    if family == THEOREM2_HURWICZ else DecisionRule(PESSIMISTIC))
            utility = MEIR_SIGN
        elif family == PIGNISTIC_UNIFORM:
            belief = _generated_belief(NESTED, (1,), (1,))
            rule = DecisionRule(PIGNISTIC)
            utility = MEIR_SIGN
        else:
            belief = _generated_belief(NESTED, (0,), (1,))
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
