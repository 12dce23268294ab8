"""Per-layer tracing for the benchmark, from outside the program.

Each hook replaces one public function at the module (or class) attribute its
caller looks it up through, so `dynamics.run` reaching `step`, or `decision`
reaching `plurality_winner`, goes through the wrapper without any change to
the program. Private helpers (`_pair_counts`, `_layered_mass`, `_WINNERS`)
are never touched: later refactors are expected to delete them.

A hook whose attribute is missing, or which never fires, makes every metric
that depends on it "not measured" rather than 0. `restore` puts every
original attribute back and reports any it could not.
"""
from __future__ import annotations

import json
import time

SPAN = "span"    # records a span (name, start, end, parent, run id) per call
COUNT = "count"  # only counts calls: too frequent to time without swamping

BUILD = ("scenario:generate_instance", "scenario:family_setup",
         "scenario:scenario_to_setup", "scenario:parse_scenario")
IO = ("scenario:trace_record", "scenario:emit_trace", "scenario:parse_trace",
      "scenario:summary_csv")
RUN = "dynamics:run"
STEP = "dynamics:step"
MASS_AT = "dynamics:VoterConfig.mass_at"
MATERIALIZE = "dynamics:layered_to_mass"
NEIGHBORHOOD = "uncertainty:neighborhood"
EVALUATE = "dynamics:evaluate_move"
WINNER = "decision:plurality_winner"
PAIR_POINT = "decision:apply_move"

HOOKS = tuple((h, SPAN) for h in BUILD + IO) + (
    (RUN, SPAN), (STEP, SPAN), (MASS_AT, SPAN), (MATERIALIZE, SPAN),
    (NEIGHBORHOOD, SPAN), (EVALUATE, SPAN),
    (WINNER, COUNT), (PAIR_POINT, COUNT),
)


def _points(result):
    points = getattr(result, "points", None)
    return None if points is None else len(points)


def _strict(result):
    verdict = getattr(result, "verdict", None)
    return None if verdict is None else int(verdict == "strictly_preferred")


# hook -> (extra counter, function of the hook's return value; None when the
# value no longer has the expected shape)
OBSERVERS = {
    NEIGHBORHOOD: ("points", _points),
    EVALUATE: ("strict", _strict),
}


class NotMeasured(Exception):
    """A metric's hook is missing, never fired, or returned an unknown shape."""


class Tracer:
    """Wraps the hooks of one imported `credalvote`; spans stay in memory."""

    def __init__(self, package):
        self.package = package
        self.index = {hook: i for i, (hook, _) in enumerate(HOOKS)}
        self.calls = [0] * len(HOOKS)
        self.missing: set[str] = set()
        self.extra = {name: 0 for name, _ in OBSERVERS.values()}
        self.extra_broken: set[str] = set()
        self.spans: list[list] = []  # [hook index, start, end, parent, run id]
        self.stack = [-1]
        self.run_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def _owner(self, hook: str):
        module, _, attr = hook.partition(":")
        owner = getattr(self.package, module, None)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        return owner, name

    def install(self) -> None:
        for hook, kind in HOOKS:
            owner, name = self._owner(hook)
            original = getattr(owner, "__dict__", {}).get(name)
            if not callable(original):
                self.missing.add(hook)
                continue
            i = self.index[hook]
            setattr(owner, name,
                    self._span(i, original, OBSERVERS.get(hook))
                    if kind == SPAN else self._count(i, original))
            self._saved.append((owner, name, original))

    def restore(self) -> list[str]:
        """Put back every wrapped attribute; return those left wrapped."""
        for owner, name, original in self._saved:
            setattr(owner, name, original)
        left = [f"{getattr(o, '__name__', o)}.{n}" for o, n, f in self._saved
                if o.__dict__.get(n) is not f]
        self._saved.clear()
        return left

    def _count(self, i, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[i] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, i, fn, observer):
        calls, spans, stack = self.calls, self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[i] += 1
            span = [i, clock(), 0.0, stack[-1], self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observer is not None:
                self._observe(observer, result)
            return result
        return wrapper

    def _observe(self, observer, result) -> None:
        name, measure = observer
        amount = measure(result)
        if amount is None:
            self.extra_broken.add(name)
        else:
            self.extra[name] += amount

    def hook_status(self) -> dict[str, object]:
        """Calls per hook, or "missing" / "never fired"."""
        out = {}
        for hook, _ in HOOKS:
            calls = self.calls[self.index[hook]]
            out[hook] = ("missing" if hook in self.missing
                         else calls if calls else "never fired")
        return out

    def write_spans(self, path: str) -> None:
        """Write every span once: a header line, then one JSON array each."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"hooks": [h for h, _ in HOOKS],
                                 "fields": ["hook", "start", "end", "parent",
                                            "run"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float | None]:
        """Per-layer metrics; None marks a metric as not measured."""
        n = len(HOOKS)
        inclusive = [0.0] * n
        own = [0.0] * n
        children = [0.0] * len(self.spans)
        for i, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for k, (i, start, end, _, _) in enumerate(self.spans):
            inclusive[i] += end - start
            own[i] += end - start - children[k]

        def fired(hooks):
            present = [h for h in hooks if self.calls[self.index[h]]]
            if not present:
                raise NotMeasured
            return [self.index[h] for h in present]

        def calls(*hooks):
            return sum(self.calls[i] for i in fired(hooks))

        def inputs_through(*hooks):
            # Inputs (run ids) that went through any of the hooks: one build
            # per input, however many of the hooks it calls or nests.
            ids = set(fired(hooks))
            return len({run for i, _, _, _, run in self.spans if i in ids})

        def self_s(*hooks):
            return sum(own[i] for i in fired(hooks))

        def extra(name, hook):
            fired((hook,))
            if name in self.extra_broken:
                raise NotMeasured
            return self.extra[name]

        def step_self():
            # step's self time only means "minus its children" when both
            # children are still hooked and seen.
            fired((MASS_AT,))
            fired((EVALUATE,))
            return self_s(STEP)

        def incl(hook):
            return inclusive[fired((hook,))[0]]

        definitions = {
            "scenario.build_calls": lambda: inputs_through(*BUILD),
            "scenario.build_s": lambda: self_s(*BUILD),
            "scenario.io_s": lambda: self_s(*IO),
            "dynamics.run_calls": lambda: calls(RUN),
            "dynamics.step_calls": lambda: calls(STEP),
            "dynamics.voters_scanned": lambda: calls(MASS_AT),
            "dynamics.self_s": step_self,
            "uncertainty.mass_at_s": lambda: incl(MASS_AT),
            "uncertainty.materialize_calls": lambda: calls(MATERIALIZE),
            "uncertainty.materialize_s": lambda: incl(MATERIALIZE),
            "uncertainty.neighborhood_calls": lambda: calls(NEIGHBORHOOD),
            "uncertainty.points": lambda: extra("points", NEIGHBORHOOD),
            "uncertainty.mass_hit_ratio":
                lambda: 1 - calls(MATERIALIZE) / calls(MASS_AT),
            "decision.evals": lambda: calls(EVALUATE),
            "decision.eval_s": lambda: self_s(EVALUATE),
            "decision.evals_per_step": lambda: calls(EVALUATE) / calls(STEP),
            "decision.strict_ratio":
                lambda: extra("strict", EVALUATE) / calls(EVALUATE),
            "election.winner_calls": lambda: calls(WINNER),
            "election.pair_points": lambda: calls(PAIR_POINT),
        }
        out = {}
        for name, measure in definitions.items():
            try:
                out[name] = measure()
            except NotMeasured:
                out[name] = None
        return out
