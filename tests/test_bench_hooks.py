"""Every function the benchmark tracer hooks exists in the package, and
every return value it observes keeps the shape it reads.

The tracer in `perfbench/tracer.py` wraps public functions by their
`module:Class.attr` path, and reads some of their return values (`.points`,
`.verdict`). A refactor that renames or removes one of them, or changes such a
return value, would otherwise show only as a "not measured" per-layer metric
in a benchmark run.
"""
import importlib.util
from fractions import Fraction
from pathlib import Path

import credalvote
from credalvote import (
    L1_ADDREMOVE, MEIR_SIGN, PESSIMISTIC, DecisionRule, MassFunction,
    Preference, TieBreakOrder, neighborhood)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_to_a_callable():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer(credalvote)
    assert tracer_module.HOOKS
    for hook, _ in tracer_module.HOOKS:
        # the owner and name `Tracer.install` looks the hook up by
        owner, name = tracer._owner(hook)
        assert callable(getattr(owner, "__dict__", {}).get(name)), hook


def small_inputs():
    """Arguments of one small call, keyed by each hook the tracer observes."""
    ball = neighborhood((2, 1, 0), L1_ADDREMOVE, 1)
    return {
        "uncertainty:neighborhood": ((2, 1, 0), L1_ADDREMOVE, 1),
        "dynamics:evaluate_move": (
            MassFunction(((ball, Fraction(1)),)), DecisionRule(PESSIMISTIC),
            MEIR_SIGN, Preference((1, 0, 2)), 2, 1, TieBreakOrder.default(3)),
    }


def test_every_observer_reads_a_number():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer(credalvote)
    inputs = small_inputs()
    assert tracer_module.OBSERVERS
    # A new observer needs an input here.
    assert set(tracer_module.OBSERVERS) <= set(inputs)
    for hook, (name, measure) in tracer_module.OBSERVERS.items():
        owner, attr = tracer._owner(hook)
        amount = measure(getattr(owner, attr)(*inputs[hook]))
        assert isinstance(amount, (int, float)), (hook, name, amount)
