"""Every function the benchmark tracer hooks exists in the package.

The tracer in `perfbench/tracer.py` wraps public functions by their
`module:Class.attr` path. A refactor that renames or removes one of them would
otherwise show only as a "not measured" per-layer metric in a benchmark run.
"""
import importlib.util
from pathlib import Path

import credalvote

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
