"""perfbench's tracer still finds every public name of the package that it wraps."""

import importlib.util
from pathlib import Path

from swarmscale import macro, objectives  # the package import loads every module it patches

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    original_cfl, original_call = macro.cfl_dt, objectives.ObjectiveFunction.__call__
    tracer = load_tracer().Tracer()
    try:
        tracer.install()  # raises TracingError when a traced name is gone
        assert macro.cfl_dt is not original_cfl
    finally:
        tracer.uninstall()
    assert macro.cfl_dt is original_cfl
    assert objectives.ObjectiveFunction.__call__ is original_call
