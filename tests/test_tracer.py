"""perfbench's tracer still finds every public name of the package that it wraps, and a
short run of each benchmark workload calls every layer the benchmark requires."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

# the package import loads every module the tracer patches
from swarmscale import config, macro, objectives, runner
from swarmscale.config import config_from_dict, config_to_dict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while building
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


BENCH = load_perfbench("run")


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


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_a_short_traced_run_calls_every_required_layer(tmp_path, name):
    workload = BENCH.WORKLOADS[name]
    tracer = load_tracer().Tracer()
    with tracer:
        # called through the modules, as the benchmark does, so the wrappers see them
        cfg = config.load_config(BENCH.CONFIGS / f"{workload.config}.yaml")
        small = config_to_dict(cfg)
        small.update(n_steps=6, n_particles=16, output=str(tmp_path))
        small["macro"]["n_cells"] = 41
        small["coupling"]["t_star"] = 3  # the transfer, and so compute_zeta, runs from step 3
        run_cfg = config_from_dict(small)
        report = runner.run_experiment(run_cfg)
    assert [key for key in workload.required if tracer.calls[key] == 0] == []
    # perfbench's accuracy gate reads the feasible set, the rows' mass_total, the summary
    # and the grid section; a short run need not meet it, but the gate must answer, also
    # at the run's own estimate, where a gate that stops at a failed clause reads the rest
    target = workload.minimiser(np, objectives.ackley)
    own = np.reshape(report.summary["argmin_estimate"], np.shape(target)).tolist()
    for at in (target, own):
        met, err = workload.gate(np, report, run_cfg, at)
        assert type(met) is bool and type(err) is float and math.isfinite(err)
    # only the run evaluates: the particles at step 0 and after each move, the
    # summary at its estimate, and a grid once per run at its fixed centers
    grid = int(run_cfg.mode == "micromacro")
    constrained = run_cfg.feasible_set is not None
    assert tracer.calls["objectives.objective"] == run_cfg.n_steps + 2 + grid
    assert tracer.calls["objectives.distance"] == constrained * (run_cfg.n_steps + 1 + grid)
    # one particle consensus per row, one violation per penalty update and one gap per
    # row of a lone swarm, whatever the functions take: perfbench compares these per layer
    assert tracer.calls["micro.consensus_point"] == run_cfg.n_steps + 1
    assert tracer.calls["penalty.violation_micro"] == constrained * run_cfg.n_steps
    alone = run_cfg.mode == "micro"
    assert tracer.calls["micro.softmin_gap"] == alone * (run_cfg.n_steps + 1)
    # one wavespeed, one step size and one step per grid sub-step, and one zeta per
    # transfer from t_star on: perfbench's substeps_per_step and active_share read these
    if run_cfg.mode != "micro":
        substeps = tracer.calls["macro.lax_friedrichs_step"]
        assert substeps > 0
        assert tracer.calls["macro.cfl_dt"] == tracer.calls["macro.max_wavespeed"] == substeps
    if run_cfg.mode == "micromacro":
        assert tracer.calls["micromacro.transfer_mass"] == run_cfg.n_steps
        active = run_cfg.n_steps - run_cfg.coupling.t_star + 1
        assert tracer.calls["micromacro.compute_zeta"] == active
