"""Runner contract: solver failures, field snapshots, the pooled ensemble header and
the pinned traces of the bundled configs."""

import csv
import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from swarmscale import micro, objectives, runner
from swarmscale.config import ConfigError, config_from_dict
from swarmscale.runner import RunError, run_ensemble, run_experiment


def tiny(tmp_path, mode, **over):
    d = {
        "mode": mode,
        "objective": {"name": "ackley", "dim": 1},
        "macro": {"n_cells": 21},
        "n_steps": 4,
        "n_particles": 8,
        "seed": 7,
        "output": str(tmp_path / mode),
    }
    d.update(over)
    return config_from_dict(d)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["micro", "micromacro"])
def test_swarm_blowup_fails_the_run_at_its_step(tmp_path, mode):
    cfg = tiny(tmp_path, mode, micro={"sigma": 1e300})
    with pytest.raises(RunError) as exc:
        run_experiment(cfg)
    assert exc.value.step == 2
    assert re.fullmatch(r"[0-9a-f]{16}", exc.value.digest)
    assert isinstance(exc.value.__cause__, FloatingPointError)
    # the header and the rows of the steps that completed stay on disk
    with open(f"{cfg.output}/trace.csv") as fh:
        trace = list(csv.reader(fh))
    assert trace[0][:2] == ["step", "time"]
    assert [r[0] for r in trace[1:]] == ["0", "1"]


def test_non_finite_grid_state_fails_the_first_step(tmp_path, monkeypatch):
    init_macro = runner.init_macro

    def poisoned(*args, **kwargs):
        state = init_macro(*args, **kwargs)
        state.rho_u[5] = np.nan
        return state

    monkeypatch.setattr(runner, "init_macro", poisoned)
    with pytest.raises(RunError, match="cell 5") as exc:
        run_experiment(tiny(tmp_path, "macro"))
    assert exc.value.step == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_cell_value_fails_step_0_naming_the_cell(tmp_path, monkeypatch, bad):
    # the cells' weights are built with the grid, so a bad F_beta at a center stops the
    # run there, before the grid moves; an infinite one would otherwise get weight 0
    call = objectives.ObjectiveFunction.__call__

    def poisoned(self, x):
        out = np.array(call(self, x))
        out[7] = bad
        return out

    monkeypatch.setattr(objectives.ObjectiveFunction, "__call__", poisoned)
    with pytest.raises(RunError) as exc:
        run_experiment(tiny(tmp_path, "macro"))
    assert exc.value.step == 0
    assert isinstance(exc.value.__cause__, FloatingPointError)
    assert str(exc.value.__cause__) == f"non-finite value {bad} at index 7"


def test_a_scale_that_cannot_be_built_fails_step_0(tmp_path):
    # the largest count the config accepts: numpy refuses the array before allocating it
    cfg = tiny(tmp_path, "micro", n_particles=2**63 - 1)
    with pytest.raises(RunError) as exc:
        run_experiment(cfg)
    assert exc.value.step == 0
    assert isinstance(exc.value.__cause__, ValueError)
    assert "array is too big" in str(exc.value.__cause__)
    report = run_ensemble(cfg, 2)
    assert [(r["ok"], r["failed_step"]) for r in report.runs] == [(False, 0), (False, 0)]
    # no run made a row, so the pooled header has no consensus columns
    with open(report.pooled_csv) as fh:
        assert fh.read() == "run,seed,step,time\n"


# the id names the grid kernel the run steps with
@pytest.mark.parametrize("name", [pytest.param("ackley1d_macro_constrained", id="hydrostatic")])
def test_a_vanishing_attraction_runs_to_completion(load_bundled, name):
    # a potential of ~1e-30 leaves every face state at its cell's density and dt > 0
    cfg = load_bundled(name)
    cfg = replace(cfg, micro=replace(cfg.micro, lam=1e-30))
    report = run_experiment(cfg)
    with open(report.csv_path) as fh:
        assert len(fh.readlines()) == 1 + 1 + cfg.n_steps  # header, initial row, steps


def test_one_penalty_section_seeds_two_independent_controllers(load_bundled):
    # both scales start from the same constants, then each updates from its own violation
    cfg = load_bundled("rastrigin1d_micromacro_constrained", n_steps=20)
    rows = run_experiment(cfg).rows
    assert rows[0]["beta_micro"] == rows[0]["beta_macro"] == cfg.penalty.beta0
    assert rows[0]["kappa_micro"] == rows[0]["kappa_macro"] == cfg.penalty.kappa0
    assert any(row["beta_micro"] != row["beta_macro"] for row in rows[1:])


@pytest.mark.parametrize("mode", ["micro", "micromacro"])
def test_particles_evaluate_the_objective_and_distance_once_per_step(tmp_path, monkeypatch,
                                                                     mode):
    shapes = {"objective": [], "distance": []}

    def counting(key, method):
        def wrapped(self, x):
            shapes[key].append(np.shape(x))
            return method(self, x)
        return wrapped

    monkeypatch.setattr(objectives.ObjectiveFunction, "__call__",
                        counting("objective", objectives.ObjectiveFunction.__call__))
    monkeypatch.setattr(objectives.Halfspace1D, "distance",
                        counting("distance", objectives.Halfspace1D.distance))
    cfg = tiny(tmp_path, mode, feasible_set={"kind": "halfline", "bound": -0.5})
    run_experiment(cfg)
    # drop the grid's evaluations at its cell centers; the rest are the particles'
    # and, last, the summary's objective_at_estimate
    particles = [s for s in shapes["objective"] if s != (cfg.macro.n_cells, 1)]
    assert particles == [(cfg.n_particles, 1)] * (cfg.n_steps + 1) + [(1,)]
    distances = [s for s in shapes["distance"] if s != (cfg.macro.n_cells, 1)]
    assert distances == [(cfg.n_particles, 1)] * (cfg.n_steps + 1)


@pytest.mark.parametrize("mode", ["micro", "micromacro"])
@pytest.mark.parametrize("constrained", [False, True])
def test_each_scale_builds_its_gibbs_weights_once_per_move_and_per_beta(tmp_path, monkeypatch,
                                                                         mode, constrained):
    sizes = []
    gibbs_weights = micro.gibbs_weights

    def counting(values, alpha):
        sizes.append(np.size(values))
        return gibbs_weights(values, alpha)

    for module in (micro, runner):
        monkeypatch.setattr(module, "gibbs_weights", counting)
    over = {"feasible_set": {"kind": "halfline", "bound": -0.5}} if constrained else {}
    cfg = tiny(tmp_path, mode, n_steps=12, **over)
    rows = run_experiment(cfg).rows
    # the particles at step 0 and after each move, the cell centers once per run, and
    # each scale again after every failure branch, the update that raises its beta
    suffix = "" if mode == "micro" else "_micro"
    failures = sum(r["branch" + suffix] == "failure" for r in rows)
    assert (failures > 0) == constrained
    assert sizes.count(cfg.n_particles) == 1 + cfg.n_steps + failures
    if mode == "micromacro":
        grid_failures = sum(r["branch_macro"] == "failure" for r in rows)
        assert sizes.count(cfg.macro.n_cells) == 1 + grid_failures
    assert len(sizes) == sizes.count(cfg.n_particles) + sizes.count(cfg.macro.n_cells)


@pytest.mark.parametrize("mode, steps", [("micro", []), ("macro", [2, 4]),
                                         ("micromacro", [2, 4])])
def test_snapshots_follow_their_cadence(tmp_path, mode, steps):
    cfg = tiny(tmp_path, mode, n_steps=5, macro={"n_cells": 21, "snapshot_every": 2})
    run_experiment(cfg)
    out = tmp_path / mode
    assert sorted(p.name for p in out.glob("fields_*.csv")) == [
        f"fields_{n:06d}.csv" for n in steps
    ]
    for n in steps:
        with open(out / f"fields_{n:06d}.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "rho", "rho_u"] and len(rows) == 1 + 21


@pytest.mark.parametrize("mode, dim, header", [
    ("micro", 2, "run,seed,step,time,consensus_0,consensus_1"),
    ("macro", 1, "run,seed,step,time,consensus"),
    ("micromacro", 1, "run,seed,step,time,consensus_micro"),
])
def test_ensemble_pools_the_leading_scale_consensus(tmp_path, mode, dim, header):
    cfg = tiny(tmp_path, mode, objective={"name": "ackley", "dim": dim}, n_steps=2)
    report = run_ensemble(cfg, 2)
    with open(report.pooled_csv) as fh:
        assert fh.readline().strip() == header
        assert len(fh.readlines()) == 2 * 3  # two runs, initial row plus two steps


def test_an_ensemble_whose_last_seed_is_out_of_range_fails_before_its_first_run(tmp_path):
    # run k takes seed cfg.seed + k, so the seed key's own bound applies to the last one
    cfg = tiny(tmp_path, "micro", seed=2**64 - 1)
    with pytest.raises(ConfigError) as exc:
        run_ensemble(cfg, 2)
    assert exc.value.errors == [f"run 1 (seed {2**64}): seed: must lie in [0, {2**64 - 1}]"]
    assert not (tmp_path / "micro").exists()  # no run_* directory either
    report = run_ensemble(replace(cfg, seed=2**64 - 2), 2)
    assert [r["seed"] for r in report.runs] == [2**64 - 2, 2**64 - 1]


PINNED = [
    # name, trace.csv digest, summary.json digest
    ("ackley2d_unconstrained", "b86e85e3b1d14a9e", "9630fc27dfa633ec"),
    ("ackley2d_constrained", "371afaa0dea46248", "f096088083c80597"),
    ("ackley1d_macro_constrained", "e80992b8e6cb9d58", "c1550ce028f17478"),
    ("rastrigin1d_micromacro", "65318edc76e8f727", "d3a69b081549b0ea"),
    ("rastrigin1d_micromacro_constrained", "b20b25a5a2f45424", "0638348306ee9620"),
]


@pytest.mark.parametrize("name, digest, summary_digest", PINNED,
                         ids=[f"{name}-{digest}" for name, digest, _ in PINNED])
def test_bundled_trace_is_pinned(load_bundled, name, digest, summary_digest):
    """Each bundled config at its own seed writes the pinned trace.csv and summary.json.

    Each digest is a sha256 prefix, produced with numpy 2.4.6.  A change
    that keeps the numerics keeps them; a scheme change that moves one
    updates it here and states the reason with the change.
    """
    cfg = load_bundled(name)
    assert cfg.seed == 20240815
    run_experiment(cfg)
    for filename, expected in [("trace.csv", digest), ("summary.json", summary_digest)]:
        with open(f"{cfg.output}/{filename}", "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest()[:16] == expected, filename
