"""Runner contract: solver failures, field snapshots, the pooled ensemble header, the
pinned traces of the bundled configs and the grid steps that runs of one config share."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

from swarmscale import macro, micro, objectives, runner
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


@pytest.mark.parametrize("n_steps", [3, 5])
def test_a_non_finite_last_sub_step_fails_its_step(tmp_path, monkeypatch, n_steps):
    # the state the sub-step loop hands back is checked, so a NaN written by the last
    # sub-step of step 3 fails step 3, and a run that ends there does not end "ok"
    cfg = tiny(tmp_path, "macro", n_steps=n_steps)
    target = 3 * cfg.micro.dt
    step = macro.lax_friedrichs_step

    def poisoned(*args, **kwargs):
        state = step(*args, **kwargs)
        if abs(state.time - target) <= 1e-12:
            state.rho_u[5] = np.nan
        return state

    monkeypatch.setattr(macro, "lax_friedrichs_step", poisoned)
    digests = []
    for _ in range(2):  # the failed step is not shared, so the rerun computes it again
        with pytest.raises(RunError, match="cell 5: rho=.*, rho_u=nan") as exc:
            run_experiment(cfg)
        assert exc.value.step == 3
        assert isinstance(exc.value.__cause__, FloatingPointError)
        digests.append(exc.value.digest)
    assert digests[0] == digests[1]
    assert len(shared_records(cfg)) == 2


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


def test_a_scale_that_cannot_be_built_fails_step_0(tmp_path, monkeypatch):
    # the config bounds the swarm's size, so the refusal of its arrays is stood in for
    def refused(*args, **kwargs):
        raise ValueError("array is too big; `arr.size * arr.dtype.itemsize` is larger than "
                         "the maximum possible size.")

    monkeypatch.setattr(runner, "init_swarm", refused)
    cfg = tiny(tmp_path, "micro")
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


@pytest.mark.parametrize("mode", ["micro", "macro", "micromacro"])
def test_every_row_has_the_header_columns(tmp_path, mode):
    cfg = tiny(tmp_path, mode)
    report = run_experiment(cfg)
    with open(report.csv_path) as fh:
        header, *lines = list(csv.reader(fh))
    assert len(set(header)) == len(header)
    assert list(report.rows[0]) == header
    assert len(lines) == cfg.n_steps + 1
    assert all(len(line) == len(header) for line in lines)


def test_a_row_longer_than_its_columns_fails_the_run(tmp_path, monkeypatch):
    init = runner._Grid.__init__

    def drop_last_column(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.columns = self.columns[:-1]

    monkeypatch.setattr(runner._Grid, "__init__", drop_last_column)
    with pytest.raises(ValueError, match="zip"):
        run_experiment(tiny(tmp_path, "micromacro"))


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


def test_an_ensemble_of_no_runs_fails_before_it_makes_a_directory(tmp_path):
    cfg = tiny(tmp_path, "micro")
    with pytest.raises(ConfigError) as exc:
        run_ensemble(cfg, 0)
    assert exc.value.errors == ["n_runs: must be at least 1"]
    assert not os.path.exists(cfg.output)


# bundled config -> (trace.csv digest, summary.json digest), for each kernel numpy may
# dispatch float64 exp to: exp and log differ in their last bits between kernels
PINNED = {
    "X86_V4": {  # AVX-512
        "ackley2d_unconstrained": ("b86e85e3b1d14a9e", "9630fc27dfa633ec"),
        "ackley2d_constrained": ("371afaa0dea46248", "f096088083c80597"),
        "ackley1d_macro_constrained": ("e80992b8e6cb9d58", "c1550ce028f17478"),
        "rastrigin1d_micromacro": ("65318edc76e8f727", "d3a69b081549b0ea"),
        "rastrigin1d_micromacro_constrained": ("b20b25a5a2f45424", "0638348306ee9620"),
    },
    "X86_V3": {  # AVX2
        "ackley2d_unconstrained": ("968946ab5aa0675b", "bbf4ab5b26715853"),
        "ackley2d_constrained": ("0c5eff775e5b5000", "d0018ebcd2f2c329"),
        "ackley1d_macro_constrained": ("20e6ed6c266450a7", "a5fa9545c1be45e7"),
        "rastrigin1d_micromacro": ("cb3becfd1b1ccebd", "92af5d858992cbdc"),
        "rastrigin1d_micromacro_constrained": ("20f43da499443be7", "30a3db94f965042b"),
    },
}
# without AVX2 numpy falls back to its baseline kernel, which writes the AVX2 digests
PINNED["baseline(X86_V2)"] = PINNED["X86_V3"]
BUNDLED = list(PINNED["X86_V4"])


def exp_targets():
    """The float64 exp kernel numpy runs in this process, and the ones the CPU offers."""
    (info,) = opt_func_info(func_name="^exp$", signature="float64.*")["exp"].values()
    return info["current"], info["available"].split()


def digests(cfg):
    """Run cfg; the sha256 prefixes of the trace.csv and summary.json it writes."""
    run_experiment(cfg)
    return tuple(hashlib.sha256(Path(cfg.output, f).read_bytes()).hexdigest()[:16]
                 for f in ("trace.csv", "summary.json"))


@pytest.mark.parametrize("name", BUNDLED,
                         ids=[f"{name}-{trace}" for name, (trace, _) in PINNED["X86_V4"].items()])
def test_bundled_trace_is_pinned(load_bundled, name):
    """Each bundled config at its own seed writes the pinned trace.csv and summary.json.

    Each digest is a sha256 prefix, produced with numpy 2.4.6 and read from
    the row of the float64 exp kernel this process runs; the test ids name
    the X86_V4 trace digest.  A change that keeps the numerics keeps them; a
    scheme change that moves one updates both rows here and states the
    reason with the change.
    """
    target = exp_targets()[0]
    assert target in PINNED, f"no digests are pinned for numpy's float64 exp kernel {target}"
    cfg = load_bundled(name)
    assert cfg.seed == 20240815
    assert digests(cfg) == PINNED[target][name]


@pytest.mark.skipif("X86_V3" not in exp_targets()[1], reason="numpy offers no X86_V3 exp kernel")
@pytest.mark.parametrize("disabled, target", [
    ("X86_V4 AVX512_ICL AVX512_SPR", "X86_V3"),
    ("X86_V4 X86_V3 AVX512_ICL AVX512_SPR", "baseline(X86_V2)"),
], ids=["X86_V3", "baseline(X86_V2)"])
def test_bundled_traces_are_pinned_under_the_avx2_exp_kernel(tmp_path, disabled, target):
    # one process under each older kernel runs all five, so a change that moves a digest
    # updates those rows on an AVX-512 machine as well
    script = (
        "import json, sys\n"
        "from dataclasses import replace\n"
        "from swarmscale.config import load_config\n"
        "import test_runner as t\n"
        "from conftest import bundled_config_path\n"
        "print(json.dumps([t.exp_targets()[0], {n: t.digests(replace(\n"
        "    load_config(bundled_config_path(n)), output=f'{sys.argv[1]}/{n}'))\n"
        "    for n in t.BUNDLED}]))\n"
    )
    tests, src = Path(__file__).parent, Path(runner.__file__).parents[1]
    # numpy on an AVX-512 CPU then dispatches as on an AVX2 one, or one without AVX2
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(tests), str(src),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    current, got = json.loads(done.stdout)
    assert current == target
    assert {n: tuple(d) for n, d in got.items()} == PINNED[target]


# ------------------------------------------------ grid steps shared across runs


def shared_records(cfg):
    """The records of cfg's grid steps in the shared slot, as a new run of cfg finds them."""
    return runner._build_scales(cfg)[-1].shared


def written(cfg, cold=False):
    """Run cfg, from an empty slot if cold; its files but timings.json, and the shared count."""
    if cold:
        runner._shared_steps.cache_clear()
    run_experiment(cfg)
    out = Path(cfg.output)
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.json"}
    with open(out / "timings.json") as fh:
        return files, json.load(fh)["grid_steps_shared"]


def shared_steps(cfg):
    """The grid steps that every run of cfg shares: none, all, or those through t_star."""
    return {"micro": 0, "macro": cfg.n_steps}.get(cfg.mode, min(cfg.n_steps, cfg.coupling.t_star))


@pytest.mark.parametrize("name", BUNDLED)
def test_a_warm_run_writes_what_a_cold_run_writes(load_bundled, name, monkeypatch):
    cfg = load_bundled(name)
    transfer_mass, steps = runner.transfer_mass, []

    def counted(*args):
        steps.append(args[-1])
        return transfer_mass(*args)

    monkeypatch.setattr(runner, "transfer_mass", counted)
    # a coupled run transfers once per step, on the steps it loads as on those it computes
    transfers = list(range(1, cfg.n_steps + 1)) if cfg.mode == "micromacro" else []

    def run(seed, tag, cold=False):
        steps.clear()
        files = written(replace(cfg, seed=seed, output=f"{cfg.output}/{tag}"), cold)
        assert steps == transfers, f"{tag}: transfer_mass calls by step"
        return files

    cold, warm = {}, {}
    for k, other in [(0, 1), (1, 0)]:
        cold[k] = run(cfg.seed + k, f"cold{k}", cold=True)
        # the slot holds seed +k's steps, and the other seed loads them
        warm[other] = run(cfg.seed + other, f"warm{other}")
    for k in (0, 1):
        assert warm[k][0] == cold[k][0], f"seed +{k}"
        assert (cold[k][1], warm[k][1]) == (0, shared_steps(cfg))


def test_configs_run_in_turn_write_what_their_cold_runs_write(load_bundled):
    # A, B, A: B's key differs in one penalty constant, so it empties A's steps
    a = load_bundled("rastrigin1d_micromacro_constrained", n_steps=250)
    a = replace(a, macro=replace(a.macro, snapshot_every=100))
    b = replace(a, penalty=replace(a.penalty, eta_beta=1.2))
    cold = {}
    for cfg, tag in [(a, "a"), (b, "b")]:
        cold[tag] = written(replace(cfg, output=f"{cfg.output}/cold_{tag}"), cold=True)[0]
    assert cold["a"] != cold["b"]
    assert sorted(cold["a"]) == ["fields_000100.csv", "fields_000200.csv", "summary.json",
                                 "trace.csv"]
    runner._shared_steps.cache_clear()
    for k, (cfg, tag) in enumerate([(a, "a"), (b, "b"), (a, "a")]):
        files, shared = written(replace(cfg, output=f"{cfg.output}/{k}"))
        assert files == cold[tag], k
        assert shared == 0, k


def test_a_longer_run_extends_the_shared_steps(load_bundled):
    cfg = load_bundled("rastrigin1d_micromacro_constrained", n_steps=300)
    cold = written(replace(cfg, output=f"{cfg.output}/cold"), cold=True)[0]
    runner._shared_steps.cache_clear()
    short = replace(cfg, n_steps=100, output=f"{cfg.output}/short")
    assert written(short)[1] == 0
    assert len(shared_records(cfg)) == 100
    for k, shared in enumerate([100, cfg.coupling.t_star]):
        files, got = written(replace(cfg, output=f"{cfg.output}/{k}"))
        assert files == cold and got == shared
        assert len(shared_records(cfg)) == cfg.coupling.t_star


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_particle_blowup_in_the_shared_steps_fails_alike_warm_and_cold(tmp_path):
    # the failing step digests the grid's arrays, loaded in the warm run
    cfg = tiny(tmp_path, "micromacro", micro={"sigma": 1e300})
    errors = []
    for _ in range(2):
        with pytest.raises(RunError) as exc:
            run_experiment(cfg)
        errors.append((exc.value.step, exc.value.digest))
    assert errors[0] == errors[1]
    assert errors[0][0] == 2
    assert len(shared_records(cfg)) == 1


def test_the_shared_steps_are_read_only(tmp_path):
    # every later run of the config loads these arrays, so none may change in place
    cfg = tiny(tmp_path, "micromacro")
    run_experiment(cfg)
    records = shared_records(cfg)
    assert len(records) == cfg.n_steps
    for rho, rho_u, _, _, weights in records:
        assert not any(a.flags.writeable for a in (rho, rho_u, weights))
    grid = runner._build_scales(cfg)[-1]
    grid.move(1)
    assert grid.steps_shared == 1
    with pytest.raises(ValueError, match="read-only"):
        grid.state.rho[0] += 1.0
