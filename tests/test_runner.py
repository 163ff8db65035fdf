"""Runner contract: solver failures, field snapshots and the pooled ensemble header."""

import csv
import re

import numpy as np
import pytest

from swarmscale import runner
from swarmscale.config import config_from_dict
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
