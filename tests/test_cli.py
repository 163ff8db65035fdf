"""Command-line surface: subcommands, exit codes, CSV/JSON artifacts."""

import csv
import json

import pytest
import yaml

from swarmscale import cli, macro, runner
from swarmscale.runner import RunError


def write_config(tmp_path, name="tiny.yaml", **over):
    d = {
        "mode": "micro",
        "objective": {"name": "ackley", "dim": 2},
        "micro": {"dt": 0.1},
        "n_steps": 5,
        "n_particles": 8,
        "seed": 7,
        "output": str(tmp_path / "out"),
    }
    d.update(over)
    p = tmp_path / name
    p.write_text(yaml.safe_dump(d))
    return p


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_validate_config_bundled_name(capsys):
    assert cli.main(["validate-config", "--config", "ackley2d_unconstrained"]) == 0
    out = capsys.readouterr().out
    assert "config valid" in out and "ackley" in out


def test_validate_config_predicts_the_work_of_a_grid_config(load_bundled, monkeypatch, capsys):
    assert cli.main(["validate-config", "--config", "rastrigin1d_micromacro"]) == 0
    cfg = load_bundled("rastrigin1d_micromacro")
    least = cfg.n_steps * cfg.macro.least_substeps(cfg.micro.dt)
    assert capsys.readouterr().out.splitlines()[1:] == [
        "particle steps: 800 of 480 particles",
        f"grid sub-steps: at least {least:.6g}",
        # the particles' positions, 480 values, outsize the grid's padded rows of 403
        "largest array: 3840 bytes of float64",
    ]
    # a run takes at least that many sub-steps
    substeps, step = [], macro.lax_friedrichs_step
    monkeypatch.setattr(macro, "lax_friedrichs_step", lambda *a: substeps.append(a) or step(*a))
    runner.run_experiment(cfg)
    assert len(substeps) >= least


def test_unknown_bundled_name_lists_options(capsys):
    assert cli.main(["validate-config", "--config", "no_such_setup"]) == 2
    err = capsys.readouterr().err
    assert "rastrigin1d_micromacro" in err  # the error enumerates bundled names


def test_validate_config_rejects_bad_file(tmp_path, capsys):
    p = write_config(tmp_path, micro={"m": 0.0})
    assert cli.main(["validate-config", "--config", str(p)]) == 2
    assert "micro.m" in capsys.readouterr().err


def test_run_writes_artifacts(tmp_path, capsys):
    p = write_config(tmp_path)
    assert cli.main(["run", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "argmin estimate" in out

    csv_path = tmp_path / "out" / "trace.csv"
    json_path = tmp_path / "out" / "summary.json"
    assert csv_path.exists() and json_path.exists()

    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["step", "time", "consensus_0", "consensus_1", "softmin_gap",
                      "beta", "kappa", "violation", "branch"]
    rows = read_rows(csv_path)
    assert len(rows) == 6  # initial row plus one per step

    summary = json.loads(json_path.read_text())
    assert summary["mode"] == "micro" and summary["seed"] == 7
    assert summary["n_steps"] == 5
    assert len(summary["argmin_estimate"]) == 2
    assert summary["final_masses"]["total"] == pytest.approx(1.0)


def test_run_single_silent_particle_trace(tmp_path):
    # sigma 0 and zero initial velocity: the lone particle never moves
    p = write_config(
        tmp_path,
        objective={"name": "rastrigin", "dim": 1},
        micro={"dt": 0.1, "sigma": 0.0},
        n_particles=1,
        n_steps=4,
    )
    assert cli.main(["run", "--config", str(p)]) == 0
    rows = read_rows(tmp_path / "out" / "trace.csv")
    xs = {row["consensus_0"] for row in rows}
    assert len(xs) == 1
    assert all(float(r["softmin_gap"]) == 0.0 for r in rows)
    assert all(r["branch"] == "none" for r in rows)


def test_run_is_byte_identical(tmp_path):
    p1 = write_config(tmp_path, name="a.yaml", output=str(tmp_path / "o1"))
    p2 = write_config(tmp_path, name="b.yaml", output=str(tmp_path / "o2"))
    assert cli.main(["run", "--config", str(p1)]) == 0
    assert cli.main(["run", "--config", str(p2)]) == 0
    t1 = (tmp_path / "o1" / "trace.csv").read_bytes()
    t2 = (tmp_path / "o2" / "trace.csv").read_bytes()
    assert t1 == t2
    # the wall time goes to timings.json, so the summary is a rerun artifact too
    s1 = (tmp_path / "o1" / "summary.json").read_bytes()
    s2 = (tmp_path / "o2" / "summary.json").read_bytes()
    assert s1 == s2


def test_run_seed_and_out_flags(tmp_path):
    p = write_config(tmp_path)
    out2 = tmp_path / "elsewhere"
    assert cli.main(["run", "--config", str(p), "--seed", "99",
                     "--out", str(out2)]) == 0
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["seed"] == 99

    assert cli.main(["run", "--config", str(p), "--seed", "-3"]) == 2
    assert cli.main(["run", "--config", str(p), "--seed", str(2**64)]) == 2


def test_overrides_are_checked_as_config_keys(tmp_path, capsys):
    p = write_config(tmp_path)
    assert cli.main(["run", "--config", str(p), "--out", ""]) == 2
    assert "output: must be a nonempty path string" in capsys.readouterr().err
    assert cli.main(["ensemble", "--config", str(p), "--seed", "-1"]) == 2
    assert "seed: must lie in [0, 18446744073709551615]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_macro_mode_columns(tmp_path):
    p = write_config(
        tmp_path,
        mode="macro",
        objective={"name": "ackley", "dim": 1},
        macro={"x_min": -2.0, "x_max": 2.0, "n_cells": 21, "T": 0.1, "cfl": 0.8,
               "boundary": "periodic"},
        micro={"dt": 0.01},
        n_steps=3,
    )
    assert cli.main(["run", "--config", str(p)]) == 0
    with open(tmp_path / "out" / "trace.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["step", "time", "consensus", "beta", "kappa", "violation", "branch",
                      "total_mass", "argmax_center"]
    rows = read_rows(tmp_path / "out" / "trace.csv")
    for row in rows:
        assert float(row["total_mass"]) == pytest.approx(1.0, abs=1e-10)


def test_run_micromacro_mode_columns_and_masses(tmp_path):
    p = write_config(
        tmp_path,
        mode="micromacro",
        objective={"name": "rastrigin", "dim": 1},
        macro={"x_min": -3.0, "x_max": 3.0, "n_cells": 21, "T": 0.1, "cfl": 0.8,
               "boundary": "periodic"},
        micro={"dt": 0.01},
        coupling={"zeta0": 0.5, "t_star": 1},
        n_particles=16,
        n_steps=4,
    )
    assert cli.main(["run", "--config", str(p)]) == 0
    with open(tmp_path / "out" / "trace.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == [
        "step", "time",
        "consensus_micro", "beta_micro", "kappa_micro", "violation_micro", "branch_micro",
        "consensus_macro", "beta_macro", "kappa_macro", "violation_macro", "branch_macro",
        "zeta", "mass_micro", "mass_macro", "mass_total",
    ]
    rows = read_rows(tmp_path / "out" / "trace.csv")
    for row in rows:
        assert float(row["mass_total"]) == pytest.approx(1.0, rel=1e-10)
        assert 0.1 <= float(row["zeta"]) <= 0.9
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_zeta"] == pytest.approx(float(rows[-1]["zeta"]))


def test_run_reports_solver_failure(tmp_path, monkeypatch, capsys):
    p = write_config(tmp_path)

    def boom(cfg):
        raise RunError("it broke", 3, "cafe")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["run", "--config", str(p)]) == 1
    assert "solver failure" in capsys.readouterr().err


def test_run_reports_a_config_the_solver_cannot_build(tmp_path, capsys, monkeypatch):
    # the config bounds the swarm's size, so a set-up that fails is stood in for
    def refused(*args, **kwargs):
        raise ValueError("array is too big")

    monkeypatch.setattr(runner, "init_swarm", refused)
    p = write_config(tmp_path)
    assert cli.main(["run", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert "solver failure" in err and "(step 0," in err


@pytest.mark.parametrize("command", ["run", "ensemble"])
def test_an_output_path_that_is_a_file_fails_cleanly(tmp_path, capsys, command):
    p = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main([command, "--config", str(p), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and str(taken) in err
    assert taken.read_text() == ""


def test_ensemble_runs_and_pools(tmp_path, capsys):
    p = write_config(tmp_path, n_steps=3)
    assert cli.main(["ensemble", "--config", str(p), "--runs", "3"]) == 0
    out_dir = tmp_path / "out"
    for k in range(3):
        assert (out_dir / f"run_{k:03d}" / "trace.csv").exists()
    assert (out_dir / "ensemble.json").exists()
    pooled = json.loads((out_dir / "ensemble.json").read_text())
    assert pooled["n_runs"] == 3
    assert all(r["ok"] for r in pooled["runs"])
    assert "3/3 runs succeeded" in capsys.readouterr().out


def test_ensemble_seeds_are_consecutive(tmp_path):
    p = write_config(tmp_path, n_steps=2, seed=100)
    assert cli.main(["ensemble", "--config", str(p), "--runs", "2"]) == 0
    for k in (0, 1):
        s = json.loads(
            (tmp_path / "out" / f"run_{k:03d}" / "summary.json").read_text()
        )
        assert s["seed"] == 100 + k


def test_ensemble_rejects_zero_runs(tmp_path, capsys):
    p = write_config(tmp_path)
    assert cli.main(["ensemble", "--config", str(p), "--runs", "0"]) == 2
    assert "n_runs: must be at least 1" in capsys.readouterr().err


def test_ensemble_rejects_a_last_seed_out_of_range(tmp_path, capsys):
    p = write_config(tmp_path, seed=2**64 - 1)
    assert cli.main(["ensemble", "--config", str(p), "--runs", "2"]) == 2
    assert f"run 1 (seed {2**64}): seed: must lie in [0, {2**64 - 1}]" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("run_*"))


def test_validate_config_rejects_non_finite_numbers(tmp_path, capsys):
    # a NaN inertia used to pass validation, and then `run` died with a traceback
    p = tmp_path / "nan.yaml"
    p.write_text(write_config(tmp_path).read_text().replace("dt: 0.1", "m: .nan"))
    assert cli.main(["validate-config", "--config", str(p)]) == 2
    assert "micro.m: must be a number" in capsys.readouterr().err


def test_validate_config_reads_exponent_floats(tmp_path, capsys):
    # YAML 1.1 reads 5e-3 as a string, which failed as "must be a number"
    p = write_config(tmp_path, mode="micromacro", objective={"name": "rastrigin", "dim": 1},
                     macro={"cfl": 0.5})
    p.write_text(p.read_text().replace("dt: 0.1", "dt: 5e-3").replace("cfl: 0.5", "cfl: 5e-324"))
    assert cli.main(["validate-config", "--config", str(p)]) == 2
    assert capsys.readouterr().err.strip().splitlines()[1:] == [
        "  - macro.cfl: cfl * dx underflows to 0, so the grid cannot step"]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_ensemble_reports_each_failed_run(tmp_path, capsys):
    p = write_config(tmp_path, n_steps=3, micro={"dt": 0.1, "sigma": 1e300})
    assert cli.main(["ensemble", "--config", str(p), "--runs", "2"]) == 1
    captured = capsys.readouterr()
    assert "0/2 runs succeeded" in captured.out
    lines = captured.err.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["run 0 (seed 7) failed",
                                                        "run 1 (seed 8) failed"]
    assert all("swarm blew up" in line for line in lines)
