"""Config loading, validation messages, round-trips and the builders."""

import copy
import csv
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings, strategies as st

from importlib import resources

from swarmscale.config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from swarmscale import keys
from swarmscale.keys import MAX_ARRAY_VALUES, Keyed
from swarmscale.macro import T_MIN, Grid1D
from swarmscale.micro import MicroParams
from swarmscale.micromacro import CouplingConfig
from swarmscale.objectives import (
    Ball, BallUnion, Halfspace1D, IntervalUnion, ObjectiveFunction, PenalizedObjective,
)
from swarmscale.penalty import PenaltyConfig, PenaltyController
from swarmscale.runner import RunError, run_experiment


def bundled_config_path(name):
    return resources.files("swarmscale.configs") / f"{name}.yaml"

BUNDLED = [
    "ackley2d_unconstrained",
    "ackley2d_constrained",
    "ackley1d_macro_constrained",
    "rastrigin1d_micromacro",
    "rastrigin1d_micromacro_constrained",
]


def base_dict(**over):
    d = {
        "mode": "micro",
        "objective": {"name": "ackley", "dim": 2},
        "n_steps": 10,
        "n_particles": 8,
        "seed": 1,
        "output": "runs/test",
    }
    d.update(over)
    return d


def test_all_bundled_configs_load():
    for name in BUNDLED:
        cfg = load_config(bundled_config_path(name))
        assert cfg.n_particles == 480
        assert cfg.seed == 20240815


def test_bundled_constrained_swarm_parameters():
    cfg = load_config(bundled_config_path("ackley2d_constrained"))
    assert cfg.mode == "micro"
    assert cfg.objective.name == "ackley" and cfg.objective.dim == 2
    assert cfg.micro.m == 0.5  # friction 1 - m = 0.5
    assert cfg.micro.lam == 1.0
    assert cfg.micro.sigma == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert cfg.micro.alpha == 30.0
    assert cfg.penalty.beta0 == 1.0
    assert cfg.penalty.kappa0 == 5.0
    assert cfg.penalty.eta_kappa == 1.1
    assert cfg.penalty.eta_beta == 1.1
    assert cfg.n_steps == 400
    assert cfg.feasible_set.kind == "balls"
    assert len(cfg.feasible_set.balls) == 6


def test_empty_file_lists_every_required_key(tmp_path):
    p = tmp_path / "empty.yaml"
    p.write_text("")
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    for key in ("mode", "objective", "n_steps", "n_particles", "seed", "output"):
        assert f"{key}: missing required key" in str(exc.value)
    assert len(exc.value.errors) == 6
    # a config built in code without its required keys lists the same six
    with pytest.raises(ConfigError) as built:
        ExperimentConfig()
    assert built.value.errors == exc.value.errors


def test_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.yaml")
    p = tmp_path / "broken.yaml"
    p.write_text("mode: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(p)


@pytest.mark.parametrize("text, name, line", [
    ("mode: micro\nobjective: {name: ackley, dim: 2}\nn_steps: 10\nn_steps: 400\n", "n_steps", 4),
    ("mode: micro\nobjective: {name: ackley, dim: 2}\nmicro:\n  dt: 0.1\n  dt: 5.0\n", "dt", 5),
], ids=["top level", "section"])
def test_a_key_written_twice_is_a_parse_error(tmp_path, text, name, line):
    # PyYAML alone keeps the last value, so the file would run with n_steps 400 or dt 5.0
    p = tmp_path / "twice.yaml"
    p.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    (error,) = exc.value.errors
    assert error.startswith("parse error: ")
    assert f"found duplicate key {name!r}\n  in \"{p}\", line {line}," in error


def test_non_mapping_top_level(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.errors == ["top level: must be a mapping"]
    # the public parser names a non-mapping once, not as its missing keys
    for data in ([1, 2], "x", ("micro",)):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(data)
        assert exc.value.errors == ["top level: must be a mapping"]


def test_zero_inertia_rejected():
    with pytest.raises(ConfigError, match=r"micro\.m"):
        config_from_dict(base_dict(micro={"m": 0.0}))


def test_unknown_keys_rejected():
    for over, key in [
        ({"extra_knob": 1}, "extra_knob"),
        ({"micro": {"warp": 9}}, "micro.warp"),
        # removed keys: the kappa back-off and the transfer each have one rule
        ({"penalty": {"failure_kappa_rule": "divide"}}, "penalty.failure_kappa_rule"),
        ({"coupling": {"transfer_rule": "conserve"}}, "coupling.transfer_rule"),
        # the grid has one scheme, so a config that still picks one fails at the key
        ({"macro": {"scheme": "lxf"}}, "macro.scheme"),
        # one penalty section seeds both scales, so a per-scale one fails at its key
        ({"penalty": {"micro": {"beta0": 1.0}}}, "penalty.micro"),
    ]:
        with pytest.raises(ConfigError) as exc:
            config_from_dict(base_dict(**over))
        assert exc.value.errors == [f"{key}: unknown key"]


def test_unknown_macro_scheme_is_rejected_at_its_key(tmp_path):
    # a config file that still picks a scheme, the kept one or another, fails loudly
    for scheme in ("lxf", "hydrostatic", "upwind"):
        p = tmp_path / f"{scheme}.yaml"
        p.write_text(yaml.safe_dump(base_dict(macro={"scheme": scheme})))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert exc.value.errors == ["macro.scheme: unknown key"]


def test_a_file_that_picks_a_diffusion_is_refused_at_its_key(tmp_path):
    # the particle step has one exploration, diag(r), so the key that picked one is gone
    for mode in ("anisotropic", "isotropic"):
        p = tmp_path / f"{mode}.yaml"
        p.write_text(yaml.safe_dump(base_dict(micro={"diffusion": mode})))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert exc.value.errors == ["micro.diffusion: unknown key"]


def test_mode_and_objective_validation():
    with pytest.raises(ConfigError, match="mode"):
        config_from_dict(base_dict(mode="quantum"))
    with pytest.raises(ConfigError, match=r"objective\.name"):
        config_from_dict(base_dict(objective={"name": "sphere", "dim": 2}))
    with pytest.raises(ConfigError, match=r"objective\.dim"):
        config_from_dict(base_dict(objective={"name": "ackley", "dim": 0}))


def test_zero_temperature_rejected():
    d = base_dict(
        mode="macro",
        objective={"name": "ackley", "dim": 1},
        macro={"T": 0.0},
    )
    with pytest.raises(ConfigError, match=r"macro\.T"):
        config_from_dict(d)


def test_grid_modes_require_dimension_one():
    d = base_dict(mode="macro")  # objective still dim 2
    with pytest.raises(ConfigError, match="dim"):
        config_from_dict(d)


def test_a_certain_cfl_stall_is_refused_at_load(tmp_path):
    # every characteristic speed is at least |T|, so at T = 1e6 one outer step of
    # micro.dt = 0.005 takes at least 0.005 * 1e6 / (0.8 * 6 / 401) grid sub-steps
    tree = yaml.safe_load(bundled_config_path("rastrigin1d_micromacro").read_text())
    tree["n_steps"] = 1
    tree["macro"]["T"] = 1e6
    path = tmp_path / "stall.yaml"
    path.write_text(yaml.safe_dump(tree))
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.errors == ["macro.T: one outer step needs at least 417708 grid sub-steps, "
                                "over the solver's limit of 100000"]
    for mode in ("macro", "micromacro"):
        with pytest.raises(ConfigError, match=r"^invalid config:\n  - macro\.T: "):
            config_from_dict({**tree, "mode": mode, "macro": {**tree["macro"], "T": -1e6}})
    # at a bound just under the limit the config loads; a lone swarm never reads the grid
    assert config_from_dict({**tree, "macro": {**tree["macro"], "T": 2.39e5}}).macro.T == 2.39e5
    micro = {**tree, "mode": "micro", "objective": {"name": "rastrigin", "dim": 1}}
    assert config_from_dict(micro).macro.T == 1e6


def test_an_array_over_the_budget_is_refused_at_load(tmp_path):
    # 20,240,815 particles asked for 162 MB per (N, 1) array, in every mode
    tree = yaml.safe_load(bundled_config_path("rastrigin1d_micromacro").read_text())
    for mode in ("micro", "macro", "micromacro"):
        path = tmp_path / f"{mode}.yaml"
        path.write_text(yaml.safe_dump({**tree, "mode": mode, "n_particles": 20240815}))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.errors == ["n_particles: 20240815 particles in dim 1 exceed the budget "
                                    "of MAX_ARRAY_VALUES = 4194304 values per array"]
    # the budget bounds n_particles * objective.dim: at dim 2 half of it fits, one more does not
    half = MAX_ARRAY_VALUES // 2
    assert config_from_dict(base_dict(n_particles=half)).n_particles == half
    for over in ({"n_particles": half + 1}, {"objective": {"name": "ackley", "dim": half}}):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(base_dict(**over))
        assert [e.split(":")[0] for e in exc.value.errors] == ["n_particles"]
    # the grid's cell count is bounded in its key
    grid = {**tree, "macro": {**tree["macro"], "n_cells": MAX_ARRAY_VALUES}}
    assert config_from_dict(grid).macro.n_cells == MAX_ARRAY_VALUES
    with pytest.raises(ConfigError) as exc:
        config_from_dict({**tree, "macro": {**tree["macro"], "n_cells": MAX_ARRAY_VALUES + 1}})
    assert exc.value.errors == [f"macro.n_cells: must lie in [3, {MAX_ARRAY_VALUES}]"]


def test_zeta_bounds_ordering():
    d = base_dict(
        mode="micromacro",
        objective={"name": "rastrigin", "dim": 1},
        coupling={"zeta0": 0.95},
    )
    with pytest.raises(ConfigError, match="zeta"):
        config_from_dict(d)


def test_seed_range():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(base_dict(seed=-1))
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(base_dict(seed=2**64))
    cfg = config_from_dict(base_dict(seed=2**64 - 1))
    assert cfg.seed == 2**64 - 1


def test_feasible_set_validation():
    with pytest.raises(ConfigError, match="kind"):
        config_from_dict(base_dict(feasible_set={"kind": "polygon"}))
    with pytest.raises(ConfigError, match="intervals"):
        config_from_dict(
            base_dict(
                objective={"name": "ackley", "dim": 1},
                feasible_set={"kind": "intervals", "intervals": [[1.0, 0.5]]},
            )
        )


def test_round_trip_every_bundled_config(tmp_path):
    for name in BUNDLED:
        cfg = load_config(bundled_config_path(name))
        d1 = config_to_dict(cfg)
        cfg2 = config_from_dict(d1)
        assert config_to_dict(cfg2) == d1
        p = tmp_path / f"{name}.yaml"
        save_config(cfg, p)
        cfg3 = load_config(p)
        assert config_to_dict(cfg3) == d1


def test_builders_wire_the_parameters():
    cfg = load_config(bundled_config_path("rastrigin1d_micromacro_constrained"))
    f = cfg.objective  # the section is the objective itself
    assert isinstance(f, ObjectiveFunction)
    assert f.name == "rastrigin" and f.dim == 1

    fs = cfg.feasible_set  # the section is the feasible set itself
    assert fs.distance(np.array([0.0])) == pytest.approx(0.5)
    assert cfg.build_feasible_set() is fs  # kept for perfbench's gates

    pf = PenalizedObjective(cfg.objective, cfg.feasible_set)
    assert pf.objective is f and pf.feasible_set is fs

    params = cfg.micro  # the section is the particles' (and the grid's) parameter object
    assert isinstance(params, MicroParams)

    grid = cfg.macro  # the section is the grid, with its solver's settings
    assert isinstance(grid, Grid1D)
    assert grid.n_cells == 401

    assert params.gamma == pytest.approx(1.0 - params.m)

    ctrl = PenaltyController(cfg.penalty)
    assert ctrl.beta == 1.0 and ctrl.kappa == 5.0 and ctrl.rule is cfg.penalty


def test_config_error_accumulates():
    with pytest.raises(ConfigError) as exc:
        config_from_dict(
            base_dict(mode="quantum", n_steps=-5, seed="abc")
        )
    msgs = str(exc.value)
    assert msgs.startswith("invalid config:")
    assert len(exc.value.errors) >= 3


ONE_D = {"name": "ackley", "dim": 1}


@pytest.mark.parametrize("over, key", [
    ({"micro": {"m": math.nan}}, "micro.m"),
    ({"micro": {"dt": math.inf}}, "micro.dt"),
    ({"macro": {"T": -math.inf}}, "macro.T"),
    ({"micro": {"init_box": [-math.inf, 3.0]}}, "micro.init_box"),
    ({"penalty": {"beta0": math.nan}}, "penalty.beta0"),
    ({"feasible_set": {"kind": "balls", "balls": [{"center": [0.0, math.nan], "radius_sq": 1.0}]}},
     "feasible_set.balls[0].center"),
    ({"feasible_set": {"kind": "balls", "balls": [{"center": [0.0, 0.0], "radius_sq": math.inf}]}},
     "feasible_set.balls[0].radius_sq"),
    ({"objective": ONE_D, "feasible_set": {"kind": "halfline", "bound": math.nan}},
     "feasible_set.bound"),
    ({"objective": ONE_D, "feasible_set": {"kind": "intervals", "intervals": [[0.0, math.inf]]}},
     "feasible_set.intervals[0]"),
])
def test_non_finite_numbers_rejected(over, key):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(base_dict(**over))
    assert exc.value.errors[0].startswith(f"{key}: ")


def test_balls_of_mixed_dimension_are_refused_at_their_key():
    mixed = [((0.0, 0.0), 1.0), ((0.0,), 1.0)]
    with pytest.raises(ValueError, match="^balls: every center must have the same length$"):
        BallUnion(mixed)
    balls = [{"center": list(c), "radius_sq": r} for c, r in mixed]
    with pytest.raises(ConfigError) as exc:
        config_from_dict(base_dict(feasible_set={"kind": "balls", "balls": balls}))
    assert exc.value.errors == ["feasible_set.balls: every center must have the same length"]


@pytest.mark.parametrize("over, key, bounds", [
    ({"n_particles": 10**400}, "n_particles", [1, 2**63 - 1]),
    ({"n_steps": 10**400}, "n_steps", [1, 2**63 - 1]),
    ({"objective": {"name": "ackley", "dim": 10**400}}, "objective.dim", [1, 2**63 - 1]),
    ({"macro": {"n_cells": 10**400}}, "macro.n_cells", [3, MAX_ARRAY_VALUES]),
    ({"macro": {"snapshot_every": 10**400}}, "macro.snapshot_every", [0, 2**63 - 1]),
    ({"coupling": {"t_star": 10**400}}, "coupling.t_star", [0, 2**63 - 1]),
    ({"seed": 2**64}, "seed", [0, 2**64 - 1]),
])
def test_integer_keys_are_bounded(over, key, bounds):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(base_dict(**over))
    assert exc.value.errors == [f"{key}: must lie in {bounds}"]


def test_bad_halfline_bound_is_one_error():
    with pytest.raises(ConfigError) as exc:
        config_from_dict(base_dict(objective=ONE_D,
                                   feasible_set={"kind": "halfline", "bound": "x"}))
    assert [e for e in exc.value.errors if e.startswith("feasible_set.bound")] == [
        "feasible_set.bound: must be a number"]
    with pytest.raises(ConfigError) as exc:
        config_from_dict(base_dict(objective=ONE_D, feasible_set={"kind": "halfline"}))
    assert exc.value.errors == ["feasible_set.bound: missing required key"]


def test_bad_objective_name_does_not_cascade_into_the_feasible_set():
    d = yaml.safe_load(bundled_config_path("ackley2d_constrained").read_text())
    d["objective"]["name"] = "sphere"
    with pytest.raises(ConfigError) as exc:
        config_from_dict(d)
    assert exc.value.errors == ["objective.name: must be one of ['ackley', 'rastrigin']"]


BALL = {"center": [0.0, 0.0], "radius_sq": 1.0}


@pytest.mark.parametrize("over, errors", [
    ({"feasible_set": {"kind": "balls", "balls": [{"center": [0.0], "radius_sq": 1.0}]}},
     ["feasible_set.balls[0].center: must be a list of 2 numbers"]),
    ({"feasible_set": {"kind": "balls", "balls": []}},
     ["feasible_set.balls: must not be empty"]),
    ({"feasible_set": {"kind": "balls"}},
     ["feasible_set.balls: missing required key"]),
    ({"feasible_set": {"kind": "balls", "balls": [{**BALL, "colour": "red"}]}},
     ["feasible_set.balls[0].colour: unknown key"]),
    ({"feasible_set": {"kind": "balls", "balls": [{"center": [0.0, 0.0]}]}},
     ["feasible_set.balls[0].radius_sq: missing required key"]),
    ({"feasible_set": {"kind": "balls", "balls": [{**BALL, "radius_sq": 0.0}]}},
     ["feasible_set.balls[0].radius_sq: must lie in (0, inf]"]),
    ({"feasible_set": {"kind": "balls", "balls": [BALL], "bound": 1.0}},
     ["feasible_set.bound: is not a key of kind 'balls'"]),
    ({"feasible_set": {"kind": "intervals", "intervals": [[0.0, 1.0]]}},
     ["feasible_set.kind: 'intervals' requires a 1-dimensional objective"]),
    ({"feasible_set": {"bound": 1.0}},
     ["feasible_set.kind: missing required key"]),
])
def test_feasible_set_rules(over, errors):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(base_dict(**over))
    assert exc.value.errors == errors


def test_null_feasible_set_is_unconstrained():
    cfg = config_from_dict(base_dict(feasible_set=None))
    assert cfg == config_from_dict(base_dict())
    assert cfg.feasible_set is None
    # F_beta of an unconstrained config is its objective, whatever beta
    x = np.array([[0.3, -1.2], [2.0, 0.5]])
    pf = PenalizedObjective(cfg.objective, cfg.feasible_set)
    assert np.array_equal(pf.evaluate(x, cfg.penalty.beta0), cfg.objective(x))
    assert "feasible_set" not in config_to_dict(cfg)


def test_config_to_dict_is_plain_data():
    def plain(v):
        if isinstance(v, dict):
            return all(isinstance(k, str) and plain(x) for k, x in v.items())
        if isinstance(v, list):
            return all(plain(x) for x in v)
        return type(v) in (str, int, float)

    for name in BUNDLED:
        assert plain(config_to_dict(load_config(bundled_config_path(name)))), name


def test_penalty_section_is_read_from_yaml(tmp_path):
    p = tmp_path / "penalty.yaml"
    p.write_text(yaml.safe_dump(base_dict(penalty={"beta0": 2.5, "kappa0": 7.0})))
    cfg = load_config(p)
    assert cfg.penalty.beta0 == 2.5 and cfg.penalty.kappa0 == 7.0
    assert cfg.penalty.eta_beta == 1.1  # an absent key takes its default
    ctrl = PenaltyController(cfg.penalty)
    assert (ctrl.beta, ctrl.kappa, ctrl.rule.kappa0) == (2.5, 7.0, 7.0)


@pytest.mark.parametrize("over, errors", [
    ({"objective": 5}, ["objective: must be a mapping"]),
    ({"feasible_set": 3}, ["feasible_set: must be a mapping"]),
    ({"feasible_set": {"kind": "balls", "balls": [5]}},
     ["feasible_set.balls[0]: must be a mapping"]),
])
def test_a_section_that_is_not_a_mapping_is_one_error(over, errors):
    # not also a "missing required key" for each key the section would hold
    with pytest.raises(ConfigError) as exc:
        config_from_dict(base_dict(**over))
    assert exc.value.errors == errors


def test_parameter_objects_built_in_code_reject_what_the_config_rejects():
    for bad_key, cls, kwargs in [
        ("dt", MicroParams, {"dt": math.inf}),
        ("lam", MicroParams, {"lam": math.inf}),
        ("sigma", MicroParams, {"sigma": math.nan}),
        ("dim", ObjectiveFunction, {"name": "ackley", "dim": True}),
        ("dim", ObjectiveFunction, {"name": "ackley", "dim": 2.0}),
        ("eta_beta", PenaltyConfig, {"eta_beta": math.inf}),
        # a required key is checked even when it is None, and reported when it is absent
        ("name", ObjectiveFunction, {"name": None, "dim": 2}),
        ("name", ObjectiveFunction, {"dim": 2}),
        ("radius_sq", Ball, {"center": (0.0,)}),
        ("x_min", Grid1D, {"x_min": math.nan, "x_max": 1.0, "n_cells": 10}),
        ("x_max", Grid1D, {"x_min": 0.0, "x_max": math.inf, "n_cells": 10}),
        ("n_cells", Grid1D, {"x_min": 0.0, "x_max": 1.0, "n_cells": 10.5}),
        ("T", Grid1D, {"T": math.nan}),  # the spread that the grid functions read
        ("T", Grid1D, {"T": 1e-300}),  # the step divides by T*T, which underflows to 0
        ("cfl", Grid1D, {"cfl": 0}),
        ("cfl", Grid1D, {"cfl": 5e-324}),  # cfl * dx underflows to 0, so the grid cannot step
        ("boundary", Grid1D, {"boundary": "reflecting"}),
        ("zeta0", CouplingConfig, {"zeta0": 1.0}),
        ("t_star", CouplingConfig, {"t_star": -1}),
        # the rule that init_coupling reads
        ("t_star", CouplingConfig, {"t_star": 1.5}),
        ("t_star", CouplingConfig, {"t_star": True}),
    ]:
        with pytest.raises(ValueError, match=f"^{bad_key}: "):
            cls(**kwargs)
    cfg = config_from_dict(base_dict())
    assert cfg.micro == MicroParams()
    assert cfg.macro == Grid1D() and cfg.coupling == CouplingConfig()


def test_tiny_T_is_rejected_exactly_where_its_square_underflows():
    assert Grid1D(T=T_MIN).T * T_MIN > 0 and Grid1D(T=-T_MIN).T == -T_MIN
    below = math.nextafter(T_MIN, 0.0)
    assert below * below == 0
    with pytest.raises(ValueError) as exc:
        Grid1D(T=below)
    assert str(exc.value) == f"T: |T| must be at least {T_MIN}, or T*T underflows to 0"


@pytest.mark.parametrize("build, message", [
    (lambda: Halfspace1D(math.nan), "bound: must be a number"),
    (lambda: Halfspace1D("x"), "bound: must be a number"),
    (lambda: IntervalUnion([(0, math.inf)]), "intervals[0]: must be [lo, hi] with lo < hi"),
    (lambda: IntervalUnion([]), "intervals: must not be empty"),
    (lambda: BallUnion([((0, math.nan), 1)]), "balls[0].center: must be a list of numbers"),
    (lambda: BallUnion([((0, 0), math.inf)]), "balls[0].radius_sq: must be a number"),
    # a tuple is the entry's keys in order, so it holds no more values than the keys
    (lambda: BallUnion([((0.0, 0.0), 1.0, 2.0)]),
     "balls[0]: must hold at most 2 values, one per key"),
    (lambda: Ball((0, math.nan), math.inf),
     "center: must be a list of numbers\nradius_sq: must be a number"),
], ids=["bound-nan", "bound-str", "interval-inf", "no-intervals", "center-nan", "radius-inf",
        "ball-tuple-too-long", "each-bad-key"])
def test_feasible_sets_built_in_code_reject_what_the_config_rejects(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("over, errors", [
    ({"macro": {"x_min": 1.0, "x_max": 1.0}}, ["macro.x_min: must be below x_max"]),
    ({"macro": {"T": 0}}, ["macro.T: must be nonzero (T = 0 loses strict hyperbolicity)"]),
    ({"macro": {"T": 1e-162}}, [f"macro.T: |T| must be at least {T_MIN}, or T*T underflows to 0"]),
    ({"macro": {"cfl": 5e-324}}, ["macro.cfl: cfl * dx underflows to 0, so the grid cannot step"]),
    ({"coupling": {"zeta_min": 0.5, "zeta_max": 0.5}},
     ["coupling.zeta_min: must be below zeta_max"]),
    ({"coupling": {"zeta0": 0.95}}, ["coupling.zeta0: must lie in [zeta_min, zeta_max]"]),
    # a section with a failed key is not built, so its rule between keys
    # does not also run on the default that stands in for x_min
    ({"macro": {"x_min": "a", "x_max": -5}}, ["macro.x_min: must be a number"]),
    # the rules that span sections run only once every key has parsed
    ({"mode": "macro", "n_steps": -1}, [f"n_steps: must lie in [1, {2**63 - 1}]"]),
    # an unknown key is not a failed key: the section is built from the rest,
    # so its rules run and are reported beside it
    ({"extra": 1, "mode": "macro"},
     ["extra: unknown key", "objective.dim: mode 'macro' runs on a 1D grid; dim must be 1"]),
], ids=["x_min-above-x_max", "T-zero", "T-squares-to-zero", "cfl-step-underflows",
        "zeta_min-above-zeta_max", "zeta0-out-of-bounds", "failed-key-suppresses-the-rule",
        "failed-key-suppresses-the-rules-across-sections", "unknown-key-leaves-the-rules"])
def test_a_rule_between_keys_is_reported_at_its_key(over, errors):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(base_dict(**over))
    assert exc.value.errors == errors


def test_reading_a_mapping_checks_each_key_once():
    calls = []

    def counted(check):
        def counted_check(v, **bounds):
            calls.append(check.__name__)
            return check(v, **bounds)
        return counted_check

    @dataclass(frozen=True)
    class Inner(Keyed):
        label: str = keys.key(counted(keys.path_string))
        rate: float = keys.key(counted(keys.number), 1.0, lo=0)

    @dataclass(frozen=True)
    class Outer(Keyed):
        steps: int = keys.key(counted(keys.integer), lo=1)
        inner: Inner = keys.section(Inner, required=True)
        points: tuple = keys.key_list(counted(keys.span))

    errors = []
    outer = keys.read({"section": Outer}, {"steps": 3, "inner": {"rate": 2.0, "label": "a"},
                                           "points": [[0, 1], [1, 2]]}, "", errors)
    assert sorted(calls) == ["integer", "number", "path_string", "span", "span"]
    assert errors == [] and outer == Outer(3, Inner("a", 2.0), ((0.0, 1.0), (1.0, 2.0)))
    # an absent key's default is checked once too, and an absent required key is named
    calls.clear()
    assert keys.read({"section": Outer}, {"inner": {"label": "a"}}, "", errors) is None
    assert calls == ["path_string", "number"]
    assert errors == ["steps: missing required key", "points: missing required key"]


def section_classes(spec):
    """The section classes a field's spec holds: its own, its entries', or one per kind."""
    spec = spec.get("each", spec)
    return list(spec["kinds"].values()) if "kinds" in spec else [spec.get("section")]


# an instance of each section that has required keys; the walk builds one from the YAML
BUILT = {ObjectiveFunction: ObjectiveFunction("ackley", 2), Ball: Ball((0.0, 0.0), 1.0),
         BallUnion: BallUnion([((0.0, 0.0), 1.0)]), IntervalUnion: IntervalUnion([(0.0, 1.0)]),
         Halfspace1D: Halfspace1D(0.0),
         ExperimentConfig: ExperimentConfig("micro", ObjectiveFunction("ackley", 2), 10, 8, 1,
                                            "out")}


def test_every_section_checks_its_keys_when_built():
    """A section added to the config tree that does not parse its keys as a Keyed fails here."""

    def sections(cls):
        for f in fields(cls):
            for sub in section_classes(f.metadata):
                if sub is not None:
                    yield sub
                    yield from sections(sub)

    found = {ExperimentConfig, *sections(ExperimentConfig)}
    assert {Ball, BallUnion, IntervalUnion, Halfspace1D, Grid1D} <= found
    for cls in found:
        assert issubclass(cls, Keyed), cls
        # nan fails every value check, a list key's included
        name = next(f.name for f in fields(cls) if f.metadata.keys() & {"check", "each"})
        with pytest.raises(ValueError, match=f"^(invalid config:\n  - )?{name}: "):
            replace(BUILT.get(cls) or cls(), **{name: math.nan})


def test_every_config_key_declares_its_check():
    """A key added to the config tree without a value check and bounds fails here."""

    def leaves(cls, prefix):
        for f in fields(cls):
            subs = section_classes(f.metadata)
            if subs != [None]:
                for sub in subs:
                    yield from leaves(sub, f"{prefix}{f.name}.")
            else:
                yield f"{prefix}{f.name}", f.metadata.get("each", f.metadata)

    keys = dict(leaves(ExperimentConfig, ""))
    assert "micro.dt" in keys and "feasible_set.balls.center" in keys
    assert "feasible_set.intervals" in keys and "feasible_set.bound" in keys
    assert [k for k, spec in keys.items() if "check" not in spec] == []


@pytest.mark.parametrize("over, errors", [
    ({"n_steps": 0}, [f"n_steps: must lie in [1, {2**63 - 1}]"]),
    ({"output": ""}, ["output: must be a nonempty path string"]),
    ({"mode": "macro"}, ["objective.dim: mode 'macro' runs on a 1D grid; dim must be 1"]),
    # a tuple is not a mapping, even where a section of a fixed class takes one
    ({"feasible_set": (1.0,)}, ["feasible_set: must be a mapping"]),
    # a section of a fixed class reads a tuple as its keys in order, no more of them
    ({"macro": (1.0,) * 9}, ["macro: must hold at most 7 values, one per key"]),
])
def test_replace_on_a_config_runs_the_walks_checks(over, errors):
    cfg = config_from_dict(base_dict())  # a 2-D objective
    with pytest.raises(ConfigError) as exc:
        replace(cfg, **over)
    assert exc.value.errors == errors
    with pytest.raises(ConfigError) as exc:
        config_from_dict(base_dict(**over))
    assert exc.value.errors == errors


# a key path, or "top level", then the message
KEY_PATH = re.compile(r"(top level|\w+(\[\d+\])*(\.\w+(\[\d+\])*)*): ")
NAMES = ["extra", "kind", "bound", "balls", "intervals", "center", "radius_sq", "dim", "T"]
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([2**63, 2**64, 10**400]),
    st.floats(), st.text(max_size=2), st.lists(st.floats(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(NAMES), st.integers(0, 2), max_size=2),
)


def nodes(tree):
    """Each (container, key) pair of a key-tree, lists' entries included."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for k, v in items:
        yield tree, k
        if isinstance(v, (dict, list)):
            yield from nodes(v)


TREES = [yaml.safe_load(bundled_config_path(name).read_text()) for name in BUNDLED]
# values that the bundled trees hold, so a changed key may well still parse
SEEN = [c[k] for t in TREES for c, k in nodes(t)]


@st.composite
def config_trees(draw):
    """A bundled config's tree with up to three keys changed, or a top level of junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    tree = copy.deepcopy(draw(st.sampled_from(TREES)))
    for _ in range(draw(st.integers(0, 3))):
        owner, k = draw(st.sampled_from([*nodes(tree)]))
        change = draw(st.sampled_from(["swap", "swap", "junk", "delete", "add"]))
        if change == "swap":  # a value of its type from a bundled tree, which may still parse
            same = [v for v in SEEN if type(v) is type(owner[k])] or SEEN
            owner[k] = copy.deepcopy(draw(st.sampled_from(same)))
        elif change == "junk":
            owner[k] = draw(JUNK)
        elif change == "delete" and isinstance(owner, dict):
            del owner[k]
        elif change == "add" and isinstance(owner, dict):
            owner[draw(st.sampled_from(NAMES))] = draw(JUNK)
    return tree


FREE_TREE = TREES[BUNDLED.index("rastrigin1d_micromacro")]


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(config_trees())
# a CFL step that underflows to 0, which the generator does not draw
@example({**FREE_TREE, "macro": {**FREE_TREE["macro"], "cfl": 5e-324}})
def test_every_tree_is_rejected_at_key_paths_or_loads_and_round_trips(tree):
    try:
        cfg = config_from_dict(tree)
    except ConfigError as exc:
        assert exc.errors and all(KEY_PATH.match(e) for e in exc.errors), exc.errors
        return
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert replace(cfg) == cfg


BUNDLED_CONFIGS = [config_from_dict(tree) for tree in TREES]
FINITE_JSON = {"parse_constant": lambda c: pytest.fail(f"summary.json holds {c}")}


@st.composite
def short_runs(draw):
    """A config that loads from a tree of config_trees, set to run 1-8 steps.

    The transfer starts within the run (t_star <= n_steps), so a coupled run
    makes at least one active transfer.
    """
    try:
        cfg = config_from_dict(draw(config_trees()))
    except ConfigError:
        assume(False)
    n_steps = draw(st.integers(1, 8))
    t_star = draw(st.integers(0, n_steps))
    return replace(cfg, n_steps=n_steps, coupling=replace(cfg.coupling, t_star=t_star))


# the particles' objective overflows at step 1, so every pass runs the RunError branch
FREE = BUNDLED_CONFIGS[BUNDLED.index("rastrigin1d_micromacro")]
BLOW_UP = replace(FREE, n_steps=3, micro=replace(FREE.micro, sigma=1e300))
# both bundled coupled configs, their transfer active from step 2 of 6
CONSTRAINED = BUNDLED_CONFIGS[BUNDLED.index("rastrigin1d_micromacro_constrained")]
ACTIVE = [replace(c, n_steps=6, coupling=replace(c.coupling, t_star=2)) for c in (FREE, CONSTRAINED)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(short_runs())
@example(BLOW_UP)
@example(ACTIVE[0])
@example(ACTIVE[1])
def test_every_loaded_config_runs_to_finite_output_or_fails_at_a_step(cfg):
    with tempfile.TemporaryDirectory() as out:
        cfg = replace(cfg, output=out)
        try:
            run_experiment(cfg)
        except RunError as exc:
            assert 0 <= exc.step <= cfg.n_steps and f"(step {exc.step}," in str(exc)
            return
        with open(os.path.join(out, "trace.csv"), newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == cfg.n_steps + 1
        for row in rows:
            for column, cell in zip(header, row, strict=True):
                if column.startswith("branch"):
                    assert cell in ("none", "success", "failure")
                else:
                    assert math.isfinite(float(cell)), (column, cell)
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh, **FINITE_JSON)
        assert summary["n_steps"] == cfg.n_steps
