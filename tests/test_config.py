"""Config loading, validation messages, round-trips and the builders."""

import math

import pytest
import yaml

from importlib import resources

from swarmscale.config import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)


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
    assert cfg.micro.diffusion == "anisotropic"
    assert cfg.penalty.micro.beta0 == 1.0
    assert cfg.penalty.micro.kappa0 == 5.0
    assert cfg.penalty.micro.eta_kappa == 1.1
    assert cfg.penalty.micro.eta_beta == 1.1
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


def test_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.yaml")
    p = tmp_path / "broken.yaml"
    p.write_text("mode: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_non_mapping_top_level(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="top level"):
        load_config(p)


def test_zero_inertia_rejected():
    with pytest.raises(ConfigError, match=r"micro\.m"):
        config_from_dict(base_dict(micro={"m": 0.0}))


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict(base_dict(extra_knob=1))
    with pytest.raises(ConfigError, match=r"micro\.warp"):
        config_from_dict(base_dict(micro={"warp": 9}))


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
    f = cfg.build_objective()
    assert f.name == "rastrigin" and f.dim == 1

    fs = cfg.build_feasible_set()
    import numpy as np

    assert fs.distance(np.array([0.0])) == pytest.approx(0.5)

    pf = cfg.build_penalized("micro")
    assert pf.beta == cfg.penalty.micro.beta0

    params = cfg.build_micro_params()
    assert params.dt == cfg.micro.dt and params.alpha == cfg.micro.alpha

    grid = cfg.build_grid()
    assert grid.n_cells == 401

    mp = cfg.build_macro_params()
    assert mp.gamma == pytest.approx(1.0 - cfg.micro.m)
    assert mp.m == cfg.micro.m and mp.lam == cfg.micro.lam

    for scale in ("micro", "macro"):
        ctrl = cfg.build_controller(scale)
        assert ctrl.beta == 1.0 and ctrl.kappa == 5.0


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
    ({"penalty": {"micro": {"beta0": math.nan}}}, "penalty.micro.beta0"),
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


def test_bad_objective_name_does_not_cascade_into_the_feasible_set():
    d = yaml.safe_load(bundled_config_path("ackley2d_constrained").read_text())
    d["objective"]["name"] = "sphere"
    with pytest.raises(ConfigError) as exc:
        config_from_dict(d)
    assert exc.value.errors == ["objective.name: must be one of ['ackley', 'rastrigin']"]


def test_penalty_section_is_read_from_yaml(tmp_path):
    p = tmp_path / "penalty.yaml"
    p.write_text(yaml.safe_dump(base_dict(penalty={
        "micro": {"beta0": 2.5, "kappa0": 7.0},
        "failure_kappa_rule": "multiply",
    })))
    cfg = load_config(p)
    assert cfg.penalty.micro.beta0 == 2.5 and cfg.penalty.micro.kappa0 == 7.0
    assert cfg.penalty.macro.beta0 == 1.0  # an absent section takes its defaults
    assert cfg.penalty.failure_kappa_rule == "multiply"
    ctrl = cfg.build_controller("micro")
    assert (ctrl.beta, ctrl.kappa, ctrl.failure_kappa_rule) == (2.5, 7.0, "multiply")
    assert config_to_dict(cfg)["penalty"]["failure_kappa_rule"] == "multiply"
