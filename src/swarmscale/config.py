"""Experiment configuration: YAML loading, validation, and serialization.

Configs are nested key-trees with one section per solver component.  The
numeric defaults match the bundled experiment files; values that a config
file sets are validated eagerly and errors are reported together, each
prefixed with its key path (e.g. ``micro.m``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from importlib import resources

import numpy as np
import yaml

from .macro import BOUNDARIES, Grid1D, MacroParams
from .micro import DIFFUSION_MODES, MicroParams
from .micromacro import TRANSFER_RULES
from .objectives import (
    BallUnion,
    Halfspace1D,
    IntervalUnion,
    ObjectiveFunction,
    PenalizedObjective,
)
from .penalty import KAPPA_RULES, PenaltyController

MODES = ("micro", "macro", "micromacro")
FEASIBLE_KINDS = ("balls", "intervals", "halfline")

REQUIRED_KEYS = ("mode", "objective", "n_steps", "n_particles", "seed", "output")


class ConfigError(ValueError):
    """Validation failure; ``errors`` holds one message per offending key."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass(frozen=True)
class ObjectiveConfig:
    name: str
    dim: int


@dataclass(frozen=True)
class FeasibleConfig:
    kind: str
    balls: tuple = ()        # ((center tuple, radius_sq), ...)
    intervals: tuple = ()    # ((lo, hi), ...)
    bound: float = 0.0       # halfline: {x <= bound}


def _field(check, default, **bounds):
    """A section field: its default, and the _Checker method and bounds that validate it."""
    return field(default=default, metadata={"check": check, "bounds": bounds})


@dataclass(frozen=True)
class MicroConfig:
    m: float = _field("num", 0.5, lo=0, hi=1, lo_open=True)
    lam: float = _field("num", 1.0, lo=0, lo_open=True)
    sigma: float = _field("num", 1.0 / 3.0**0.5, lo=0)
    dt: float = _field("num", 0.1, lo=0, lo_open=True)
    alpha: float = _field("num", 30.0, lo=0, lo_open=True)
    diffusion: str = _field("choice", "anisotropic", options=DIFFUSION_MODES)
    init_box: tuple = _field("span", (-3.0, 3.0))


@dataclass(frozen=True)
class MacroConfig:
    x_min: float = _field("num", -3.0)
    x_max: float = _field("num", 3.0)
    n_cells: int = _field("integer", 401, lo=3)
    T: float = _field("num", 0.1)
    cfl: float = _field("num", 0.8, lo=0, hi=1, lo_open=True)
    boundary: str = _field("choice", "outflow", options=BOUNDARIES)
    snapshot_every: int = _field("integer", 0, lo=0)  # 0 disables full-field snapshots


@dataclass(frozen=True)
class PenaltyConfig:
    beta0: float = _field("num", 1.0, lo=0, lo_open=True)
    kappa0: float = _field("num", 5.0, lo=0, lo_open=True)
    eta_kappa: float = _field("num", 1.1, lo=1, lo_open=True)
    eta_beta: float = _field("num", 1.1, lo=1, lo_open=True)


@dataclass(frozen=True)
class CouplingConfig:
    zeta0: float = _field("num", 0.5, lo=0, hi=1, lo_open=True, hi_open=True)
    zeta_min: float = _field("num", 0.1, lo=0, hi=1, lo_open=True, hi_open=True)
    zeta_max: float = _field("num", 0.9, lo=0, hi=1, lo_open=True, hi_open=True)
    t_star: int = _field("integer", 240, lo=0)
    transfer_rule: str = _field("choice", "conserve", options=TRANSFER_RULES)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    objective: ObjectiveConfig
    n_steps: int
    n_particles: int
    seed: int
    output: str
    feasible_set: FeasibleConfig | None = None
    micro: MicroConfig = field(default_factory=MicroConfig)
    macro: MacroConfig = field(default_factory=MacroConfig)
    penalty_micro: PenaltyConfig = field(default_factory=PenaltyConfig)
    penalty_macro: PenaltyConfig = field(default_factory=PenaltyConfig)
    failure_kappa_rule: str = "divide"
    coupling: CouplingConfig = field(default_factory=CouplingConfig)

    # -- builders for the runtime objects ---------------------------------

    def build_objective(self) -> ObjectiveFunction:
        return ObjectiveFunction(self.objective.name, self.objective.dim)

    def build_feasible_set(self):
        fs = self.feasible_set
        if fs is None:
            return None
        if fs.kind == "balls":
            return BallUnion([(np.asarray(c), r2) for c, r2 in fs.balls])
        if fs.kind == "intervals":
            return IntervalUnion(list(fs.intervals))
        return Halfspace1D(fs.bound)

    def build_penalized(self, scale: str = "micro") -> PenalizedObjective:
        beta0 = (self.penalty_micro if scale == "micro" else self.penalty_macro).beta0
        fs = self.build_feasible_set()
        beta = beta0 if fs is not None else 0.0
        return PenalizedObjective(self.build_objective(), fs, beta)

    def build_micro_params(self) -> MicroParams:
        c = self.micro
        return MicroParams(c.m, c.lam, c.sigma, c.dt, c.alpha, c.diffusion)

    def build_grid(self) -> Grid1D:
        return Grid1D(self.macro.x_min, self.macro.x_max, self.macro.n_cells)

    def build_macro_params(self) -> MacroParams:
        return MacroParams(gamma=1.0 - self.micro.m, m=self.micro.m, lam=self.micro.lam)

    def build_controller(self, scale: str = "micro") -> PenaltyController:
        c = self.penalty_micro if scale == "micro" else self.penalty_macro
        return PenaltyController(
            beta=c.beta0,
            kappa=c.kappa0,
            kappa0=c.kappa0,
            eta_kappa=c.eta_kappa,
            eta_beta=c.eta_beta,
            failure_kappa_rule=self.failure_kappa_rule,
        )


# -- validation helpers ----------------------------------------------------


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_span(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(_is_num(x) for x in v) and v[0] < v[1]


class _Checker:
    """Accumulates key-path-prefixed validation errors."""

    def __init__(self):
        self.errors = []

    def fail(self, path, msg):
        self.errors.append(f"{path}: {msg}")

    def section(self, data, path, allowed):
        if not isinstance(data, dict):
            self.fail(path, "must be a mapping")
            return {}
        for key in data:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else str(key), "unknown key")
        return data

    def num(self, data, key, path, default=None, lo=None, hi=None,
            lo_open=False, hi_open=False):
        if key not in data:
            return default
        v = data[key]
        full = f"{path}.{key}" if path else key
        if not _is_num(v):
            self.fail(full, "must be a number")
            return default
        v = float(v)
        lo_bad = lo is not None and (v <= lo if lo_open else v < lo)
        hi_bad = hi is not None and (v >= hi if hi_open else v > hi)
        if lo_bad or hi_bad:
            left = "(" if lo_open else "["
            right = ")" if hi_open else "]"
            lo_s = "-inf" if lo is None else f"{lo:g}"
            hi_s = "inf" if hi is None else f"{hi:g}"
            self.fail(full, f"must lie in {left}{lo_s}, {hi_s}{right}")
            return default
        return v

    def integer(self, data, key, path, default=None, lo=None, hi=None):
        if key not in data:
            return default
        v = data[key]
        full = f"{path}.{key}" if path else key
        if not _is_int(v):
            self.fail(full, "must be an integer")
            return default
        if (lo is not None and v < lo) or (hi is not None and v > hi):
            self.fail(full, f"must lie in [{lo}, {hi}]" if hi is not None else f"must be >= {lo}")
            return default
        return v

    def choice(self, data, key, path, default=None, options=()):
        if key not in data:
            return default
        v = data[key]
        full = f"{path}.{key}" if path else key
        if v not in options:
            self.fail(full, f"must be one of {list(options)}")
            return default
        return v

    def span(self, data, key, path, default=None):
        if key not in data:
            return default
        v = data[key]
        if not _is_span(v):
            self.fail(f"{path}.{key}", "must be [lo, hi] with lo < hi")
            return default
        return (float(v[0]), float(v[1]))


def _parse_section(cls, data, path, chk: _Checker):
    """Build a section dataclass, checking each key by its field's declared bounds."""
    data = chk.section(data, path, {f.name for f in fields(cls)})
    return cls(**{
        f.name: getattr(chk, f.metadata["check"])(data, f.name, path, f.default,
                                                  **f.metadata["bounds"])
        for f in fields(cls)
    })


def _parse_feasible(data, dim, chk: _Checker):
    data = chk.section(data, "feasible_set", {"kind", "balls", "intervals", "bound"})
    kind = chk.choice(data, "kind", "feasible_set", options=FEASIBLE_KINDS)
    if kind is None:
        if "kind" not in data:
            chk.fail("feasible_set.kind", "missing required key")
        return None
    if kind == "balls":
        balls = data.get("balls")
        if not isinstance(balls, list) or not balls:
            chk.fail("feasible_set.balls", "must be a nonempty list of {center, radius_sq}")
            return None
        parsed = []
        for i, b in enumerate(balls):
            path = f"feasible_set.balls[{i}]"
            if not isinstance(b, dict) or set(b) != {"center", "radius_sq"}:
                chk.fail(path, "must be a mapping with keys center and radius_sq")
                continue
            center = b["center"]
            if (not isinstance(center, list) or len(center) != dim
                    or not all(_is_num(c) for c in center)):
                chk.fail(f"{path}.center", f"must be a list of {dim} numbers")
                continue
            r2 = b["radius_sq"]
            if not _is_num(r2) or r2 <= 0:
                chk.fail(f"{path}.radius_sq", "must be a positive number")
                continue
            parsed.append((tuple(float(c) for c in center), float(r2)))
        return FeasibleConfig(kind="balls", balls=tuple(parsed))
    if kind == "intervals":
        if dim != 1:
            chk.fail("feasible_set.kind", "intervals require a 1-dimensional objective")
        ivs = data.get("intervals")
        if not isinstance(ivs, list) or not ivs:
            chk.fail("feasible_set.intervals", "must be a nonempty list of [lo, hi] pairs")
            return None
        parsed = []
        for i, iv in enumerate(ivs):
            if not _is_span(iv):
                chk.fail(f"feasible_set.intervals[{i}]", "must be [lo, hi] with lo < hi")
                continue
            parsed.append((float(iv[0]), float(iv[1])))
        return FeasibleConfig(kind="intervals", intervals=tuple(parsed))
    # halfline
    if dim != 1:
        chk.fail("feasible_set.kind", "halfline requires a 1-dimensional objective")
    bound = chk.num(data, "bound", "feasible_set")
    if bound is None:
        chk.fail("feasible_set.bound", "missing required key")
        return None
    return FeasibleConfig(kind="halfline", bound=bound)


def config_from_dict(data) -> ExperimentConfig:
    """Validate a parsed key-tree and build the config; raises ConfigError."""
    chk = _Checker()
    if data is None:
        data = {}
    top_allowed = {
        "mode", "objective", "feasible_set", "micro", "macro",
        "penalty", "coupling", "n_steps", "n_particles", "seed", "output",
    }
    data = chk.section(data, "", top_allowed)
    for key in REQUIRED_KEYS:
        if key not in data:
            chk.fail(key, "missing required key")

    mode = chk.choice(data, "mode", "", options=MODES)

    # objective
    obj = None
    if "objective" in data:
        od = chk.section(data.get("objective"), "objective", {"name", "dim"})
        name = chk.choice(od, "name", "objective", options=("ackley", "rastrigin"))
        dim = chk.integer(od, "dim", "objective", lo=1)
        if "name" not in od:
            chk.fail("objective.name", "missing required key")
        if "dim" not in od:
            chk.fail("objective.dim", "missing required key")
        if name is not None and dim is not None:
            obj = ObjectiveConfig(name=name, dim=dim)

    dim = obj.dim if obj is not None else 1
    if obj is not None and mode in ("macro", "micromacro") and dim != 1:
        chk.fail("objective.dim", f"mode {mode!r} runs on a 1D grid; dim must be 1")

    feasible = None
    if data.get("feasible_set") is not None:
        feasible = _parse_feasible(data["feasible_set"], dim, chk)

    micro = _parse_section(MicroConfig, data.get("micro", {}), "micro", chk)
    macro = _parse_section(MacroConfig, data.get("macro", {}), "macro", chk)
    if macro.x_min >= macro.x_max:
        chk.fail("macro.x_min", "must be below macro.x_max")
    if macro.T == 0:
        chk.fail("macro.T", "must be nonzero (T = 0 loses strict hyperbolicity)")

    pd = chk.section(data.get("penalty", {}), "penalty",
                     {"micro", "macro", "failure_kappa_rule"})
    penalty_micro = _parse_section(PenaltyConfig, pd.get("micro", {}), "penalty.micro", chk)
    penalty_macro = _parse_section(PenaltyConfig, pd.get("macro", {}), "penalty.macro", chk)
    kappa_rule = chk.choice(pd, "failure_kappa_rule", "penalty",
                            ExperimentConfig.failure_kappa_rule, options=KAPPA_RULES)
    coupling = _parse_section(CouplingConfig, data.get("coupling", {}), "coupling", chk)
    if not coupling.zeta_min < coupling.zeta_max:
        chk.fail("coupling.zeta_min", "must be below coupling.zeta_max")
    elif not coupling.zeta_min <= coupling.zeta0 <= coupling.zeta_max:
        chk.fail("coupling.zeta0", "must lie in [zeta_min, zeta_max]")

    n_steps = chk.integer(data, "n_steps", "", lo=1)
    n_particles = chk.integer(data, "n_particles", "", lo=1)
    seed = chk.integer(data, "seed", "", lo=0, hi=2**64 - 1)

    output = data.get("output")
    if "output" in data and (not isinstance(output, str) or not output):
        chk.fail("output", "must be a nonempty path string")
        output = None

    if chk.errors:
        raise ConfigError(chk.errors)
    return ExperimentConfig(
        mode=mode,
        objective=obj,
        n_steps=n_steps,
        n_particles=n_particles,
        seed=seed,
        output=output,
        feasible_set=feasible,
        micro=micro,
        macro=macro,
        penalty_micro=penalty_micro,
        penalty_macro=penalty_macro,
        failure_kappa_rule=kappa_rule,
        coupling=coupling,
    )


def load_config(path) -> ExperimentConfig:
    """Read a YAML config file; raises ConfigError on parse or validation failure."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    except yaml.YAMLError as exc:
        raise ConfigError([f"parse error: {exc}"]) from exc
    if data is not None and not isinstance(data, dict):
        raise ConfigError(["top level: must be a mapping"])
    return config_from_dict(data)


def load_bundled(name: str) -> ExperimentConfig:
    """Load one of the experiment configs shipped inside the package."""
    root = resources.files("swarmscale") / "configs"
    path = root / (name if name.endswith(".yaml") else name + ".yaml")
    if not path.is_file():
        names = sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))
        raise ConfigError([f"config not found: {name} (bundled: {', '.join(names)})"])
    return load_config(path)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-scalar key-tree; load(config_to_dict(cfg)) reproduces cfg exactly."""
    out = asdict(cfg)
    del out["feasible_set"]
    out["micro"]["init_box"] = list(cfg.micro.init_box)
    out["penalty"] = {
        "micro": out.pop("penalty_micro"),
        "macro": out.pop("penalty_macro"),
        "failure_kappa_rule": out.pop("failure_kappa_rule"),
    }
    out["coupling"] = out.pop("coupling")  # keep the file order: penalty, then coupling
    fs = cfg.feasible_set
    if fs is not None:
        if fs.kind == "balls":
            out["feasible_set"] = {
                "kind": "balls",
                "balls": [{"center": list(c), "radius_sq": r2} for c, r2 in fs.balls],
            }
        elif fs.kind == "intervals":
            out["feasible_set"] = {
                "kind": "intervals",
                "intervals": [list(iv) for iv in fs.intervals],
            }
        else:
            out["feasible_set"] = {"kind": "halfline", "bound": fs.bound}
    return out


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)
