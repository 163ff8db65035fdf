"""Experiment configuration: YAML loading, validation, and serialization.

Configs are nested key-trees with one section per solver component, and the
dataclass tree of ``ExperimentConfig`` is that key-tree.  The numeric
defaults match the bundled experiment files; values that a config file sets
are validated eagerly and errors are reported together, each prefixed with
its key path (e.g. ``micro.m``).
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from importlib import resources

import numpy as np
import yaml

from .macro import BOUNDARIES, Grid1D, MacroParams
from .micro import DIFFUSION_MODES, MicroParams
from .micromacro import TRANSFER_RULES
from .objectives import (
    OBJECTIVE_NAMES,
    BallUnion,
    Halfspace1D,
    IntervalUnion,
    ObjectiveFunction,
    PenalizedObjective,
)
from .penalty import KAPPA_RULES, PenaltyController

MODES = ("micro", "macro", "micromacro")
FEASIBLE_KINDS = ("balls", "intervals", "halfline")


class ConfigError(ValueError):
    """Validation failure; ``errors`` holds one message per offending key."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


# -- value checks: each returns the parsed value or raises ValueError ------


def _is_num(v) -> bool:
    # the magnitude test also rejects nan, +-inf and ints beyond the float range
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_span(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(_is_num(x) for x in v) and v[0] < v[1]


def _num(v, lo=None, hi=None, lo_open=False, hi_open=False) -> float:
    if not _is_num(v):
        raise ValueError("must be a number")
    v = float(v)
    lo_bad = lo is not None and (v <= lo if lo_open else v < lo)
    hi_bad = hi is not None and (v >= hi if hi_open else v > hi)
    if lo_bad or hi_bad:
        left = "(" if lo_open else "["
        right = ")" if hi_open else "]"
        lo_s = "-inf" if lo is None else f"{lo:g}"
        hi_s = "inf" if hi is None else f"{hi:g}"
        raise ValueError(f"must lie in {left}{lo_s}, {hi_s}{right}")
    return v


def _integer(v, lo=None, hi=None) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError("must be an integer")
    if (lo is not None and v < lo) or (hi is not None and v > hi):
        raise ValueError(f"must lie in [{lo}, {hi}]" if hi is not None else f"must be >= {lo}")
    return v


def _choice(v, options=()):
    if v not in options:
        raise ValueError(f"must be one of {list(options)}")
    return v


def _span(v) -> tuple:
    if not _is_span(v):
        raise ValueError("must be [lo, hi] with lo < hi")
    return (float(v[0]), float(v[1]))


def _path(v) -> str:
    if not isinstance(v, str) or not v:
        raise ValueError("must be a nonempty path string")
    return v


# -- the config tree -------------------------------------------------------


def _field(check, default=MISSING, **bounds):
    """A config key: its value check and bounds, and its default (none: a required key)."""
    return field(default=default, metadata={"check": check, "bounds": bounds})


def _section(cls, required=False):
    """A nested config section; an absent optional one takes all its defaults."""
    return field(default_factory=MISSING if required else cls, metadata={"section": cls})


@dataclass(frozen=True)
class ObjectiveConfig:
    name: str = _field(_choice, options=OBJECTIVE_NAMES)
    dim: int = _field(_integer, lo=1)


@dataclass(frozen=True)
class FeasibleConfig:
    kind: str
    balls: tuple = ()        # ((center tuple, radius_sq), ...)
    intervals: tuple = ()    # ((lo, hi), ...)
    bound: float = 0.0       # halfline: {x <= bound}


@dataclass(frozen=True)
class MicroConfig:
    m: float = _field(_num, 0.5, lo=0, hi=1, lo_open=True)
    lam: float = _field(_num, 1.0, lo=0, lo_open=True)
    sigma: float = _field(_num, 1.0 / 3.0**0.5, lo=0)
    dt: float = _field(_num, 0.1, lo=0, lo_open=True)
    alpha: float = _field(_num, 30.0, lo=0, lo_open=True)
    diffusion: str = _field(_choice, "anisotropic", options=DIFFUSION_MODES)
    init_box: tuple = _field(_span, (-3.0, 3.0))


@dataclass(frozen=True)
class MacroConfig:
    x_min: float = _field(_num, -3.0)
    x_max: float = _field(_num, 3.0)
    n_cells: int = _field(_integer, 401, lo=3)
    T: float = _field(_num, 0.1)
    cfl: float = _field(_num, 0.8, lo=0, hi=1, lo_open=True)
    boundary: str = _field(_choice, "outflow", options=BOUNDARIES)
    snapshot_every: int = _field(_integer, 0, lo=0)  # 0 disables full-field snapshots


@dataclass(frozen=True)
class PenaltyConfig:
    beta0: float = _field(_num, 1.0, lo=0, lo_open=True)
    kappa0: float = _field(_num, 5.0, lo=0, lo_open=True)
    eta_kappa: float = _field(_num, 1.1, lo=1, lo_open=True)
    eta_beta: float = _field(_num, 1.1, lo=1, lo_open=True)


@dataclass(frozen=True)
class PenaltySection:
    """One controller per scale, and the kappa back-off rule they share."""

    micro: PenaltyConfig = _section(PenaltyConfig)
    macro: PenaltyConfig = _section(PenaltyConfig)
    failure_kappa_rule: str = _field(_choice, "divide", options=KAPPA_RULES)


@dataclass(frozen=True)
class CouplingConfig:
    zeta0: float = _field(_num, 0.5, lo=0, hi=1, lo_open=True, hi_open=True)
    zeta_min: float = _field(_num, 0.1, lo=0, hi=1, lo_open=True, hi_open=True)
    zeta_max: float = _field(_num, 0.9, lo=0, hi=1, lo_open=True, hi_open=True)
    t_star: int = _field(_integer, 240, lo=0)
    transfer_rule: str = _field(_choice, "conserve", options=TRANSFER_RULES)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  The field tree is the YAML tree.

    Every field is a key of the file and every nested dataclass a section of
    it; each key declares its default and bounds once, in its field, and
    ``config_to_dict`` writes the same tree back.  ``feasible_set`` alone is
    parsed by hand, because its keys depend on its kind and the dimension.
    """

    mode: str = _field(_choice, options=MODES)
    objective: ObjectiveConfig = _section(ObjectiveConfig, required=True)
    n_steps: int = _field(_integer, lo=1)
    n_particles: int = _field(_integer, lo=1)
    seed: int = _field(_integer, lo=0, hi=2**64 - 1)
    output: str = _field(_path)
    feasible_set: FeasibleConfig | None = None
    micro: MicroConfig = _section(MicroConfig)
    macro: MacroConfig = _section(MacroConfig)
    penalty: PenaltySection = _section(PenaltySection)
    coupling: CouplingConfig = _section(CouplingConfig)

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
        fs = self.build_feasible_set()
        beta = getattr(self.penalty, scale).beta0 if fs is not None else 0.0
        return PenalizedObjective(self.build_objective(), fs, beta)

    def build_micro_params(self) -> MicroParams:
        c = self.micro
        return MicroParams(c.m, c.lam, c.sigma, c.dt, c.alpha, c.diffusion)

    def build_grid(self) -> Grid1D:
        return Grid1D(self.macro.x_min, self.macro.x_max, self.macro.n_cells)

    def build_macro_params(self) -> MacroParams:
        return MacroParams(m=self.micro.m, lam=self.micro.lam)

    def build_controller(self, scale: str = "micro") -> PenaltyController:
        c = getattr(self.penalty, scale)
        return PenaltyController(
            beta=c.beta0,
            kappa=c.kappa0,
            kappa0=c.kappa0,
            eta_kappa=c.eta_kappa,
            eta_beta=c.eta_beta,
            failure_kappa_rule=self.penalty.failure_kappa_rule,
        )


# -- validation ------------------------------------------------------------


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

    def get(self, data, key, path, check, default=None, **bounds):
        """check(data[key], **bounds); the default if the key is absent or fails."""
        if key not in data:
            return default
        try:
            return check(data[key], **bounds)
        except ValueError as exc:
            self.fail(f"{path}.{key}" if path else key, str(exc))
            return default


def _parse_section(cls, data, path, chk: _Checker):
    """Build a section dataclass, checking each key by its field and recursing into sections.

    A required key that fails or is missing is left as None.  A field with
    neither a check nor a section (``feasible_set``) keeps its default.
    """
    data = chk.section(data, path, {f.name for f in fields(cls)})
    values = {}
    for f in fields(cls):
        key = f"{path}.{f.name}" if path else f.name
        required = f.default is MISSING and f.default_factory is MISSING
        if required and f.name not in data:
            chk.fail(key, "missing required key")
            values[f.name] = None
        elif "section" in f.metadata:
            values[f.name] = _parse_section(f.metadata["section"], data.get(f.name, {}), key, chk)
        elif "check" in f.metadata:
            default = None if required else f.default
            values[f.name] = chk.get(data, f.name, path, f.metadata["check"], default,
                                     **f.metadata["bounds"])
    return cls(**values)


def _parse_feasible(data, dim, chk: _Checker):
    data = chk.section(data, "feasible_set", {"kind", "balls", "intervals", "bound"})
    kind = chk.get(data, "kind", "feasible_set", _choice, options=FEASIBLE_KINDS)
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
    bound = chk.get(data, "bound", "feasible_set", _num)
    if bound is None:
        chk.fail("feasible_set.bound", "missing required key")
        return None
    return FeasibleConfig(kind="halfline", bound=bound)


def config_from_dict(data) -> ExperimentConfig:
    """Validate a parsed key-tree and build the config; raises ConfigError."""
    chk = _Checker()
    if data is None:
        data = {}
    cfg = _parse_section(ExperimentConfig, data, "", chk)

    # the cross-field checks, and the feasible set, whose keys depend on the dimension
    dim = getattr(cfg.objective, "dim", None) or 1
    if cfg.mode in ("macro", "micromacro") and dim != 1:
        chk.fail("objective.dim", f"mode {cfg.mode!r} runs on a 1D grid; dim must be 1")
    if isinstance(data, dict) and data.get("feasible_set") is not None:
        cfg = replace(cfg, feasible_set=_parse_feasible(data["feasible_set"], dim, chk))
    if cfg.macro.x_min >= cfg.macro.x_max:
        chk.fail("macro.x_min", "must be below macro.x_max")
    if cfg.macro.T == 0:
        chk.fail("macro.T", "must be nonzero (T = 0 loses strict hyperbolicity)")
    coupling = cfg.coupling
    if not coupling.zeta_min < coupling.zeta_max:
        chk.fail("coupling.zeta_min", "must be below coupling.zeta_max")
    elif not coupling.zeta_min <= coupling.zeta0 <= coupling.zeta_max:
        chk.fail("coupling.zeta0", "must lie in [zeta_min, zeta_max]")

    if chk.errors:
        raise ConfigError(chk.errors)
    return cfg


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
    del out["feasible_set"]  # written last, and by hand: its keys depend on its kind
    out["micro"]["init_box"] = list(cfg.micro.init_box)
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
