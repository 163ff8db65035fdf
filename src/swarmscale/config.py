"""Experiment configuration: YAML loading, validation, and serialization.

Configs are nested key-trees with one section per solver component, and the
dataclass tree of ``ExperimentConfig`` is that key-tree.  The numeric
defaults match the bundled experiment files; values that a config file sets
are validated eagerly and errors are reported together, each prefixed with
its key path (e.g. ``micro.m``).
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from importlib import resources

import numpy as np
import yaml

from .macro import BOUNDARIES, Grid1D, MacroParams
from .micro import DIFFUSION_MODES, MicroParams
from .objectives import (
    OBJECTIVE_NAMES,
    BallUnion,
    Halfspace1D,
    IntervalUnion,
    ObjectiveFunction,
    PenalizedObjective,
)
from .penalty import PenaltyController

MODES = ("micro", "macro", "micromacro")
# each kind of feasible set, and the one key that describes a set of that kind
FEASIBLE_KEYS = {"balls": "balls", "intervals": "intervals", "halfline": "bound"}
FEASIBLE_KINDS = tuple(FEASIBLE_KEYS)


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


def _integer(v, lo, hi=2**63 - 1) -> int:
    # the default cap is the int64 range that numpy sizes and counters live in
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError("must be an integer")
    if not lo <= v <= hi:
        raise ValueError(f"must lie in [{lo}, {hi}]")
    return v


def _choice(v, options=()):
    if v not in options:
        raise ValueError(f"must be one of {list(options)}")
    return v


def _numbers(v) -> tuple:
    if not isinstance(v, list) or not all(_is_num(x) for x in v):
        raise ValueError("must be a list of numbers")
    return tuple(float(x) for x in v)


def _span(v) -> tuple:
    if not isinstance(v, list) or len(v) != 2 or not all(_is_num(x) for x in v) or v[0] >= v[1]:
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


def _list(entry):
    """A list key whose entries are each a value of ``entry``, a check or a section.

    Absent, it is the empty tuple; given, it must not be empty.
    """
    spec = {"section": entry} if is_dataclass(entry) else {"check": entry, "bounds": {}}
    return field(default=(), metadata={"each": spec})


@dataclass(frozen=True)
class ObjectiveConfig:
    name: str = _field(_choice, options=OBJECTIVE_NAMES)
    dim: int = _field(_integer, lo=1)


@dataclass(frozen=True)
class BallConfig:
    center: tuple = _field(_numbers)
    radius_sq: float = _field(_num, lo=0, lo_open=True)


@dataclass(frozen=True)
class FeasibleConfig:
    """The feasible set K; ``kind`` names the one key that describes it."""

    kind: str = _field(_choice, options=FEASIBLE_KINDS)
    balls: tuple = _list(BallConfig)
    intervals: tuple = _list(_span)                 # ((lo, hi), ...)
    bound: float | None = _field(_num, None)        # halfline: {x <= bound}


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
    """One controller per scale."""

    micro: PenaltyConfig = _section(PenaltyConfig)
    macro: PenaltyConfig = _section(PenaltyConfig)


@dataclass(frozen=True)
class CouplingConfig:
    zeta0: float = _field(_num, 0.5, lo=0, hi=1, lo_open=True, hi_open=True)
    zeta_min: float = _field(_num, 0.1, lo=0, hi=1, lo_open=True, hi_open=True)
    zeta_max: float = _field(_num, 0.9, lo=0, hi=1, lo_open=True, hi_open=True)
    t_star: int = _field(_integer, 240, lo=0)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  The field tree is the YAML tree.

    Every field is a key of the file and every nested dataclass a section of
    it; each key declares its default and bounds once, in its field, and
    ``config_to_dict`` writes the same tree back.  An absent or null
    ``feasible_set`` means the run is unconstrained.
    """

    mode: str = _field(_choice, options=MODES)
    objective: ObjectiveConfig = _section(ObjectiveConfig, required=True)
    n_steps: int = _field(_integer, lo=1)
    n_particles: int = _field(_integer, lo=1)
    seed: int = _field(_integer, lo=0, hi=2**64 - 1)
    output: str = _field(_path)
    feasible_set: FeasibleConfig | None = field(default=None, metadata={"section": FeasibleConfig})
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
            return BallUnion([(np.asarray(b.center), b.radius_sq) for b in fs.balls])
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


def _is_unset(value) -> bool:
    """An optional key's unset default: None, or an empty tuple of entries."""
    return value is None or value == ()


def _parse_section(cls, data, path, chk: _Checker):
    """Build a section dataclass, parsing each key by its field.

    An absent key takes its default, and so does a null one whose default is
    unset.  A required key that is missing or fails is left as None; an
    optional one that fails keeps its default.
    """
    data = chk.section(data, path, {f.name for f in fields(cls)})
    values = {}
    for f in fields(cls):
        key = f"{path}.{f.name}" if path else f.name
        required = f.default is MISSING and f.default_factory is MISSING
        if f.default_factory is not MISSING:
            default = f.default_factory()
        else:
            default = None if required else f.default
        if f.name not in data or (data[f.name] is None and _is_unset(f.default)):
            if required:
                chk.fail(key, "missing required key")
            values[f.name] = default
        else:
            values[f.name] = _parse_value(f.metadata, data[f.name], key, chk, default)
    return cls(**values)


def _parse_value(spec, value, key, chk: _Checker, default=None):
    """Parse a given value by a field's spec: a section, a list of entries, or a check."""
    if "section" in spec:
        return _parse_section(spec["section"], value, key, chk)
    if "each" in spec:
        if not isinstance(value, list):
            chk.fail(key, "must be a list")
            return default
        if not value:
            chk.fail(key, "must not be empty")
            return default
        return tuple(_parse_value(spec["each"], v, f"{key}[{i}]", chk)
                     for i, v in enumerate(value))
    try:
        return spec["check"](value, **spec["bounds"])
    except ValueError as exc:
        chk.fail(key, str(exc))
        return default


def _check_feasible(raw, fs: FeasibleConfig, dim, chk: _Checker):
    """The feasible-set rules that depend on its kind or on the objective's dimension."""
    own = FEASIBLE_KEYS[fs.kind]
    # read off the raw mapping: a key that is given but failed its check is unset in fs
    if raw.get(own) is None:
        chk.fail(f"feasible_set.{own}", "missing required key")
    for key in FEASIBLE_KEYS.values():
        if key != own and not _is_unset(getattr(fs, key)):
            chk.fail(f"feasible_set.{key}", f"is not a key of kind {fs.kind!r}")
    if fs.kind != "balls" and dim not in (None, 1):
        chk.fail("feasible_set.kind", f"{fs.kind!r} requires a 1-dimensional objective")
    for i, ball in enumerate(fs.balls):
        if ball.center is not None and dim is not None and len(ball.center) != dim:
            chk.fail(f"feasible_set.balls[{i}].center", f"must be a list of {dim} numbers")


def config_from_dict(data) -> ExperimentConfig:
    """Validate a parsed key-tree and build the config; raises ConfigError."""
    chk = _Checker()
    if data is None:
        data = {}
    cfg = _parse_section(ExperimentConfig, data, "", chk)

    # the cross-field checks; a required key that failed its own check is None here
    dim = getattr(cfg.objective, "dim", None)
    if cfg.mode in ("macro", "micromacro") and dim not in (None, 1):
        chk.fail("objective.dim", f"mode {cfg.mode!r} runs on a 1D grid; dim must be 1")
    fs = cfg.feasible_set
    if fs is not None and fs.kind is not None:
        _check_feasible(data["feasible_set"], fs, dim, chk)
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


def _plain(value):
    """``asdict`` output as plain YAML data: tuples become lists, unset keys drop out."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items() if not _is_unset(v)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-scalar key-tree; load(config_to_dict(cfg)) reproduces cfg exactly."""
    return _plain(asdict(cfg))


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)
