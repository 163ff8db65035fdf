"""Experiment configuration: YAML loading, validation, and serialization.

Configs are nested key-trees with one section per solver component, and the
dataclass tree of ``ExperimentConfig`` is that key-tree.  The numeric
defaults match the bundled experiment files; values that a config file sets
are validated eagerly and errors are reported together, each prefixed with
its key path (e.g. ``micro.m``).
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields
from importlib import resources

import numpy as np
import yaml

from .keys import (
    choice, integer, is_unset, key, key_list, number, numbers, path_string, section, span,
)
from .macro import Grid1D
from .micro import MicroParams
from .micromacro import CouplingConfig
from .objectives import (
    BallUnion, Halfspace1D, IntervalUnion, ObjectiveFunction, PenalizedObjective,
)
from .penalty import PenaltyConfig, PenaltyController

MODES = ("micro", "macro", "micromacro")
# each kind of feasible set, and the one key that describes a set of that kind
FEASIBLE_KEYS = {"balls": "balls", "intervals": "intervals", "halfline": "bound"}
FEASIBLE_KINDS = tuple(FEASIBLE_KEYS)


class ConfigError(ValueError):
    """Validation failure; ``errors`` holds one message per offending key."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass(frozen=True)
class BallConfig:
    center: tuple = key(numbers)
    radius_sq: float = key(number, lo=0, lo_open=True)


@dataclass(frozen=True)
class FeasibleConfig:
    """The feasible set K; ``kind`` names the one key that describes it."""

    kind: str = key(choice, options=FEASIBLE_KINDS)
    balls: tuple = key_list(BallConfig)
    intervals: tuple = key_list(span)               # ((lo, hi), ...)
    bound: float | None = key(number, None)         # halfline: {x <= bound}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  The field tree is the YAML tree.

    Every field is a key of the file and every nested dataclass a section of
    it; each key declares its default and bounds once, in its field, and
    ``config_to_dict`` writes the same tree back.  The ``micro``,
    ``objective``, ``macro``, ``penalty`` and ``coupling`` sections are the
    solvers' own objects, and each checks its keys when it is built.  An
    absent or null ``feasible_set`` means the run is unconstrained.
    """

    mode: str = key(choice, options=MODES)
    objective: ObjectiveFunction = section(ObjectiveFunction, required=True)
    n_steps: int = key(integer, lo=1)
    n_particles: int = key(integer, lo=1)
    seed: int = key(integer, lo=0, hi=2**64 - 1)
    output: str = key(path_string)
    feasible_set: FeasibleConfig | None = field(default=None, metadata={"section": FeasibleConfig})
    micro: MicroParams = section(MicroParams)
    macro: Grid1D = section(Grid1D)
    penalty: PenaltyConfig = section(PenaltyConfig)
    coupling: CouplingConfig = section(CouplingConfig)

    # -- builders for the runtime objects ---------------------------------

    def build_feasible_set(self):
        fs = self.feasible_set
        if fs is None:
            return None
        if fs.kind == "balls":
            return BallUnion([(np.asarray(b.center), b.radius_sq) for b in fs.balls])
        if fs.kind == "intervals":
            return IntervalUnion(list(fs.intervals))
        return Halfspace1D(fs.bound)

    def build_penalized(self) -> PenalizedObjective:
        fs = self.build_feasible_set()
        beta = self.penalty.beta0 if fs is not None else 0.0
        return PenalizedObjective(self.objective, fs, beta)

    def build_controller(self) -> PenaltyController:
        return PenaltyController(self.penalty.beta0, self.penalty.kappa0, self.penalty)


# -- validation ------------------------------------------------------------


class _Checker:
    """Accumulates key-path-prefixed validation errors."""

    def __init__(self):
        self.errors = []

    def fail(self, path, msg):
        self.errors.append(f"{path}: {msg}")


def _required(f) -> bool:
    return f.default is MISSING and f.default_factory is MISSING


def _parse_keys(cls, data, path, chk: _Checker):
    """Parse each key of a section by its field; None if ``data`` is not a mapping.

    An absent key takes its default, and so does a null one whose default is
    unset.  A key that is missing or fails takes its default (None for a
    required key) after its error, and the walk builds no section from them.
    """
    if not isinstance(data, dict):
        chk.fail(path, "must be a mapping")
        return None
    names = {f.name for f in fields(cls)}
    for name in data:
        if name not in names:
            chk.fail(f"{path}.{name}" if path else str(name), "unknown key")
    values = {}
    for f in fields(cls):
        key_path = f"{path}.{f.name}" if path else f.name
        required = _required(f)
        if f.default_factory is not MISSING:
            default = f.default_factory()
        else:
            default = None if required else f.default
        if f.name not in data or (data[f.name] is None and is_unset(f.default)):
            if required:
                chk.fail(key_path, "missing required key")
            values[f.name] = default
        else:
            values[f.name] = _parse_value(f.metadata, data[f.name], key_path, chk, default)
    return values


def _parse_value(spec, value, key_path, chk: _Checker, default=None):
    """Parse a given value by a field's spec: a section, a list of entries, or a check."""
    if "section" in spec:
        n_errors = len(chk.errors)
        values = _parse_keys(spec["section"], value, key_path, chk)
        # a section with a failed key is not built, so no rule between its keys
        # runs on a stand-in default
        if len(chk.errors) > n_errors:
            return default
        try:
            return spec["section"](**values)
        except ValueError as exc:  # a rule between keys, reported at its key
            chk.errors.append(f"{key_path}.{exc}")
            return default
    if "each" in spec:
        if not isinstance(value, list):
            chk.fail(key_path, "must be a list")
            return default
        if not value:
            chk.fail(key_path, "must not be empty")
            return default
        return tuple(_parse_value(spec["each"], v, f"{key_path}[{i}]", chk)
                     for i, v in enumerate(value))
    try:
        return spec["check"](value, **spec["bounds"])
    except ValueError as exc:
        chk.fail(key_path, str(exc))
        return default


def _check_feasible(fs: FeasibleConfig, dim, chk: _Checker):
    """The feasible-set rules that depend on its kind or on the objective's dimension."""
    own = FEASIBLE_KEYS[fs.kind]
    if is_unset(getattr(fs, own)):
        chk.fail(f"feasible_set.{own}", "missing required key")
    for name in FEASIBLE_KEYS.values():
        if name != own and not is_unset(getattr(fs, name)):
            chk.fail(f"feasible_set.{name}", f"is not a key of kind {fs.kind!r}")
    if fs.kind != "balls" and dim not in (None, 1):
        chk.fail("feasible_set.kind", f"{fs.kind!r} requires a 1-dimensional objective")
    for i, ball in enumerate(fs.balls):
        if dim is not None and len(ball.center) != dim:
            chk.fail(f"feasible_set.balls[{i}].center", f"must be a list of {dim} numbers")


def config_from_dict(data) -> ExperimentConfig:
    """Validate a parsed key-tree and build the config; raises ConfigError.

    Each section checks its own keys and the rules between them; the checks
    here are the ones that span sections.
    """
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(["top level: must be a mapping"])
    chk = _Checker()
    values = _parse_keys(ExperimentConfig, data, "", chk)

    # a required key or section that failed is None here
    mode = values["mode"]
    dim = getattr(values["objective"], "dim", None)
    if mode in ("macro", "micromacro") and dim not in (None, 1):
        chk.fail("objective.dim", f"mode {mode!r} runs on a 1D grid; dim must be 1")
    fs = values["feasible_set"]
    if fs is not None:
        _check_feasible(fs, dim, chk)

    if chk.errors:
        raise ConfigError(chk.errors)
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    """Read a YAML config file; raises ConfigError on parse or validation failure."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    except yaml.YAMLError as exc:
        raise ConfigError([f"parse error: {exc}"]) from exc
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
        return {k: _plain(v) for k, v in value.items() if not is_unset(v)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-scalar key-tree; load(config_to_dict(cfg)) reproduces cfg exactly."""
    return _plain(asdict(cfg))


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)
