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

import yaml

from .keys import choice, entries, integer, key, path_string, section
from .macro import Grid1D
from .micro import MicroParams
from .micromacro import CouplingConfig
from .objectives import (
    FEASIBLE_SETS, BallUnion, FeasibleSet, ObjectiveFunction, PenalizedObjective,
)
from .penalty import PenaltyConfig, PenaltyController

MODES = ("micro", "macro", "micromacro")


class ConfigError(ValueError):
    """Validation failure; ``errors`` holds one message per offending key."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  The field tree is the YAML tree.

    Every field is a key of the file and every nested dataclass a section of
    it, a solver's own object that checks its keys when it is built; each key
    declares its default and bounds once, in its field, and ``config_to_dict``
    writes the same tree back.  ``feasible_set.kind`` picks that section's
    class from ``FEASIBLE_SETS``; absent or null, the run is unconstrained.
    """

    mode: str = key(choice, options=MODES)
    objective: ObjectiveFunction = section(ObjectiveFunction, required=True)
    n_steps: int = key(integer, lo=1)
    n_particles: int = key(integer, lo=1)
    seed: int = key(integer, lo=0, hi=2**64 - 1)
    output: str = key(path_string)
    feasible_set: FeasibleSet | None = field(default=None, metadata={"kinds": FEASIBLE_SETS})
    micro: MicroParams = section(MicroParams)
    macro: Grid1D = section(Grid1D)
    penalty: PenaltyConfig = section(PenaltyConfig)
    coupling: CouplingConfig = section(CouplingConfig)

    # -- builders for the runtime objects ---------------------------------

    def build_feasible_set(self) -> FeasibleSet | None:  # the section is the set
        return self.feasible_set

    def build_penalized(self) -> PenalizedObjective:
        fs = self.feasible_set
        beta = self.penalty.beta0 if fs is not None else 0.0
        return PenalizedObjective(self.objective, fs, beta)

    def build_controller(self) -> PenaltyController:
        return PenaltyController(self.penalty.beta0, self.penalty.kappa0, self.penalty)


# -- validation ------------------------------------------------------------


class _Checker(list):
    """Accumulates key-path-prefixed validation errors."""

    def fail(self, path, msg):
        self.append(f"{path}: {msg}")


def _parse_keys(cls, data, path, chk: _Checker):
    """Parse each key of a section by its field; None if ``data`` is not a mapping.

    An absent key takes its default, and so does a null one whose default is
    None.  A key that is missing or fails takes its default (None for a
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
        required = f.default is MISSING and f.default_factory is MISSING
        default = f.default_factory() if f.default_factory is not MISSING else (
            None if required else f.default)
        if f.name not in data or (data[f.name] is None and f.default is None):
            if required:
                chk.fail(key_path, "missing required key")
            values[f.name] = default
        else:
            values[f.name] = _parse_value(f.metadata, data[f.name], key_path, chk, default)
    return values


def _parse_value(spec, value, key_path, chk: _Checker, default=None):
    """Parse a given value by a field's spec: a section, a list of entries, or a check."""
    if "kinds" in spec:
        return _parse_kind(spec["kinds"], value, key_path, chk, default)
    if "section" in spec:
        n_errors = len(chk)
        values = _parse_keys(spec["section"], value, key_path, chk)
        # a section with a failed key is not built, so no rule between its keys
        # runs on a stand-in default
        if len(chk) > n_errors:
            return default
        try:
            return spec["section"](**values)
        except ValueError as exc:  # a rule between keys, reported at its key
            chk.append(f"{key_path}.{exc}")
            return default
    if "each" in spec:
        if _parse_value(key(entries).metadata, value, key_path, chk) is None:
            return default
        return tuple(_parse_value(spec["each"], v, f"{key_path}[{i}]", chk)
                     for i, v in enumerate(value))
    try:
        return spec["check"](value, **spec["bounds"])
    except ValueError as exc:
        chk.fail(key_path, str(exc))
        return default


def _parse_kind(kinds, value, key_path, chk: _Checker, default):
    """Parse a section whose ``kind`` key picks its class; a key of another kind is an error."""
    if not isinstance(value, dict):
        chk.fail(key_path, "must be a mapping")
        return default
    if "kind" not in value:
        chk.fail(f"{key_path}.kind", "missing required key")
        return default
    kind = _parse_value(key(choice, options=tuple(kinds)).metadata, value["kind"],
                        f"{key_path}.kind", chk)
    if kind is None:
        return default
    others = {f.name for cls in kinds.values() if cls is not kinds[kind] for f in fields(cls)}
    for name in value:
        if name in others:
            chk.fail(f"{key_path}.{name}", f"is not a key of kind {kind!r}")
    rest = {k: v for k, v in value.items() if k != "kind" and k not in others}
    return _parse_value({"section": kinds[kind]}, rest, key_path, chk, default)


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
    if fs is not None and dim is not None:
        if isinstance(fs, BallUnion):
            for i, ball in enumerate(fs.balls):
                if len(ball.center) != dim:
                    chk.fail(f"feasible_set.balls[{i}].center", f"must be a list of {dim} numbers")
        elif dim != 1:
            chk.fail("feasible_set.kind", f"{fs.kind!r} requires a 1-dimensional objective")

    if chk:
        raise ConfigError(chk)
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
    """``asdict`` output as plain YAML data: tuples become lists, null keys drop out."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items() if v is not None}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-scalar key-tree; load(config_to_dict(cfg)) reproduces cfg exactly."""
    tree = _plain(asdict(cfg))
    if cfg.feasible_set is not None:
        tree["feasible_set"] = {"kind": cfg.feasible_set.kind, **tree["feasible_set"]}
    return tree


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)
