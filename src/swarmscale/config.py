"""Experiment configuration: YAML loading, validation, and serialization.

Configs are nested key-trees with one section per solver component, and the
dataclass tree of ``ExperimentConfig`` is that key-tree.  The numeric
defaults match the bundled experiment files; values that a config file sets
are validated eagerly and errors are reported together, each prefixed with
its key path (e.g. ``micro.m``).
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from importlib import resources

import yaml

from .keys import MAX_ARRAY_VALUES, Keyed, choice, integer, key, path_string, read, section
from .macro import MAX_SUBSTEPS, Grid1D
from .micro import MicroParams
from .micromacro import CouplingConfig
from .objectives import FEASIBLE_SETS, BallUnion, FeasibleSet, ObjectiveFunction
from .penalty import PenaltyConfig

MODES = ("micro", "macro", "micromacro")


class ConfigError(ValueError):
    """Validation failure; ``errors`` holds one message per offending key."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass(frozen=True)
class ExperimentConfig(Keyed):
    """One experiment.  The field tree is the YAML tree.

    Every field is a key of the file and every nested dataclass a section of
    it, a solver's own object that checks its keys when it is built.  The
    root is a section too: built from a file, in code or by ``replace``, it
    runs the same checks.  Each key declares its default and bounds once,
    in its field, and ``config_to_dict`` writes the same tree back.
    ``feasible_set.kind`` picks that section's class from ``FEASIBLE_SETS``;
    absent or null, the run is unconstrained.
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

    def __post_init__(self):
        """Check each key, then the rules that span sections; raises ConfigError."""
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError(str(exc).splitlines()) from None
        dim, fs, errors = self.objective.dim, self.feasible_set, []
        if self.n_particles * dim > MAX_ARRAY_VALUES:
            errors.append(f"n_particles: {self.n_particles} particles in dim {dim} exceed the "
                          f"budget of MAX_ARRAY_VALUES = {MAX_ARRAY_VALUES} values per array")
        if self.mode in ("macro", "micromacro"):
            if dim != 1:
                errors.append(f"objective.dim: mode {self.mode!r} runs on a 1D grid; dim must be 1")
            least = self.macro.least_substeps(self.micro.dt)
            if least > MAX_SUBSTEPS:
                errors.append(f"macro.T: one outer step needs at least {least:.6g} grid "
                              f"sub-steps, over the solver's limit of {MAX_SUBSTEPS}")
        if isinstance(fs, BallUnion):
            errors += [f"feasible_set.balls[{i}].center: must be a list of {dim} numbers"
                       for i, ball in enumerate(fs.balls) if len(ball.center) != dim]
        elif fs is not None and dim != 1:
            errors.append(f"feasible_set.kind: {fs.kind!r} requires a 1-dimensional objective")
        if errors:
            raise ConfigError(errors)

    def build_feasible_set(self) -> FeasibleSet | None:  # the section is the set
        return self.feasible_set


def config_from_dict(data) -> ExperimentConfig:
    """Validate a parsed key-tree and build the config; raises ConfigError.

    The tree is read as the root section: each unknown key is named, and the
    constructors parse each known key once, then the rules that span sections.
    """
    errors = []
    cfg = read({"section": ExperimentConfig}, {} if data is None else data, "", errors)
    if errors:
        raise ConfigError(errors)
    return cfg


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, whose YAML 1.1 floats need a dot, plus YAML 1.2's ``5e-3``."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?([0-9]+(\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+0123456789."))


def load_config(path) -> ExperimentConfig:
    """Read a YAML config file; raises ConfigError on parse or validation failure."""
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_Loader)
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
