"""Config keys: each key's check, bounds and default, declared once in its field.

A config section is a frozen dataclass whose fields are its keys: a solver's
parameter object, or the config's root.  Each subclasses ``Keyed``, whose
``__post_init__`` alone parses its keys, each once through ``read``, the one
reader of a field's spec.  The YAML walk only names unknown keys and calls
the section, so a section built from YAML, in code or by ``replace`` parses
alike, and a required key left at its default, ``REQUIRED``, is missing.
"""

from __future__ import annotations

import sys
from dataclasses import field, fields, is_dataclass

# the most values one float64 array of a run may hold (32 MiB), checked when the config loads
MAX_ARRAY_VALUES = 2**22

# -- value checks: each returns the parsed value or raises ValueError ------


def _is_num(v) -> bool:
    # the magnitude test also rejects nan, +-inf and ints beyond the float range
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def number(v, lo=None, hi=None, lo_open=False, hi_open=False) -> float:
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


def integer(v, lo, hi=2**63 - 1) -> int:
    # the default cap is the int64 range that numpy sizes and counters live in
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError("must be an integer")
    if not lo <= v <= hi:
        raise ValueError(f"must lie in [{lo}, {hi}]")
    return v


def choice(v, options=()):
    if v not in options:
        raise ValueError(f"must be one of {list(options)}")
    return v


def numbers(v) -> tuple:
    v = v.tolist() if hasattr(v, "tolist") else v  # a numpy array, as code may pass
    if not isinstance(v, (list, tuple)) or not all(_is_num(x) for x in v):
        raise ValueError("must be a list of numbers")
    return tuple(float(x) for x in v)


def span(v) -> tuple:
    if (not isinstance(v, (list, tuple)) or len(v) != 2 or not all(_is_num(x) for x in v)
            or v[0] >= v[1]):
        raise ValueError("must be [lo, hi] with lo < hi")
    return (float(v[0]), float(v[1]))


def entries(v) -> tuple:
    if not isinstance(v, (list, tuple)):
        raise ValueError("must be a list")
    if not v:
        raise ValueError("must not be empty")
    return tuple(v)


def path_string(v) -> str:
    if not isinstance(v, str) or not v:
        raise ValueError("must be a nonempty path string")
    return v


# -- declaring keys --------------------------------------------------------


# the default of a required key: ``read`` reports a field that still holds it
REQUIRED = type("Required", (), {"__repr__": lambda self: "REQUIRED"})()


def key(check, default=REQUIRED, **bounds):
    """A key: its value check and bounds, and its default (none: a required key)."""
    return field(default=default, metadata={"check": check, "bounds": bounds})


def section(cls, required=False):
    """A nested section; an absent optional one takes all its defaults."""
    default = {"default": REQUIRED} if required else {"default_factory": cls}
    return field(**default, metadata={"section": cls})


def key_list(entry):
    """A required, nonempty list key; each entry is a value of ``entry``, a check or a section."""
    spec = {"section": entry} if is_dataclass(entry) else {"check": entry, "bounds": {}}
    return field(default=REQUIRED, metadata={"each": spec})


def read(spec, value, path, errors):
    """``value`` parsed by the spec of the field at key path ``path``.

    The one reader of a spec that ``key``, ``key_list`` or ``section``
    declares, or of a ``kinds`` one; ``REQUIRED`` is a missing key.  A check
    runs on the value, and a list reads each entry.  A section is taken as an
    instance, or called with the known keys of a mapping, so its constructor
    parses each key once; each unknown key is reported.  Below the root, a
    tuple is read as the mapping of the section's keys in order.  A
    ``kinds`` section picks its class by its ``kind`` key.  Each failure is
    appended to ``errors`` as ``key.path: message``, and None stands in for
    the value.
    """
    if value is REQUIRED:
        errors.append(f"{path}: missing required key")
        return None
    if "kinds" in spec:
        kinds = spec["kinds"]
        if isinstance(value, tuple(kinds.values())):
            return value
        if not isinstance(value, dict):
            errors.append(f"{path}: must be a mapping")
            return None
        kind_spec = key(choice, options=tuple(kinds)).metadata
        kind = read(kind_spec, value.get("kind", REQUIRED), f"{path}.kind", errors)
        if kind is None:
            return None
        others = {f.name for cls in kinds.values() if cls is not kinds[kind] for f in fields(cls)}
        errors += [f"{path}.{name}: is not a key of kind {kind!r}"
                   for name in value if name in others]
        spec = {"section": kinds[kind]}
        value = {k: v for k, v in value.items() if k != "kind" and k not in others}
    if "section" in spec:
        cls, at = spec["section"], f"{path}." if path else ""
        if isinstance(value, cls):
            return value
        names = [f.name for f in fields(cls)]
        if isinstance(value, tuple) and path:  # a section's keys in order; the root is a mapping
            if len(value) > len(names):
                errors.append(f"{path}: must hold at most {len(names)} values, one per key")
                return None
            value = dict(zip(names, value))
        if not isinstance(value, dict):
            errors.append(f"{path or 'top level'}: must be a mapping")
            return None
        errors += [f"{at}{name}: unknown key" for name in value if name not in names]
        try:
            return cls(**{k: v for k, v in value.items() if k in names})
        except ValueError as exc:  # its keys or its rules, at its key (the root's: ConfigError's)
            errors += [f"{at}{line}" for line in getattr(exc, "errors", str(exc).splitlines())]
            return None
    try:
        if "each" not in spec:
            return spec["check"](value, **spec["bounds"])
        value = entries(value)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None
    return tuple(read(spec["each"], v, f"{path}[{i}]", errors) for i, v in enumerate(value))


class Keyed:
    """Base of every config section: building one parses each key by its field's spec.

    Raises ValueError naming each key that fails, one a line, e.g. ``dt: must
    be a number`` or ``balls[0].center: must be a list of numbers``.  A
    section with rules between its keys checks them after calling this.
    """

    def __post_init__(self):
        errors = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:  # null with a None default stays
                object.__setattr__(self, f.name, read(f.metadata, value, f.name, errors))
        if errors:
            raise ValueError("\n".join(errors))
