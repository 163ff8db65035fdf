"""Config keys: each key's check, bounds and default, declared once in its field.

A config section is a frozen dataclass whose fields are its keys.  The
solvers' sections are their parameter objects, and the config's root is one
too.  Each section subclasses ``Keyed``, whose ``__post_init__`` parses its
keys, and ``read`` is the one reader of a field's spec, for the walk over a
YAML tree and for a section built in code (or by ``dataclasses.replace``)
alike.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, field, fields, is_dataclass

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


def key(check, default=MISSING, **bounds):
    """A key: its value check and bounds, and its default (none: a required key)."""
    return field(default=default, metadata={"check": check, "bounds": bounds})


def section(cls, required=False):
    """A nested section; an absent optional one takes all its defaults."""
    return field(default_factory=MISSING if required else cls, metadata={"section": cls})


def key_list(entry):
    """A required, nonempty list key; each entry is a value of ``entry``, a check or a section."""
    spec = {"section": entry} if is_dataclass(entry) else {"check": entry, "bounds": {}}
    return field(metadata={"each": spec})


def read(spec, value, path, errors):
    """``value`` parsed by the spec of the field at key path ``path``.

    The one reader of a spec that ``key``, ``key_list`` or ``section``
    declares, or of a ``kinds`` one.  A check runs on the value, and a list
    reads each entry.  A section is built from a mapping of its keys, or in
    code taken as an instance or built from a tuple of its keys in order; a
    ``kinds`` section picks its class by its ``kind`` key.  Each failure is
    appended to ``errors`` as ``key.path: message``, and None stands in for
    the value.
    """
    if "kinds" in spec:
        kinds = spec["kinds"]
        if isinstance(value, tuple(kinds.values())):
            return value
        if not isinstance(value, dict):
            errors.append(f"{path}: must be a mapping")
            return None
        if "kind" not in value:
            errors.append(f"{path}.kind: missing required key")
            return None
        kind_spec = key(choice, options=tuple(kinds)).metadata
        kind = read(kind_spec, value["kind"], f"{path}.kind", errors)
        if kind is None:
            return None
        others = {f.name for cls in kinds.values() if cls is not kinds[kind] for f in fields(cls)}
        errors += [f"{path}.{name}: is not a key of kind {kind!r}"
                   for name in value if name in others]
        spec = {"section": kinds[kind]}
        value = {k: v for k, v in value.items() if k != "kind" and k not in others}
    if "section" in spec:
        cls, n_errors = spec["section"], len(errors)
        if isinstance(value, cls):
            return value
        try:
            if isinstance(value, tuple):
                return cls(*value)
            values = read_keys(cls, value, path, errors)
            # a section with a failed key is not built, so no rule between its
            # keys runs on what stands in for it
            return None if len(errors) > n_errors else cls(**values)
        except ValueError as exc:  # its keys or a rule between them, reported at its key
            errors += [f"{path}.{line}" for line in str(exc).splitlines()]
            return None
    try:
        if "each" not in spec:
            return spec["check"](value, **spec["bounds"])
        value = entries(value)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None
    return tuple(read(spec["each"], v, f"{path}[{i}]", errors) for i, v in enumerate(value))


def read_keys(cls, data, path, errors):
    """Each key of section ``cls`` read from the mapping ``data``; None if it is not one.

    Unknown keys fail first, then each field in order.  A key that is absent,
    or null with a None default, is left out, so the section takes its default.
    """
    if not isinstance(data, dict):
        errors.append(f"{path or 'top level'}: must be a mapping")
        return None
    at = f"{path}." if path else ""
    names = {f.name for f in fields(cls)}
    errors += [f"{at}{name}: unknown key" for name in data if name not in names]
    values = {}
    for f in fields(cls):
        if f.name not in data or (data[f.name] is None and f.default is None):
            if f.default is MISSING and f.default_factory is MISSING:
                errors.append(f"{at}{f.name}: missing required key")
        else:
            values[f.name] = read(f.metadata, data[f.name], f"{at}{f.name}", errors)
    return values


class Keyed:
    """Base of every config section: building one parses each key by its field's spec.

    Raises ValueError naming each key that fails, one a line, e.g. ``dt: must
    be a number`` or ``balls[0].center: must be a list of numbers``.  A
    section with rules between its keys checks them after calling this.
    """

    def __post_init__(self):
        errors = []
        values = read_keys(type(self), {f.name: getattr(self, f.name) for f in fields(self)}, "",
                           errors)
        if errors:
            raise ValueError("\n".join(errors))
        for name, value in values.items():
            object.__setattr__(self, name, value)
