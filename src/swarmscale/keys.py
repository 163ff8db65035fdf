"""Config keys: each key's check, bounds and default, declared once in its field.

A config section is a frozen dataclass whose fields are its keys.  The
solvers' sections are their parameter objects, and their ``__post_init__``
calls ``check_keys``, so one built in code passes the checks of the walk.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, field, fields, is_dataclass

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


def _checked(path, spec, value):
    """``value`` parsed by a key's spec; a ValueError names the key path that failed.

    A list key checks each entry; a section entry is built from its fields in order.
    """
    try:
        if "section" in spec:
            cls = spec["section"]
            return value if isinstance(value, cls) else cls(*value)
        if "each" not in spec:
            return spec["check"](value, **spec["bounds"])
        value = entries(value)
    except ValueError as exc:  # a section's error already starts at its own key
        raise ValueError(f"{path}{'.' if 'section' in spec else ': '}{exc}") from None
    return tuple(_checked(f"{path}[{i}]", spec["each"], v) for i, v in enumerate(value))


def check_keys(obj) -> None:
    """Parse each key of a section in place by its field's check.

    Raises ValueError naming the first key that fails, e.g. ``dt: must be a
    number`` or ``balls[0].center: must be a list of numbers``.
    """
    for f in fields(obj):
        if "check" in f.metadata or "each" in f.metadata:
            object.__setattr__(obj, f.name, _checked(f.name, f.metadata, getattr(obj, f.name)))
