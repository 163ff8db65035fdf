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
    if not isinstance(v, (list, tuple)) or not all(_is_num(x) for x in v):
        raise ValueError("must be a list of numbers")
    return tuple(float(x) for x in v)


def span(v) -> tuple:
    if (not isinstance(v, (list, tuple)) or len(v) != 2 or not all(_is_num(x) for x in v)
            or v[0] >= v[1]):
        raise ValueError("must be [lo, hi] with lo < hi")
    return (float(v[0]), float(v[1]))


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
    """A list key whose entries are each a value of ``entry``, a check or a section.

    Absent, it is the empty tuple; given, it must not be empty.
    """
    spec = {"section": entry} if is_dataclass(entry) else {"check": entry, "bounds": {}}
    return field(default=(), metadata={"each": spec})


def is_unset(value) -> bool:
    """An optional key's unset default: None, or an empty tuple of entries."""
    return value is None or (isinstance(value, tuple) and not value)


def check_keys(obj) -> None:
    """Parse each key of a section in place by its field's check.

    Raises ValueError naming the first key that fails, e.g. ``dt: must be a
    number``.  A required key is always checked; an optional one is skipped
    while it holds its unset default.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "check" not in f.metadata or (is_unset(value) and is_unset(f.default)):
            continue
        try:
            value = f.metadata["check"](value, **f.metadata["bounds"])
        except ValueError as exc:
            raise ValueError(f"{f.name}: {exc}") from None
        object.__setattr__(obj, f.name, value)
