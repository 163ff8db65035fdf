"""Benchmark objectives, feasible sets, and the distance-penalized objective.

Objectives are vectorized over the leading axes: an input of shape
``(..., d)`` yields values of shape ``(...)``.  Every entry point (an
objective, a set's distance, the penalty) takes ``(..., d)`` points, 1D sets
``(..., 1)``, and refuses another ``d`` or a 0-d value.  They, and the ball-union
distance, go one coordinate ``x[..., k]`` at a time, so each numpy operation
runs over all the points rather than over a short trailing axis of
coordinates or balls.  Summing the coordinates in order is bit-identical to
numpy's reduction over the last axis for ``d <= 7``; from ``d = 8`` numpy
sums in pairwise blocks and the two may differ in the last bits.  Feasible
sets expose a closed-form distance (the penalty ``r``), the one way the
penalty reads them.  Each is the config's ``feasible_set`` section of its
kind, and checks its key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .keys import Keyed, choice, integer, key, key_list, number, numbers, span


def ackley(x: np.ndarray) -> np.ndarray:
    """Ackley function, global minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    sq = x[..., 0] ** 2
    cs = np.cos(2.0 * np.pi * x[..., 0])
    for k in range(1, d):
        xk = x[..., k]
        sq += xk**2
        cs += np.cos(2.0 * np.pi * xk)
    return -20.0 * np.exp(-0.2 * np.sqrt(sq / d)) - np.exp(cs / d) + 20.0 + np.e


def rastrigin(x: np.ndarray) -> np.ndarray:
    """Rastrigin function, global minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    total = x[..., 0] ** 2 - 10.0 * np.cos(2.0 * np.pi * x[..., 0])
    for k in range(1, d):
        xk = x[..., k]
        total += xk**2 - 10.0 * np.cos(2.0 * np.pi * xk)
    return 10.0 * d + total


OBJECTIVES = {"ackley": ackley, "rastrigin": rastrigin}


def _points(x, dim: int) -> np.ndarray:
    """x as a float array of (..., dim) points; any other shape is a dimension mismatch."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ValueError(f"dimension mismatch: expected (..., {dim}) points, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class ObjectiveFunction(Keyed):
    """A named benchmark objective in a fixed dimension: the config's ``objective`` section."""

    name: str = key(choice, options=tuple(OBJECTIVES))
    dim: int = key(integer, lo=1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return OBJECTIVES[self.name](_points(x, self.dim))


class FeasibleSet(Keyed):
    """A closed feasible region; each kind defines its Euclidean ``distance(x)``, 0 inside."""

    @property
    def kind(self) -> str:  # the config's feasible_set.kind: its class's key in FEASIBLE_SETS
        return next(k for k, cls in FEASIBLE_SETS.items() if isinstance(self, cls))


@dataclass(frozen=True)
class Ball(Keyed):
    """A closed Euclidean ball, given as (center, radius^2): an entry of ``balls``."""

    center: tuple = key(numbers)
    radius_sq: float = key(number, lo=0, lo_open=True)


@dataclass(frozen=True)
class BallUnion(FeasibleSet):
    """Union of closed Euclidean balls, each a ``Ball`` or its (center, radius^2) pair."""

    balls: tuple = key_list(Ball)

    def __post_init__(self):
        super().__post_init__()
        if len({len(b.center) for b in self.balls}) > 1:
            raise ValueError("balls: every center must have the same length")
        object.__setattr__(self, "centers", np.array([b.center for b in self.balls]))  # (n, d)
        object.__setattr__(self, "radii_sq", np.array([b.radius_sq for b in self.balls]))

    def distance(self, x: np.ndarray) -> np.ndarray:
        d = self.centers.shape[1]
        # the loop runs over the balls' coordinates; points with more would pass silently
        x = _points(x, d)
        # squared distances (n_balls, ...) from each center to each point
        per_ball = (-1,) + (1,) * (x.ndim - 1)
        sq = (x[..., 0] - self.centers[:, 0].reshape(per_ball)) ** 2
        for k in range(1, d):
            sq += (x[..., k] - self.centers[:, k].reshape(per_ball)) ** 2
        radii = np.sqrt(self.radii_sq).reshape(per_ball)
        return np.maximum(0.0, np.sqrt(sq) - radii).min(axis=0)


@dataclass(frozen=True)
class IntervalUnion(FeasibleSet):
    """Union of closed 1D intervals [lo, hi]."""

    intervals: tuple = key_list(span)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "bounds", np.array(self.intervals))  # (n_intervals, 2)

    def distance(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, 1)[..., 0]
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        per = np.maximum(np.maximum(lo - x[..., None], x[..., None] - hi), 0.0)
        return np.min(per, axis=-1)


@dataclass(frozen=True)
class Halfspace1D(FeasibleSet):
    """Closed half-line {x <= bound} on the real axis."""

    bound: float = key(number)

    def distance(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, _points(x, 1)[..., 0] - self.bound)


# each kind of feasible set: the config's ``feasible_set.kind`` picks its class
FEASIBLE_SETS = {"balls": BallUnion, "intervals": IntervalUnion, "halfline": Halfspace1D}


@dataclass(frozen=True)
class PenalizedObjective:
    """F_beta: the objective plus ``beta`` times the distance to the feasible set.

    beta is an argument, not a field: each scale's controller holds its one
    beta.  With no feasible set (or beta = 0) this is the plain objective;
    the two coincide on the set itself for any beta.
    """

    objective: ObjectiveFunction
    feasible_set: FeasibleSet | None = None

    def penalty(self, x: np.ndarray) -> np.ndarray:
        """Distance to the feasible set; identically 0 when unconstrained."""
        if self.feasible_set is None:
            return np.zeros(_points(x, self.objective.dim).shape[:-1])
        return self.feasible_set.distance(x)

    def parts(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The objective and the penalty at x, the two arrays F_beta is built from.

        Neither depends on beta, so one evaluation serves every beta at
        the same points.
        """
        return self.objective(x), self.penalty(x)

    def combine(self, value: np.ndarray, penalty: np.ndarray, beta: float) -> np.ndarray:
        """F_beta built from the parts, value + beta * penalty.

        The value alone when unconstrained or beta = 0.  evaluate(x, beta) is
        combine(*parts(x), beta), so F_beta built from cached parts equals
        evaluate bit for bit.
        """
        if beta < 0:
            raise ValueError("penalty strength beta must be nonnegative")
        if self.feasible_set is None or beta == 0.0:
            return value
        return value + beta * penalty

    def evaluate(self, x: np.ndarray, beta: float) -> np.ndarray:
        return self.combine(*self.parts(x), beta)
