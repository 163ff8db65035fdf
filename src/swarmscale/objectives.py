"""Benchmark objectives, feasible sets, and the distance-penalized objective.

Objectives are vectorized over the leading axes: an input of shape
``(..., d)`` yields values of shape ``(...)``.  Feasible sets expose a
closed-form distance (the penalty ``r``) and a geometric membership test;
the two agree to within 1e-12 at set boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOUNDARY_TOL = 1e-12

OBJECTIVE_NAMES = ("ackley", "rastrigin")


def ackley(x: np.ndarray) -> np.ndarray:
    """Ackley function, global minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.mean(x**2, axis=-1)))
        - np.exp(np.mean(np.cos(2.0 * np.pi * x), axis=-1))
        + 20.0
        + np.e
    )


def rastrigin(x: np.ndarray) -> np.ndarray:
    """Rastrigin function, global minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    return 10.0 * d + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


@dataclass(frozen=True)
class ObjectiveFunction:
    """A named benchmark objective in a fixed dimension."""

    name: str
    dim: int

    def __post_init__(self):
        if self.name not in OBJECTIVE_NAMES:
            raise ValueError(f"unknown objective {self.name!r}; expected one of {OBJECTIVE_NAMES}")
        if self.dim < 1:
            raise ValueError("objective dimension must be a positive integer")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(
                f"dimension mismatch: objective is {self.dim}-dimensional, "
                f"got points of dimension {x.shape[-1]}"
            )
        if self.name == "ackley":
            return ackley(x)
        return rastrigin(x)


class FeasibleSet:
    """Base class for closed feasible regions with closed-form distance."""

    def distance(self, x: np.ndarray) -> np.ndarray:
        """Euclidean distance from ``x`` to the set; 0 inside."""
        raise NotImplementedError

    def member(self, x: np.ndarray) -> np.ndarray:
        """Geometric membership test (closed sets: boundaries count)."""
        raise NotImplementedError


@dataclass(frozen=True)
class BallUnion(FeasibleSet):
    """Union of closed Euclidean balls, each given as (center, radius^2)."""

    centers: np.ndarray  # (n_balls, d)
    radii_sq: np.ndarray  # (n_balls,)

    def __init__(self, balls):
        centers = np.atleast_2d(np.asarray([c for c, _ in balls], dtype=float))
        radii_sq = np.asarray([r2 for _, r2 in balls], dtype=float)
        if centers.shape[0] == 0:
            raise ValueError("ball union must contain at least one ball")
        if np.any(radii_sq <= 0):
            raise ValueError("all squared radii must be positive")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii_sq", radii_sq)

    def distance(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # (..., n_balls) distances to each center
        diff = x[..., None, :] - self.centers
        dist_to_center = np.sqrt(np.sum(diff**2, axis=-1))
        per_ball = np.maximum(0.0, dist_to_center - np.sqrt(self.radii_sq))
        return np.min(per_ball, axis=-1)

    def member(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        diff = x[..., None, :] - self.centers
        inside = np.sum(diff**2, axis=-1) <= self.radii_sq
        return np.any(inside, axis=-1)


def _scalarize(x: np.ndarray) -> np.ndarray:
    """Drop a trailing axis of length 1, so (..., 1) points become (...) scalars."""
    x = np.asarray(x, dtype=float)
    if x.ndim and x.shape[-1] == 1:
        x = x[..., 0]
    return x


@dataclass(frozen=True)
class IntervalUnion(FeasibleSet):
    """Union of closed 1D intervals [lo, hi]."""

    bounds: np.ndarray  # (n_intervals, 2)

    def __init__(self, intervals):
        bounds = np.atleast_2d(np.asarray(intervals, dtype=float))
        if bounds.shape[0] == 0:
            raise ValueError("interval union must contain at least one interval")
        if np.any(bounds[:, 0] >= bounds[:, 1]):
            raise ValueError("every interval needs lo < hi")
        object.__setattr__(self, "bounds", bounds)

    def distance(self, x: np.ndarray) -> np.ndarray:
        x = _scalarize(x)
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        per = np.maximum(np.maximum(lo - x[..., None], x[..., None] - hi), 0.0)
        return np.min(per, axis=-1)

    def member(self, x: np.ndarray) -> np.ndarray:
        x = _scalarize(x)
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        return np.any((x[..., None] >= lo) & (x[..., None] <= hi), axis=-1)


@dataclass(frozen=True)
class Halfspace1D(FeasibleSet):
    """Closed half-line {x <= bound} on the real axis."""

    bound: float

    def distance(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, _scalarize(x) - self.bound)

    def member(self, x: np.ndarray) -> np.ndarray:
        return _scalarize(x) <= self.bound


@dataclass(frozen=True)
class PenalizedObjective:
    """Objective plus ``beta`` times the distance to the feasible set.

    With no feasible set (or beta = 0) this is the plain objective; the
    two coincide on the set itself for any beta.
    """

    objective: ObjectiveFunction
    feasible_set: FeasibleSet | None = None
    beta: float = 0.0

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("penalty strength beta must be nonnegative")

    def penalty(self, x: np.ndarray) -> np.ndarray:
        """Distance to the feasible set; identically 0 when unconstrained."""
        if self.feasible_set is None:
            x = np.asarray(x, dtype=float)
            return np.zeros(x.shape[:-1])
        return self.feasible_set.distance(x)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        value = self.objective(x)
        if self.feasible_set is None or self.beta == 0.0:
            return value
        return value + self.beta * self.feasible_set.distance(x)

    def with_beta(self, beta: float) -> "PenalizedObjective":
        return PenalizedObjective(self.objective, self.feasible_set, beta)
