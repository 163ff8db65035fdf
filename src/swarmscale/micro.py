"""Inertial swarm dynamics: Euler-Maruyama particle updates and the consensus point.

The swarm carries N particles with positions and velocities in d dimensions
plus one uniform per-particle mass weight (mass moves between scales by
re-weighting, never by resampling).  All randomness flows through an
explicit numpy Generator so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .keys import Keyed, key, number, span


@dataclass(frozen=True)
class MicroParams(Keyed):
    """Coefficients of the particle update and of its moments: the ``micro`` section.

    The friction coefficient is derived as ``gamma = 1 - m`` and never
    stored separately.
    """

    m: float = key(number, 0.5, lo=0, hi=1, lo_open=True)
    lam: float = key(number, 1.0, lo=0, lo_open=True)
    sigma: float = key(number, 1.0 / 3.0**0.5, lo=0)
    dt: float = key(number, 0.1, lo=0, lo_open=True)
    alpha: float = key(number, 30.0, lo=0, lo_open=True)
    init_box: tuple = key(span, (-3.0, 3.0))  # the initial particles are uniform on init_box^d

    @property
    def gamma(self) -> float:
        return 1.0 - self.m


@dataclass
class SwarmState:
    """Positions (N, d), velocities (N, d) and the uniform particle mass.

    Public construction checks the fields.  _unchecked skips the checks; only a
    solver may call it, for a swarm it derives from one it already holds:
    step_euler_maruyama and transfer_mass.
    """

    positions: np.ndarray
    velocities: np.ndarray
    particle_mass: float = 1.0

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must have identical shapes")
        if self.positions.shape[0] < 1:
            raise ValueError("swarm needs at least one particle")
        if self.particle_mass < 0:
            raise ValueError("particle mass must be nonnegative")

    @classmethod
    def _unchecked(cls, positions, velocities, particle_mass):
        """A swarm of float64 (N, d) arrays, N >= 1, mass >= 0, built without re-checking them."""
        swarm = object.__new__(cls)
        swarm.positions, swarm.velocities, swarm.particle_mass = positions, velocities, particle_mass
        return swarm

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def total_mass(self) -> float:
        return self.particle_mass * self.n_particles


def init_swarm(
    n_particles: int,
    dim: int,
    rng: np.random.Generator,
    box: tuple[float, float],
    particle_mass: float = 1.0,
) -> SwarmState:
    """Uniform positions on box^dim (a run passes MicroParams.init_box), zero velocities."""
    lo, hi = box
    positions = rng.uniform(lo, hi, size=(n_particles, dim))
    return SwarmState(positions, np.zeros((n_particles, dim)), particle_mass)


def gibbs_weights(values: np.ndarray, alpha: float) -> np.ndarray:
    """exp(-alpha * values), stabilized by subtracting the minimum value.

    The one place where F_beta values become weights.  The subtraction
    rescales all weights by the same positive factor, so every weighted
    average built from them is unchanged while alpha up to 1e4 stays clear
    of overflow.  Raises ValueError unless alpha > 0, since a negative alpha
    would weight the worst points most, and FloatingPointError naming the
    index of the first non-finite value: a NaN propagates through the min,
    and an infinity is the min or the max.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    values = np.asarray(values, dtype=float)
    low = values.min()
    if not (math.isfinite(low) and math.isfinite(values.max())):
        idx = int(np.argmax(~np.isfinite(values)))
        raise FloatingPointError(f"non-finite value {values[idx]} at index {idx}")
    weights = values - low
    weights *= -alpha
    return np.exp(weights, out=weights)


def weighted_mean(weights: np.ndarray, quantity: np.ndarray):
    """Average of quantity under nonnegative weights, one weight per row.

    Raises ZeroDivisionError when the weights sum to zero.
    """
    total = weights.sum()
    if total <= 0.0:
        raise ZeroDivisionError("Gibbs-weighted mean undefined: zero weighted mass")
    return weights @ quantity / total


def consensus_point(positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weight-averaged position, given the particles' Gibbs weights.

    The weights are gibbs_weights(F_beta, alpha) at the positions, one per
    row; a run builds them once per move and per beta.  The result lies
    componentwise inside the positions' bounding box.
    """
    return weighted_mean(weights, positions)


def step_euler_maruyama(
    state: SwarmState, params: MicroParams, target: np.ndarray, rng: np.random.Generator
) -> SwarmState:
    """One Euler-Maruyama step of the inertial swarm SDE toward the drift target.

    The target is the consensus point of the pre-step state, shared by all
    particles; r = target - x.  The exploration is anisotropic, diag(r): one
    generator call draws a standard normal per component, scaled by r.
    The velocity (m/c) v + (lam dt/c) r + ((sigma sqrt(dt)/c) r) theta is
    built in place on the step's own arrays.  Since dt > 0, a non-finite
    velocity makes a non-finite position, so only the positions are tested.
    """
    m, lam, sigma, dt = params.m, params.lam, params.sigma, params.dt
    c = m + params.gamma * dt

    r = target - state.positions  # (N, d)
    theta = rng.standard_normal(state.positions.shape)

    velocities = (lam * dt / c) * r
    r *= sigma * math.sqrt(dt) / c
    theta *= r
    velocities += np.multiply(m / c, state.velocities, out=r)
    velocities += theta
    positions = dt * velocities
    positions += state.positions

    if not np.isfinite(positions).all():
        raise FloatingPointError(
            "swarm blew up: non-finite positions or velocities (check m, lambda, sigma, dt)"
        )
    return SwarmState._unchecked(positions, velocities, state.particle_mass)


def softmin_gap(weights: np.ndarray, alpha: float) -> float:
    """Gap between the smoothed minimum -(1/alpha) log mean exp(-alpha F) and min F.

    The weights are gibbs_weights(F_beta, alpha) with the same alpha, one per
    particle.  Always lies in [0, log(N)/alpha]; shrinks as alpha grows.
    """
    return float(-(np.log(weights.sum()) - np.log(weights.shape[0])) / alpha)
