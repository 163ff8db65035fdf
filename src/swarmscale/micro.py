"""Inertial swarm dynamics: Euler-Maruyama particle updates and the consensus point.

The swarm carries N particles with positions and velocities in d dimensions
plus one uniform per-particle mass weight (mass moves between scales by
re-weighting, never by resampling).  All randomness flows through an
explicit numpy Generator so runs are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

DIFFUSION_MODES = ("isotropic", "anisotropic")


@dataclass(frozen=True)
class MicroParams:
    """Coefficients of the particle update.

    The friction coefficient is derived as ``gamma = 1 - m`` and never
    stored separately.
    """

    m: float = 0.5
    lam: float = 1.0
    sigma: float = 1.0 / np.sqrt(3.0)
    dt: float = 0.1
    alpha: float = 30.0
    diffusion: str = "anisotropic"

    def __post_init__(self):
        if not 0.0 < self.m <= 1.0:
            raise ValueError("inertia weight m must lie in (0, 1]")
        if self.lam <= 0:
            raise ValueError("drift coefficient must be positive")
        if self.sigma < 0:
            raise ValueError("noise coefficient must be nonnegative")
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        if self.alpha <= 0:
            raise ValueError("weight exponent alpha must be positive")
        if self.diffusion not in DIFFUSION_MODES:
            raise ValueError(f"diffusion must be one of {DIFFUSION_MODES}")

    @property
    def gamma(self) -> float:
        return 1.0 - self.m


@dataclass
class SwarmState:
    """Positions (N, d), velocities (N, d), uniform particle mass, step counter."""

    positions: np.ndarray
    velocities: np.ndarray
    particle_mass: float = 1.0
    step: int = 0

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must have identical shapes")
        if self.positions.shape[0] < 1:
            raise ValueError("swarm needs at least one particle")
        if self.particle_mass < 0:
            raise ValueError("particle mass must be nonnegative")

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
    box: tuple[float, float] = (-3.0, 3.0),
    particle_mass: float = 1.0,
) -> SwarmState:
    """Uniform positions on box^dim, zero velocities."""
    lo, hi = box
    positions = rng.uniform(lo, hi, size=(n_particles, dim))
    return SwarmState(positions, np.zeros((n_particles, dim)), particle_mass)


def gibbs_weights(values: np.ndarray, alpha: float) -> np.ndarray:
    """exp(-alpha * values), stabilized by subtracting the minimum value.

    The subtraction rescales all weights by the same positive factor, so
    every weighted average built from them is unchanged while alpha up to
    1e4 stays clear of overflow.
    """
    values = np.asarray(values, dtype=float)
    return np.exp(-alpha * (values - values.min()))


def gibbs_mean(values, alpha: float, quantity: np.ndarray, mass=1.0):
    """Average of quantity under the weights mass * exp(-alpha * values).

    The mass is 1 for particles and the cell density on the grid.  Raises
    ZeroDivisionError when the weighted mass vanishes.
    """
    w = gibbs_weights(values, alpha) * mass
    total = w.sum()
    if total <= 0.0:
        raise ZeroDivisionError("Gibbs-weighted mean undefined: zero weighted mass")
    return w @ quantity / total


def consensus_point(state: SwarmState, pf, alpha: float) -> np.ndarray:
    """Weight-averaged swarm position with weights exp(-alpha * F_beta).

    Lies componentwise inside the swarm's bounding box.  Raises if the
    objective is non-finite at any particle.
    """
    values = np.asarray(pf.evaluate(state.positions), dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        idx = int(np.argmax(bad))
        raise FloatingPointError(
            f"non-finite objective value {values[idx]} at particle {idx}"
        )
    return gibbs_mean(values, alpha, state.positions)


def diffusion_diagonal(mode: str, displacement: np.ndarray) -> np.ndarray:
    """Diagonal of the exploration matrix for each displacement vector.

    isotropic   -> ||r||_2 in every component (the matrix ||r|| * I)
    anisotropic -> the displacement itself    (the matrix diag(r))
    """
    displacement = np.asarray(displacement, dtype=float)
    if mode == "isotropic":
        norms = np.linalg.norm(displacement, axis=-1, keepdims=True)
        return np.broadcast_to(norms, displacement.shape).copy()
    if mode == "anisotropic":
        return displacement.copy()
    raise ValueError(f"diffusion must be one of {DIFFUSION_MODES}")


def step_euler_maruyama(
    state: SwarmState, params: MicroParams, pf, rng: np.random.Generator
) -> SwarmState:
    """One Euler-Maruyama step of the inertial swarm SDE.

    The consensus point is computed once from the pre-step state and shared
    by all particles.  Draw order: one standard normal per particle
    (isotropic) or per particle component (anisotropic), in a single
    generator call.
    """
    m, lam, sigma, dt = params.m, params.lam, params.sigma, params.dt
    c = m + params.gamma * dt

    target = consensus_point(state, pf, params.alpha)
    r = target - state.positions  # (N, d)

    if params.diffusion == "isotropic":
        theta = rng.standard_normal(state.n_particles)[:, None]
    else:
        theta = rng.standard_normal(state.positions.shape)
    scale = diffusion_diagonal(params.diffusion, r)

    velocities = (
        (m / c) * state.velocities
        + (lam * dt / c) * r
        + (sigma * np.sqrt(dt) / c) * scale * theta
    )
    positions = state.positions + dt * velocities

    if not (np.isfinite(positions).all() and np.isfinite(velocities).all()):
        raise FloatingPointError(
            f"swarm blew up at step {state.step + 1}: non-finite positions or "
            "velocities (check m, lambda, sigma, dt)"
        )
    return replace(state, positions=positions, velocities=velocities, step=state.step + 1)


def softmin_gap(state: SwarmState, pf, alpha: float) -> float:
    """Gap between the smoothed minimum -(1/alpha) log mean exp(-alpha F) and min F.

    Always lies in [0, log(N)/alpha]; shrinks as alpha grows.
    """
    w = gibbs_weights(pf.evaluate(state.positions), alpha)
    return float(-(np.log(w.sum()) - np.log(w.shape[0])) / alpha)
