"""Finite-volume solver for the 1D two-moment system (rho, rho*u).

Closure: Maxwellian with fixed spread T, giving pressure rho*T^2 and
wavespeeds u +/- |T| (strictly hyperbolic when T != 0).  The scheme is
Lax-Friedrichs with the friction/attraction source handled unsplit in the
same explicit update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .micro import gibbs_mean

# Density floor used whenever a velocity u = rho_u / rho is formed; density
# concentrates toward a spike and vacuum cells do appear.
EPS_RHO = 1e-12

# A cell this far below both neighbors counts as a decoupling hole and its
# momentum is dropped; see lax_friedrichs_step.
HOLE_REL = 0.05

BOUNDARIES = ("outflow", "periodic", "absorbing")


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [x_min, x_max] with n_cells cells."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n_cells < 3:
            raise ValueError("grid needs at least 3 cells")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class MacroParams:
    """Source-term coefficients: inertia m and attraction lam.

    As in MicroParams, the friction is derived as ``gamma = 1 - m``.
    """

    m: float = 0.5
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.m <= 1.0:
            raise ValueError("inertia weight m must lie in (0, 1]")
        if self.lam <= 0:
            raise ValueError("attraction strength lam must be positive")

    @property
    def gamma(self) -> float:
        return 1.0 - self.m


@dataclass
class MacroState:
    """Cell values of density and momentum plus the closure spread T."""

    rho: np.ndarray
    rho_u: np.ndarray
    T: float
    time: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.rho_u = np.asarray(self.rho_u, dtype=float)
        if self.rho.ndim != 1 or self.rho.shape != self.rho_u.shape:
            raise ValueError("rho and rho_u must be 1D arrays of equal length")
        if np.any(self.rho < 0):
            raise ValueError("density must be nonnegative")
        if self.T == 0:
            raise ValueError("closure spread T must be nonzero")

    @property
    def n_cells(self) -> int:
        return self.rho.shape[0]

    def velocity(self) -> np.ndarray:
        return self.rho_u / np.maximum(self.rho, EPS_RHO)


def init_macro(grid: Grid1D, total_mass: float = 1.0, T: float = 0.1) -> MacroState:
    """Uniform density carrying total_mass, zero momentum."""
    if total_mass <= 0:
        raise ValueError("total_mass must be positive")
    rho = np.full(grid.n_cells, total_mass / (grid.n_cells * grid.dx))
    return MacroState(rho=rho, rho_u=np.zeros(grid.n_cells), T=T)


def flux(rho, rho_u, T: float):
    """Physical flux (rho_u, rho u^2 + rho T^2), floored density in the division."""
    rho = np.asarray(rho, dtype=float)
    rho_u = np.asarray(rho_u, dtype=float)
    return rho_u, rho_u**2 / np.maximum(rho, EPS_RHO) + rho * T**2


def source(rho, rho_u, x, consensus: float, params: MacroParams):
    """Momentum source: friction plus linear pull toward the consensus point.

    Density component is identically zero, so the source moves no mass.
    """
    rho = np.asarray(rho, dtype=float)
    rho_u = np.asarray(rho_u, dtype=float)
    x = np.asarray(x, dtype=float)
    s_mom = (params.gamma / params.m) * rho_u + (params.lam / params.m) * (x - consensus) * rho
    return np.zeros_like(rho), s_mom


def consensus_point_macro(state: MacroState, grid: Grid1D, pf, alpha: float) -> float:
    """Density-weighted soft argmin of the penalized objective over cell centers.

    Midpoint quadrature; the common dx cancels.  Weights are shifted by the
    minimum objective value before exponentiation so large alpha stays finite.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = grid.centers
    return float(gibbs_mean(pf.evaluate(x[:, None]), alpha, x, mass=state.rho))


def max_wavespeed(state: MacroState) -> float:
    """Largest characteristic speed |u_j| + |T| over the grid.

    Raises FloatingPointError on a non-finite state: a NaN speed would pass
    every CFL comparison and stall the sub-step loop instead of failing.
    """
    speeds = np.abs(state.velocity())
    speed = float(np.max(speeds)) + abs(state.T)
    if not math.isfinite(speed):
        bad = np.flatnonzero(~np.isfinite(speeds))
        if not bad.size:
            raise FloatingPointError(f"non-finite closure spread T={state.T}")
        j = bad[0]
        raise FloatingPointError(
            f"non-finite grid state at cell {j}: rho={float(state.rho[j])}, "
            f"rho_u={float(state.rho_u[j])}"
        )
    return speed


def cfl_dt(state: MacroState, grid: Grid1D, cfl: float) -> float:
    """Largest stable step scaled by cfl: cfl * dx / max_j(|u_j| + |T|)."""
    if not 0 < cfl <= 1:
        raise ValueError("cfl must lie in (0, 1]")
    return cfl * grid.dx / max_wavespeed(state)


def hyperbolicity_eigenvalues(rho, rho_u, T: float):
    """Characteristic speeds (u + |T|, u - |T|) of the flux Jacobian.

    Coincide when T = 0, which is why that closure value is rejected
    elsewhere.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("eigenvalues need strictly positive density")
    u = np.asarray(rho_u, dtype=float) / rho
    return u + abs(T), u - abs(T)


def _pad(arr: np.ndarray, boundary: str) -> np.ndarray:
    if boundary == "periodic":
        return np.concatenate([arr[-1:], arr, arr[:1]])
    if boundary == "absorbing":
        # vacuum ghosts: mass that reaches an edge leaves and never returns
        z = np.zeros(1, dtype=arr.dtype)
        return np.concatenate([z, arr, z])
    # outflow: zero-gradient ghost cells
    return np.concatenate([arr[:1], arr, arr[-1:]])


def lax_friedrichs_step(
    state: MacroState,
    grid: Grid1D,
    dt: float,
    params: MacroParams,
    consensus: float,
    boundary: str = "outflow",
    source_enabled: bool = True,
) -> MacroState:
    """One explicit step; raises on a CFL violation instead of going unstable.

    Update per cell: neighbor average minus the centered flux difference,
    minus dt times the local source.  Density is floored at zero afterwards
    and vacuum cells carry no momentum.
    """
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    max_speed = max_wavespeed(state)
    if dt * max_speed > grid.dx * (1 + 1e-9):
        raise ValueError(
            f"CFL violation: dt={dt:g} exceeds dx/max_speed with "
            f"max wavespeed {max_speed:g}"
        )

    rho_p = _pad(state.rho, boundary)
    mom_p = _pad(state.rho_u, boundary)
    f_rho, f_mom = flux(rho_p, mom_p, state.T)

    lam_dt = dt / (2.0 * grid.dx)
    rho_new = 0.5 * (rho_p[2:] + rho_p[:-2]) - lam_dt * (f_rho[2:] - f_rho[:-2])
    mom_new = 0.5 * (mom_p[2:] + mom_p[:-2]) - lam_dt * (f_mom[2:] - f_mom[:-2])

    if source_enabled:
        s_rho, s_mom = source(state.rho, state.rho_u, grid.centers, consensus, params)
        rho_new = rho_new - dt * s_rho
        mom_new = mom_new - dt * s_mom

    rho_new = np.maximum(rho_new, 0.0)
    mom_new = np.where(rho_new <= EPS_RHO, 0.0, mom_new)
    # A cell orders of magnitude below both neighbors is a hole in the
    # odd-even decoupled sub-grid, not physics: the scheme's own diffusion
    # cannot produce such a drop from smooth data.  Holes otherwise carry
    # parasitic momentum whose u = rho_u / rho collapses the CFL step.
    # Fronts are one-sided (the outward neighbor is smaller), so genuine
    # dynamics never trips this.
    left = np.concatenate([rho_new[:1], rho_new[:-1]])
    right = np.concatenate([rho_new[1:], rho_new[-1:]])
    hole = rho_new < HOLE_REL * np.minimum(left, right)
    mom_new = np.where(hole, 0.0, mom_new)
    return replace(state, rho=rho_new, rho_u=mom_new, time=state.time + dt)
