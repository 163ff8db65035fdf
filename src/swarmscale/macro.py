"""Finite-volume solver for the 1D two-moment system (rho, rho*u).

Closure: Maxwellian with fixed spread T, giving pressure rho*T^2 and
wavespeeds u +/- |T| (strictly hyperbolic when T != 0).  One explicit
scheme: the hydrostatic reconstruction of Audusse, Bouchut, Bristeau, Klein
and Perthame (SIAM J. Sci. Comput. 2004) with a local Lax-Friedrichs
(Rusanov) flux.  The attraction enters through the potential
phi = (lam/m)(x - c)^2/2 at the faces, so the discrete steady state
rho ~ exp(-phi/T^2), u = 0 is kept exactly; friction stays pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .keys import MAX_ARRAY_VALUES, Keyed, choice, integer, key, number
from .micro import MicroParams, weighted_mean

# Density floor used whenever a velocity u = rho_u / rho is formed; density
# concentrates toward a spike and vacuum cells do appear.
EPS_RHO = 1e-12

BOUNDARIES = ("outflow", "periodic", "absorbing")

# at most this many CFL sub-steps per advance_macro call before declaring a stall
MAX_SUBSTEPS = 100_000
LANDING_TOL = 1e-12  # advance_macro has reached its target time within this

T_MIN = 1.5717277847026288e-162  # the smallest |T| whose square does not underflow to 0


@dataclass(frozen=True)
class Grid1D(Keyed):
    """Uniform cell-centered grid on [x_min, x_max] with n_cells cells: the ``macro`` section.

    It also carries the solver's settings, which the grid functions read:
    the closure spread T, the CFL factor, the boundary rule and the snapshot cadence.
    Its constants are built once: dx, the centers, and the padded centers, whose
    ghost cells follow the boundary rule (wrapped on a periodic grid, the edge
    cell copied otherwise), so the step forms its padded potential from them.
    """

    x_min: float = key(number, -3.0)
    x_max: float = key(number, 3.0)
    n_cells: int = key(integer, 401, lo=3, hi=MAX_ARRAY_VALUES)
    T: float = key(number, 0.1)
    cfl: float = key(number, 0.8, lo=0, hi=1, lo_open=True)
    boundary: str = key(choice, "outflow", options=BOUNDARIES)
    snapshot_every: int = key(integer, 0, lo=0)  # 0 disables full-field snapshots

    def __post_init__(self):
        super().__post_init__()
        if self.x_min >= self.x_max:
            raise ValueError("x_min: must be below x_max")
        if self.T * self.T == 0:  # the step divides by T*T
            raise ValueError("T: must be nonzero (T = 0 loses strict hyperbolicity)" if self.T == 0
                             else f"T: |T| must be at least {T_MIN}, or T*T underflows to 0")
        if not self.cfl * self.dx > 0:  # the CFL step is cfl * dx / speed
            raise ValueError("cfl: cfl * dx underflows to 0, so the grid cannot step")

    @cached_property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def least_substeps(self, dt: float) -> float:
        """A lower bound on the CFL sub-steps that advance_macro takes over one outer step dt."""
        # every characteristic speed is at least |T|, so each sub-step covers at most cfl * dx / |T|
        return (dt - LANDING_TOL) * abs(self.T) / (self.cfl * self.dx)

    @cached_property
    def centers(self) -> np.ndarray:
        """Cell centers, built once per grid; read-only because every caller shares them."""
        x = self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx
        x.flags.writeable = False
        return x

    @cached_property
    def padded_centers(self) -> np.ndarray:
        """The centers with one ghost cell per side by the boundary rule; read-only."""
        x = self.centers
        x = np.concatenate((x[-1:], x, x[:1]) if self.boundary == "periodic" else (x[:1], x, x[-1:]))
        x.flags.writeable = False
        return x


@dataclass
class MacroState:
    """Cell values of density and momentum at a time; the closure spread T is the grid's.

    A state's arrays are not written in place once built, so its velocity is formed
    once, and so is its consensus under one weights array: the state memoizes the
    last (weights, consensus) pair, which consensus_point_macro reuses when given
    that same weights object.
    Public construction checks the arrays.  _unchecked skips the checks; only a
    solver may call it, for a state it derives from one it already holds:
    lax_friedrichs_step, transfer_mass, and the runner's load of a shared grid step.
    """

    rho: np.ndarray
    rho_u: np.ndarray
    time: float = field(default=0.0, kw_only=True)
    _velocity: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _consensus: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.rho_u = np.asarray(self.rho_u, dtype=float)
        if self.rho.ndim != 1 or self.rho.shape != self.rho_u.shape:
            raise ValueError("rho and rho_u must be 1D arrays of equal length")
        if (self.rho < 0).any():
            raise ValueError("density must be nonnegative")

    @classmethod
    def _unchecked(cls, rho, rho_u, time):
        """A state of float64 arrays of one shape, rho >= 0, built without re-checking them."""
        state = object.__new__(cls)
        state.rho, state.rho_u, state.time = rho, rho_u, time
        state._velocity = state._consensus = None
        return state

    def velocity(self) -> np.ndarray:
        """u = rho_u / rho with the density floored, formed on the first call; read-only."""
        if self._velocity is None:
            self._velocity = self.rho_u / np.maximum(self.rho, EPS_RHO)
            self._velocity.flags.writeable = False
        return self._velocity

    def check_per_cell(self, **arrays):
        """Raise ValueError unless each array holds exactly one entry per cell."""
        for name, a in arrays.items():
            if np.shape(a) != self.rho.shape:
                raise ValueError(f"{name} must have shape {self.rho.shape}, got {np.shape(a)}")


def init_macro(grid: Grid1D, total_mass: float = 1.0) -> MacroState:
    """Uniform density carrying total_mass, zero momentum."""
    if total_mass <= 0:
        raise ValueError("total_mass must be positive")
    rho = np.full(grid.n_cells, total_mass / (grid.n_cells * grid.dx))
    return MacroState(rho, np.zeros(grid.n_cells))


def consensus_point_macro(state: MacroState, grid: Grid1D, weights) -> float:
    """Density-weighted soft argmin of F_beta, given the cells' Gibbs weights.

    The weights are gibbs_weights(F_beta, alpha) at the cell centers, one
    per cell; the grid builds them once per beta, since its centers never
    move.  Midpoint quadrature: the common dx cancels.  Given the weights
    object of the state's last call, it returns that call's value: neither the
    state nor the weights are written in place, and weights belong to one grid.
    """
    state.check_per_cell(weights=weights)
    if state._consensus is None or state._consensus[0] is not weights:
        state._consensus = (weights, float(weighted_mean(weights * state.rho, grid.centers)))
    return state._consensus[1]


def max_wavespeed(state: MacroState, grid: Grid1D) -> float:
    """Largest characteristic speed |u_j| + |T| over the grid, with the grid's T.

    Raises FloatingPointError on a non-finite state: a NaN speed would pass
    every CFL comparison and stall the sub-step loop instead of failing.
    """
    speeds = np.abs(state.velocity())
    speed = float(speeds.max()) + abs(grid.T)
    if not math.isfinite(speed):
        # rounding is monotone, so some cell's own |u| + |T| is not finite either
        _fail_at_first_cell(state, ~np.isfinite(speeds + abs(grid.T)))
    return speed


def _fail_at_first_cell(state: MacroState, bad: np.ndarray):
    """Raise FloatingPointError naming the first cell flagged in bad, with its values."""
    j = np.flatnonzero(bad)[0]
    raise FloatingPointError(
        f"non-finite grid state at cell {j}: rho={float(state.rho[j])}, "
        f"rho_u={float(state.rho_u[j])}"
    )


def cfl_dt(s: float, grid: Grid1D) -> float:
    """Largest stable step scaled by the grid's cfl: cfl * dx / s.

    s is the largest characteristic speed max_j(|u_j| + |T|), which
    max_wavespeed returns.  The face states carry the attraction, so the
    wavespeed alone sizes the step.
    """
    return grid.cfl * grid.dx / s


def _padded(a, boundary):
    """a with one ghost cell per side: wrapped, copied from the edge, or vacuum if absorbing."""
    p = np.empty(a.size + 2)
    p[1:-1] = a
    if boundary == "periodic":
        p[0], p[-1] = a[-1], a[0]
    elif boundary == "absorbing":
        # vacuum ghosts, so mass that reaches an edge leaves and never returns
        p[0] = p[-1] = 0.0
    else:
        p[0], p[-1] = a[0], a[-1]  # zero-gradient ghost cells
    return p


def _hydrostatic_update(state, grid, dt, params, consensus):
    """Rusanov fluxes of the hydrostatically reconstructed face states, plus friction.

    Each face takes phi_f = max of its two cells' potentials and lowers each
    side's density by exp(-(phi_f - phi)/T^2), keeping that cell's u.  The
    pressure correction T^2 (rho_i - rho_face) seen from cell i replaces the
    attraction source.  The potential's ghost cells wrap on a periodic grid
    and copy the edge cell otherwise, as the grid's padded centers do, even
    where rho and u have vacuum ghosts.  The temporaries are updated in
    place, each with the operands and order of the expression in its
    comment, so every value rounds as that expression does.
    """
    T2 = grid.T * grid.T
    phi_p = (params.lam / params.m) * 0.5 * (grid.padded_centers - consensus) ** 2
    rho_p = _padded(state.rho, grid.boundary)
    u_p = _padded(state.velocity(), grid.boundary)

    # faces j = 0..n sit between padded cells j and j+1; the side with the higher
    # potential keeps its density exactly, since exp(0) == 1
    rise = phi_p[1:] - phi_p[:-1]
    rise /= T2
    rho_l = np.maximum(rise, 0.0)  # rho_p[:-1] * exp(-max(rise, 0))
    np.negative(rho_l, out=rho_l)
    np.exp(rho_l, out=rho_l)
    rho_l *= rho_p[:-1]
    rho_r = np.minimum(rise, 0.0, out=rise)  # rho_p[1:] * exp(min(rise, 0))
    np.exp(rho_r, out=rho_r)
    rho_r *= rho_p[1:]
    u_l, u_r = u_p[:-1], u_p[1:]
    q_l, q_r = rho_l * u_l, rho_r * u_r
    speed = np.abs(u_p)  # max(|u_l|, |u_r|) + |T|
    speed = np.maximum(speed[:-1], speed[1:])
    speed += abs(grid.T)
    # f_rho = 0.5 * (q_l + q_r - speed * (rho_r - rho_l))
    f_rho = rho_r - rho_l
    f_rho *= speed
    np.subtract(q_l + q_r, f_rho, out=f_rho)
    f_rho *= 0.5
    # f_mom = 0.5 * (q_l * u_l + q_r * u_r + T2 * (rho_l + rho_r) - speed * (q_r - q_l))
    f_mom = q_l * u_l
    f_mom += q_r * u_r
    mass = rho_l + rho_r
    mass *= T2
    f_mom += mass
    q_r -= q_l
    q_r *= speed
    f_mom -= q_r
    f_mom *= 0.5

    ratio = dt / grid.dx
    # rho_new = state.rho - ratio * (f_rho[1:] - f_rho[:-1])
    rho_new = f_rho[1:] - f_rho[:-1]
    rho_new *= ratio
    np.subtract(state.rho, rho_new, out=rho_new)
    # cell i meets its right face as that face's left state and its left face as the right one:
    # mom_new = state.rho_u - ratio * (f_mom[1:] - f_mom[:-1] + T2 * (rho_r[:-1] - rho_l[1:]))
    mom_new = f_mom[1:] - f_mom[:-1]
    jump = rho_r[:-1] - rho_l[1:]
    jump *= T2
    mom_new += jump
    mom_new *= ratio
    np.subtract(state.rho_u, mom_new, out=mom_new)
    # then the friction: mom_new - dt * (gamma / m) * state.rho_u
    mom_new -= dt * (params.gamma / params.m) * state.rho_u
    return rho_new, mom_new


def lax_friedrichs_step(
    state: MacroState, grid: Grid1D, dt: float, params: MicroParams, consensus: float
) -> MacroState:
    """One explicit step of at most dt, cut to the CFL step; its time records the step taken.

    The step is min(dt, cfl_dt(max_wavespeed(state, grid), grid)), so no
    caller can ask for an unstable one: the face states carry the
    attraction and keep the density nonnegative under
    dt * max(|u| + |T|) <= dx, and the wavespeed refuses a non-finite state.
    Each cell is updated by the local Lax-Friedrichs fluxes of the
    hydrostatic reconstruction (see _hydrostatic_update), with the grid's
    boundary rule.  Density is floored at zero afterwards and vacuum cells
    carry no momentum.
    params are the particles' MicroParams: the grid solves the moments of
    the same SDE, so it reads the same m, lam and gamma = 1 - m.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    dt = min(dt, cfl_dt(max_wavespeed(state, grid), grid))
    rho_new, mom_new = _hydrostatic_update(state, grid, dt, params, consensus)
    np.maximum(rho_new, 0.0, out=rho_new)
    mom_new[rho_new <= EPS_RHO] = 0.0
    return MacroState._unchecked(rho_new, mom_new, state.time + dt)


def advance_macro(state, grid, params, weights, target_time):
    """CFL sub-steps until target_time, each with its own consensus point.

    The weights are the cells' Gibbs weights gibbs_weights(F_beta, alpha),
    one per cell, checked on entry so that a call needing no sub-step still
    rejects them; each sub-step's consensus is consensus_point_macro at
    its own density.  Each sub-step is lax_friedrichs_step allowed the time
    left, so it sizes itself by the CFL step and the last one lands on
    target_time; its wavespeed checks each sub-step's input.  The state
    handed back is checked once, on return, and a non-finite one raises
    FloatingPointError naming its first bad cell.  Raises RuntimeError if
    MAX_SUBSTEPS sub-steps do not reach target_time.
    """
    state.check_per_cell(weights=weights)
    # one pass more than the sub-steps: the last pass only checks the landing
    for _ in range(MAX_SUBSTEPS + 1):
        remaining = target_time - state.time
        if remaining <= LANDING_TOL:
            finite = np.isfinite(state.rho) & np.isfinite(state.rho_u)
            if not finite.all():
                _fail_at_first_cell(state, ~finite)
            return state
        consensus = consensus_point_macro(state, grid, weights)
        state = lax_friedrichs_step(state, grid, remaining, params, consensus)
    raise RuntimeError(
        f"grid solver stalled: {MAX_SUBSTEPS} sub-steps before t={target_time:g}"
    )
