"""Coupling between the particle swarm and the moment solver on a shared 1D grid.

The scalar weight zeta compares macroscopic cell velocities with mean
particle velocities and decides how much mass stays on the particle side.
Mass moves by re-weighting particles (never by resampling) together with a
compensating update of the macroscopic density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .keys import Keyed, integer, key, number
from .macro import EPS_RHO, Grid1D, MacroState
from .micro import SwarmState


@dataclass(frozen=True)
class CouplingConfig(Keyed):
    """The mass-transfer rule, the config's ``coupling`` section.

    zeta starts at zeta0, stays in [zeta_min, zeta_max], and mass first
    moves at step t_star.
    """

    zeta0: float = key(number, 0.5, lo=0, hi=1, lo_open=True, hi_open=True)
    zeta_min: float = key(number, 0.1, lo=0, hi=1, lo_open=True, hi_open=True)
    zeta_max: float = key(number, 0.9, lo=0, hi=1, lo_open=True, hi_open=True)
    t_star: int = key(integer, 240, lo=0)

    def __post_init__(self):
        super().__post_init__()
        if not self.zeta_min < self.zeta_max:
            raise ValueError("zeta_min: must be below zeta_max")
        if not self.zeta_min <= self.zeta0 <= self.zeta_max:
            raise ValueError("zeta0: must lie in [zeta_min, zeta_max]")


@dataclass(frozen=True)
class CouplingState:
    """Current zeta and the mass bookkeeping, moved by ``rule``.

    mu0 is the microscopic mass at initialization; after every activated
    transfer the current microscopic mass equals zeta * mu0.
    """

    zeta: float
    mu0: float
    rho_m_prev: np.ndarray
    rule: CouplingConfig

    def __post_init__(self):
        if not self.rule.zeta_min <= self.zeta <= self.rule.zeta_max:
            raise ValueError("zeta must lie in [zeta_min, zeta_max]")
        if self.mu0 <= 0:
            raise ValueError("the microscopic mass mu0 must be positive")
        object.__setattr__(self, "rho_m_prev", np.asarray(self.rho_m_prev, dtype=float))


def init_coupling(swarm: SwarmState, grid: Grid1D, rule: CouplingConfig) -> CouplingState:
    """Coupling state at step 0, zeta at rule.zeta0; mu0 is read off the swarm's current mass."""
    return CouplingState(rule.zeta0, swarm.total_mass, micro_cell_density(swarm, grid), rule)


def _bin(swarm: SwarmState, grid: Grid1D):
    """Each particle's cell index and the particle count of every cell."""
    # coupling runs on the 1D macro grid only
    if swarm.dim != 1:
        raise ValueError("scale coupling requires 1D positions")
    x = swarm.positions[:, 0]
    # strays beyond the domain count toward the nearest boundary cell; the clamp runs
    # in float, so a stray beyond the int64 range never reaches the cast
    cells = np.floor((x - grid.x_min) / grid.dx)
    np.maximum(cells, 0, out=cells)
    idx = np.minimum(cells, grid.n_cells - 1, out=cells).astype(int)
    return idx, np.bincount(idx, minlength=grid.n_cells)


def micro_cell_density(swarm: SwarmState, grid: Grid1D) -> np.ndarray:
    """Histogram of particle mass per cell, normalized by dx.

    Every particle lands in exactly one cell, so the field integrates to
    particle_mass * N exactly.
    """
    _, counts = _bin(swarm, grid)
    return swarm.particle_mass * counts / grid.dx


def compute_zeta(
    swarm: SwarmState, macro: MacroState, grid: Grid1D, coupling: CouplingState, *, binned=None
) -> float:
    """Normalized, density-weighted velocity discrepancy between the scales.

    Per cell: d_j = |u_j - vbar_j| with u_j the macroscopic velocity and
    vbar_j the mean particle velocity (0 in empty cells, which carry zero
    weight anyway); weight w_j is the microscopic share of the cell density.
    The raw value sum(w d) / (sum(w) * max d) is clamped to the rule's
    [zeta_min, zeta_max]; the max ranges over occupied cells only.
    binned is the swarm's (cell indices, counts) on this grid when the
    caller has already binned it.
    """
    idx, counts = _bin(swarm, grid) if binned is None else binned
    occupied = counts > 0

    # an empty cell's velocity sum is exactly 0.0, so its vbar is 0
    vsum = np.bincount(idx, weights=swarm.velocities[:, 0], minlength=grid.n_cells)
    vbar = vsum / np.maximum(counts, 1)

    d = np.abs(macro.velocity() - vbar)

    rho_m = swarm.particle_mass * counts / grid.dx
    # an empty cell has rho_m = 0, so its weight is 0; a positive total is never
    # below the smallest subnormal, so the floor leaves every other divide as it is
    w = rho_m / np.maximum(rho_m + macro.rho, 5e-324)

    w_sum = w.sum()
    d_max = d[occupied].max()  # a swarm holds a particle, so some cell is occupied
    rule = coupling.rule
    if d_max == 0.0 or w_sum <= 0.0:
        return rule.zeta_min
    zeta_raw = float(w @ d / (w_sum * d_max))
    return min(max(zeta_raw, rule.zeta_min), rule.zeta_max)


def transfer_mass(
    coupling: CouplingState,
    swarm: SwarmState,
    macro: MacroState,
    grid: Grid1D,
    step: int,
):
    """Re-split the total mass between the scales according to a fresh zeta.

    Frozen before step t_star: no mass moves, zeta keeps its value and the
    three inputs come back as they are, except at step t_star - 1, which
    takes the particle density snapshot that the first activated transfer
    reads, so that transfer sees a one-step difference rather than the drift
    accumulated since initialization (with t_star <= 1 it reads the snapshot
    init_coupling took).  A caller must therefore call it at every step from
    1 on, or at least at t_star - 1: one that skips that step makes the first
    active transfer read init_coupling's snapshot, with no error.  Afterwards
    the particle weight is set
    so the microscopic mass equals zeta * mu0, the macroscopic density
    absorbs the difference, and one multiplicative rescale pins the combined
    mass to its pre-transfer value.  The particles are binned once: zeta and
    the new particle density share the histogram.

    The macroscopic momentum is kept where the density is lowered, so a
    cell's velocity rho_u / rho grows by the inverse ratio.
    """
    t_star = coupling.rule.t_star
    if step < t_star - 1:
        return coupling, swarm, macro
    if step < t_star:
        snapshot = micro_cell_density(swarm, grid)
        return CouplingState(coupling.zeta, coupling.mu0, snapshot, coupling.rule), swarm, macro

    dx = grid.dx
    total_before = swarm.total_mass + macro.rho.sum() * dx
    if total_before <= 0:
        raise ValueError("total mass must be positive")

    binned = _bin(swarm, grid)
    zeta = compute_zeta(swarm, macro, grid, coupling, binned=binned)
    mu_new = zeta * coupling.mu0
    new_swarm = SwarmState._unchecked(swarm.positions, swarm.velocities, mu_new / swarm.n_particles)
    # micro_cell_density of new_swarm, from the same counts
    rho_m_new = new_swarm.particle_mass * binned[1] / dx
    delta = rho_m_new - coupling.rho_m_prev

    rho_macro = np.maximum(macro.rho - delta, 0.0)
    target = total_before - mu_new
    got = rho_macro.sum() * dx
    if target <= 0 or got <= 0:
        raise ValueError("cannot rebalance: macroscopic mass would vanish")
    rho_macro = rho_macro * (target / got)

    # a cell emptied by the transfer must not keep stale momentum
    rho_u = np.where(rho_macro <= EPS_RHO, 0.0, macro.rho_u)
    new_macro = MacroState._unchecked(rho_macro, rho_u, macro.time)
    new_coupling = CouplingState(zeta, coupling.mu0, rho_m_new, coupling.rule)
    return new_coupling, new_swarm, new_macro
