"""
Density transport on the grid scale
===================================

The same dynamics as the swarm, but for a density field: two moments
(mass and momentum) advanced by a Lax-Friedrichs scheme, with a source
term relaxing momentum toward the consensus point of the density itself.
The mass bump drifts toward the minimizer without ever sampling a particle.
"""

import numpy as np

from swarmscale.macro import (
    Grid1D,
    MacroParams,
    MacroState,
    cfl_dt,
    consensus_point_macro,
    lax_friedrichs_step,
)
from swarmscale.objectives import ObjectiveFunction, PenalizedObjective

grid = Grid1D(-4.0, 4.0, 200)
params = MacroParams(m=0.5, lam=1.0)
pf = PenalizedObjective(ObjectiveFunction("ackley", 1), None, beta=0.0)

# Unit-mass bump centered well away from the minimizer at 0.
rho = np.exp(-0.5 * ((grid.centers - 1.5) / 0.4) ** 2)
rho /= rho.sum() * grid.dx
state = MacroState(rho, np.zeros(grid.n_cells), T=0.1)
mass0 = state.rho.sum() * grid.dx

# The Gibbs weighting locks onto the deepest basin the density touches, so
# the consensus sits near 0 from the start even though the bulk of the mass
# is at 1.5.  The source term then pulls the bump over, and the peak rings
# down like a damped oscillator.
print(f"{'time':>7} {'density peak':>13} {'consensus':>10} {'mass drift':>12}")
t, next_report = 0.0, 0.0
while t < 6.0:
    consensus = consensus_point_macro(state, grid, pf, alpha=30.0)
    # each step advances by the largest CFL-stable increment
    dt = cfl_dt(state, grid, cfl=0.45)
    state = lax_friedrichs_step(
        state, grid, dt, params, consensus, boundary="periodic"
    )
    t += dt

    if t >= next_report:
        peak = grid.centers[int(np.argmax(state.rho))]
        drift = state.rho.sum() * grid.dx - mass0
        print(f"{t:>7.3f} {peak:>13.3f} {consensus:>10.4f} {drift:>12.2e}")
        next_report += 0.5

peak = grid.centers[int(np.argmax(state.rho))]
print(f"\nfinal density peak at x = {peak:.3f} (true minimizer: 0.0)")
print("periodic boundaries keep the total mass exact to machine precision")
