"""
Density transport on the grid scale
===================================

The same dynamics as the swarm, but for a density field: two moments
(mass and momentum) advanced by a local Lax-Friedrichs scheme on the
hydrostatic reconstruction of Audusse et al. (2004).  The pull toward the
consensus point of the density itself enters through a potential at the
cell faces, and friction damps the momentum.  The grid takes the swarm's
own MicroParams and reads its m, lam and friction gamma = 1 - m.  The mass
bump drifts toward the minimizer without ever sampling a particle.  The
state holds only the two moments: the closure spread T, like the CFL factor
and the boundary rule, is the grid's.

advance_macro carries the density to each report time in CFL sub-steps,
each sized by the largest wavespeed |u| + |T| alone: the face states
carry the attraction, so it needs no bound of its own.
"""

import numpy as np

from swarmscale.macro import (
    Grid1D,
    MacroState,
    advance_macro,
    consensus_point_macro,
)
from swarmscale.micro import MicroParams, gibbs_weights
from swarmscale.objectives import ObjectiveFunction, PenalizedObjective

grid = Grid1D(-4.0, 4.0, 200, T=0.1, cfl=0.45, boundary="periodic")
params = MicroParams(m=0.5, lam=1.0)
pf = PenalizedObjective(ObjectiveFunction("ackley", 1), None, beta=0.0)
# the cells never move and beta is fixed, so F_beta there and its Gibbs
# weights are built once
weights = gibbs_weights(pf.evaluate(grid.centers[:, None]), alpha=30.0)

# Unit-mass bump centered well away from the minimizer at 0.
rho = np.exp(-0.5 * ((grid.centers - 1.5) / 0.4) ** 2)
rho /= rho.sum() * grid.dx
state = MacroState(rho, np.zeros(grid.n_cells))
mass0 = state.rho.sum() * grid.dx

# The Gibbs weighting locks onto the deepest basin the density touches, so
# the consensus sits near 0 from the start even though the bulk of the mass
# is at 1.5.  The attraction then pulls the bump over, and the peak settles
# next to the consensus in the profile rho ~ exp(-phi/T^2) that the scheme
# keeps at rest.
print(f"{'time':>7} {'density peak':>13} {'consensus':>10} {'mass drift':>12}")
for k in range(13):
    state = advance_macro(state, grid, params, weights, target_time=0.5 * k)
    peak = grid.centers[int(np.argmax(state.rho))]
    consensus = consensus_point_macro(state, grid, weights)
    drift = state.rho.sum() * grid.dx - mass0
    print(f"{state.time:>7.3f} {peak:>13.3f} {consensus:>10.4f} {drift:>12.2e}")

print(f"\nfinal density peak at x = {peak:.3f} (true minimizer: 0.0)")
print("periodic boundaries keep the total mass exact to machine precision")
