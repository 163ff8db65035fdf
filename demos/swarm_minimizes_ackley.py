"""
A particle swarm solves a constrained 2D problem
================================================

Drive the sampled-particle scale by hand: one Euler-Maruyama step at a
time, with the penalty controller tightening the constraint whenever the
swarm's weighted violation stalls above the current threshold.
"""

import numpy as np

from swarmscale.config import load_bundled
from swarmscale.micro import consensus_point, gibbs_weights, init_swarm, step_euler_maruyama
from swarmscale.penalty import violation_micro

# The bundled problem: Ackley in 2D, feasible set = union of six balls,
# none of which contains the unconstrained minimizer at the origin.
cfg = load_bundled("ackley2d_constrained")
params = cfg.micro
# the config's one penalty section seeds this controller; a coupled run seeds
# the grid's from the same section, and the two then move apart
pf = cfg.build_penalized()
ctrl = cfg.build_controller()

rng = np.random.default_rng(cfg.seed)
swarm = init_swarm(cfg.n_particles, 2, rng, box=params.init_box)

print(f"{cfg.n_particles} particles, dt={params.dt}, alpha={params.alpha}")
print(f"{'step':>5} {'consensus':>20} {'beta':>7} {'violation':>10}")

# The objective and the distance to the feasible set are evaluated once per
# step; the penalized values F_beta for any beta are built from the two, and
# their Gibbs weights exp(-alpha F_beta) weigh every swarm average.
value, penalty = pf.parts(swarm.positions)
weights = gibbs_weights(pf.combine(value, penalty), params.alpha)
x = consensus_point(swarm.positions, weights)

for step in range(cfg.n_steps):
    swarm = step_euler_maruyama(swarm, params, x, rng)
    value, penalty = pf.parts(swarm.positions)
    weights = gibbs_weights(pf.combine(value, penalty), params.alpha)

    # weighted distance of the swarm to the feasible set, then the
    # success/failure update: shrink the threshold or raise the penalty
    v = violation_micro(weights, penalty)
    ctrl = ctrl.update(v)
    if ctrl.beta != pf.beta:
        pf = pf.with_beta(ctrl.beta)
        weights = gibbs_weights(pf.combine(value, penalty), params.alpha)

    # the consensus under the updated beta is the next step's drift target
    x = consensus_point(swarm.positions, weights)
    if step % 50 == 0 or step == cfg.n_steps - 1:
        print(
            f"{step:>5} ({x[0]:+8.4f}, {x[1]:+8.4f}) {ctrl.beta:>7.3f} {v:>10.5f}"
        )

fs = cfg.feasible_set  # the config's feasible_set section is the union of balls itself
print(f"\nfinal consensus  ({x[0]:+.4f}, {x[1]:+.4f})")
print(f"distance to feasible set: {float(fs.distance(x)):.5f}")
print("expected neighbourhood: the ball around (1.0, -1.0), the feasible")
print("region closest to the origin on this landscape")
