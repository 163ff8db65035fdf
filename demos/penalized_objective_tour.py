"""
Tour of the penalized objectives
================================

Build the two benchmark landscapes, attach a feasible region, and watch
the penalty term reshape the landscape as beta grows.
"""

import numpy as np

from swarmscale.objectives import (
    BallUnion,
    ObjectiveFunction,
    PenalizedObjective,
    ackley,
    rastrigin,
)

# Both benchmarks have their global minimum at the origin with value 0.
origin = np.zeros((1, 2))
print("ackley(0,0)    =", float(ackley(origin)[0]))
print("rastrigin(0,0) =", float(rastrigin(origin)[0]))

# Away from the origin they oscillate; sample along the diagonal.
line = np.linspace(0.0, 2.0, 5)
pts = np.stack([line, line], axis=-1)
for p, v in zip(pts, ackley(pts)):
    print(f"  ackley({p[0]:+.2f},{p[1]:+.2f}) = {v:.4f}")

# A feasible region that excludes the origin: two disjoint balls, stored
# as (center, squared radius).  distance() is the exact Euclidean distance
# to the union, zero inside.
region = BallUnion([((1.0, 1.0), 0.25), ((-1.5, 0.0), 0.09)])
probes = np.array([[1.0, 1.0], [1.0, 0.4], [0.0, 0.0], [-1.5, 0.3]])
print("\ndistance to the two-ball region:")
for p, d in zip(probes, region.distance(probes)):
    print(f"  at ({p[0]:+.2f},{p[1]:+.2f}): {d:.4f}")

# The penalized objective adds beta * distance on top of the landscape.
# The origin is the unconstrained winner, but as beta grows the feasible
# ball center overtakes it.
f = ObjectiveFunction("ackley", 2)
candidates = np.array([[0.0, 0.0], [1.0, 1.0]])
print("\npenalized values at the origin vs the feasible center:")
pf = PenalizedObjective(f, region)
for beta in (0.0, 1.0, 3.0, 10.0):
    v0, v1 = pf.evaluate(candidates, beta)
    marker = "origin wins" if v0 < v1 else "feasible center wins"
    print(f"  beta={beta:5.1f}: {v0:8.4f} vs {v1:8.4f}  ({marker})")
