"""Adaptive exact-penalty control: violation measures and the (beta, kappa) update.

One controller instance per scale; the micro and macro solvers keep
independent (beta, kappa) states.  beta never decreases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .macro import MacroState
from .micro import weighted_mean


@dataclass(frozen=True)
class PenaltyController:
    """Current (beta, kappa) plus the growth constants of the update rule.

    On success (violation within tolerance) kappa grows, tightening the
    tolerance 1/sqrt(kappa), and beta holds.  On failure beta grows and
    kappa backs off to min{kappa/eta_kappa, kappa0}.
    """

    beta: float = 1.0
    kappa: float = 5.0
    kappa0: float = 5.0
    eta_kappa: float = 1.1
    eta_beta: float = 1.1

    def __post_init__(self):
        if self.beta <= 0 or self.kappa <= 0 or self.kappa0 <= 0:
            raise ValueError("beta, kappa and kappa0 must be positive")
        if self.eta_kappa <= 1 or self.eta_beta <= 1:
            raise ValueError("growth factors eta_kappa and eta_beta must exceed 1")

    @property
    def threshold(self) -> float:
        """Feasibility tolerance 1/sqrt(kappa)."""
        return 1.0 / np.sqrt(self.kappa)

    def accepts(self, violation: float) -> bool:
        return violation <= self.threshold

    def update(self, violation: float) -> "PenaltyController":
        """Pure one-step update of (beta, kappa) given a violation measure."""
        if self.accepts(violation):
            return replace(self, kappa=self.eta_kappa * self.kappa)
        kappa = min(self.kappa / self.eta_kappa, self.kappa0)
        return replace(self, beta=self.eta_beta * self.beta, kappa=kappa)


def violation_micro(weights: np.ndarray, penalty: np.ndarray) -> float:
    """Weight-averaged penalty over particles, given the particles' Gibbs weights.

    The weights are gibbs_weights(F_beta, alpha) and the penalty the distance
    to the feasible set, one of each per particle.  A convex combination of
    the penalties, so the result lies between their min and max; 0 when every
    particle is feasible.
    """
    return float(weighted_mean(weights, penalty))


def violation_macro(state: MacroState, weights, penalty) -> float:
    """Density-weighted mean penalty over cell centers, given the cells' Gibbs weights.

    The weights are gibbs_weights(F_beta, alpha) and the penalty the distance
    to the feasible set, one of each per cell center; the grid builds its
    weights once per beta.
    """
    state.check_per_cell(weights=weights, penalty=penalty)
    return float(weighted_mean(weights * state.rho, penalty))
