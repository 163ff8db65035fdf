"""Adaptive exact-penalty control: violation measures and the (beta, kappa) update.

One controller instance per scale; the micro and macro solvers keep
independent (beta, kappa) states.  beta never decreases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .macro import Grid1D, MacroState
from .micro import SwarmState, gibbs_mean

KAPPA_RULES = ("divide", "multiply")


@dataclass(frozen=True)
class PenaltyController:
    """Current (beta, kappa) plus the growth constants of the update rule.

    On success (violation within tolerance) kappa grows, tightening the
    tolerance 1/sqrt(kappa), and beta holds.  On failure beta grows and
    kappa backs off.  ``failure_kappa_rule`` selects how kappa backs off:
    "divide" (kappa/eta, the default) or "multiply" (min{kappa*eta, kappa0},
    kept for comparison).
    """

    beta: float = 1.0
    kappa: float = 5.0
    kappa0: float = 5.0
    eta_kappa: float = 1.1
    eta_beta: float = 1.1
    failure_kappa_rule: str = "divide"

    def __post_init__(self):
        if self.beta <= 0 or self.kappa <= 0 or self.kappa0 <= 0:
            raise ValueError("beta, kappa and kappa0 must be positive")
        if self.eta_kappa <= 1 or self.eta_beta <= 1:
            raise ValueError("growth factors eta_kappa and eta_beta must exceed 1")
        if self.failure_kappa_rule not in KAPPA_RULES:
            raise ValueError(f"failure_kappa_rule must be one of {KAPPA_RULES}")

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
        if self.failure_kappa_rule == "divide":
            kappa = min(self.kappa / self.eta_kappa, self.kappa0)
        else:
            kappa = min(self.kappa * self.eta_kappa, self.kappa0)
        return replace(self, beta=self.eta_beta * self.beta, kappa=kappa)


def violation_micro(state: SwarmState, pf, alpha: float) -> float:
    """Weight-averaged penalty over particles, weights exp(-alpha F_beta).

    A convex combination of per-particle penalties, so the result lies
    between their min and max; 0 when every particle is feasible.
    """
    x = state.positions
    return float(gibbs_mean(pf.evaluate(x), alpha, pf.penalty(x)))


def violation_macro(state: MacroState, grid: Grid1D, pf, alpha: float) -> float:
    """Density-weighted average penalty over cell centers (midpoint rule)."""
    x = grid.centers[:, None]
    return float(gibbs_mean(pf.evaluate(x), alpha, pf.penalty(x), mass=state.rho))
