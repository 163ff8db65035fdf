"""Adaptive exact-penalty control: violation measures and the (beta, kappa) update.

One controller state per scale: the micro and macro solvers each start
from the config's one penalty section and then update their own
(beta, kappa) independently.  beta never decreases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .keys import Keyed, key, number
from .macro import MacroState
from .micro import weighted_mean


@dataclass(frozen=True)
class PenaltyConfig(Keyed):
    """The config's ``penalty`` section: each scale's controller starts at (beta0, kappa0)."""

    beta0: float = key(number, 1.0, lo=0, lo_open=True)
    kappa0: float = key(number, 5.0, lo=0, lo_open=True)
    eta_kappa: float = key(number, 1.1, lo=1, lo_open=True)
    eta_beta: float = key(number, 1.1, lo=1, lo_open=True)


@dataclass(frozen=True)
class PenaltyController:
    """Current (beta, kappa), updated by ``rule``; the one beta of its scale.

    It starts at the rule's (beta0, kappa0) unless given other values.  On
    success (violation within tolerance) kappa grows, tightening the
    tolerance 1/sqrt(kappa), and beta holds.  On failure beta grows and
    kappa backs off to min{kappa/eta_kappa, kappa0}.  Each update also
    records the violation it was given and its branch, "success" or
    "failure"; a controller no update has made reads (0.0, "none").
    """

    rule: PenaltyConfig = PenaltyConfig()
    beta: float | None = None
    kappa: float | None = None
    violation: float = 0.0
    branch: str = "none"

    def __post_init__(self):
        if self.beta is None:
            object.__setattr__(self, "beta", self.rule.beta0)
        if self.kappa is None:
            object.__setattr__(self, "kappa", self.rule.kappa0)
        if self.beta <= 0 or self.kappa <= 0:
            raise ValueError("beta and kappa must be positive")

    @property
    def threshold(self) -> float:
        """Feasibility tolerance 1/sqrt(kappa)."""
        return 1.0 / math.sqrt(self.kappa)

    def accepts(self, violation: float) -> bool:
        return violation <= self.threshold

    def update(self, violation: float) -> "PenaltyController":
        """Pure one-step update of (beta, kappa) given a violation measure."""
        rule = self.rule
        if self.accepts(violation):
            return PenaltyController(rule, self.beta, rule.eta_kappa * self.kappa, violation,
                                     "success")
        kappa = min(self.kappa / rule.eta_kappa, rule.kappa0)
        return PenaltyController(rule, rule.eta_beta * self.beta, kappa, violation, "failure")


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
