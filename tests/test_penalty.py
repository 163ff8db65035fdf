"""Violation measures and the adaptive (beta, kappa) update rule."""

import math

import numpy as np
import pytest

from swarmscale.macro import Grid1D, MacroState
from swarmscale.micro import gibbs_weights
from swarmscale.objectives import Halfspace1D, ObjectiveFunction, PenalizedObjective
from swarmscale.penalty import (
    PenaltyConfig,
    PenaltyController,
    violation_macro,
    violation_micro,
)


BETA = 1.0  # the beta the violations' Gibbs weights are built at


def halfline_pf():
    return PenalizedObjective(ObjectiveFunction("rastrigin", 1), Halfspace1D(-0.5))


def micro_violation(positions, pf, alpha):
    """violation_micro with the Gibbs weights and the penalty evaluated at the positions."""
    weights = gibbs_weights(pf.evaluate(positions, BETA), alpha)
    return violation_micro(weights, pf.penalty(positions))


def macro_violation(state, grid, pf, alpha):
    """violation_macro with the Gibbs weights and the penalty evaluated at the cell centers."""
    centers = grid.centers[:, None]
    weights = gibbs_weights(pf.evaluate(centers, BETA), alpha)
    return violation_macro(state, weights, pf.penalty(centers))


def test_violation_micro_all_feasible():
    positions = np.array([[-1.0], [-2.5], [-0.5]])
    assert micro_violation(positions, halfline_pf(), 30.0) == 0.0


def test_violation_micro_single_particle():
    positions = np.array([[0.2]])  # distance 0.7
    assert micro_violation(positions, halfline_pf(), 30.0) == pytest.approx(0.7, abs=1e-12)


def test_violation_micro_matches_naive_summation():
    rng = np.random.default_rng(13)
    positions = rng.uniform(-0.55, -0.45, size=(5, 1))  # straddles the bound
    pf = halfline_pf()
    num = den = 0.0
    for x in positions:
        w = math.exp(-30.0 * float(pf.evaluate(x, BETA)))
        num += w * float(pf.penalty(x))
        den += w
    got = micro_violation(positions, pf, 30.0)
    assert got == pytest.approx(num / den, rel=1e-10)
    # convex combination of the per-particle penalties
    pen = pf.penalty(positions)
    assert pen.min() - 1e-15 <= got <= pen.max() + 1e-15


def test_violation_macro_feasible_support():
    grid = Grid1D(-3.0, -1.0, 11)  # entirely inside the half-line
    state = MacroState(np.ones(11), np.zeros(11))
    assert macro_violation(state, grid, halfline_pf(), 30.0) == 0.0


def test_violation_macro_single_cell_spike():
    grid = Grid1D(-1.0, 1.0, 11)
    rho = np.zeros(11)
    j = 8  # center -1 + 2*(8+.5)/11 = 0.5454..., distance 1.0454...
    rho[j] = 3.0
    state = MacroState(rho, np.zeros(11))
    expected = grid.centers[j] + 0.5
    assert macro_violation(state, grid, halfline_pf(), 30.0) == pytest.approx(
        expected, abs=1e-12
    )


def test_violation_macro_matches_naive_summation():
    grid = Grid1D(-1.0, 1.0, 11)
    rho = np.linspace(0.1, 1.1, 11)
    state = MacroState(rho, np.zeros(11))
    pf = halfline_pf()
    alpha = 3.0  # small so the unstabilized sum stays well-conditioned
    num = den = 0.0
    for x, r in zip(grid.centers, rho):
        xv = np.array([x])
        w = math.exp(-alpha * float(pf.evaluate(xv, BETA))) * r
        num += w * float(pf.penalty(xv))
        den += w
    assert macro_violation(state, grid, pf, alpha) == pytest.approx(
        num / den, rel=1e-10
    )


def test_violation_macro_zero_mass_raises():
    grid = Grid1D(-1.0, 1.0, 11)
    state = MacroState(np.zeros(11), np.zeros(11))
    with pytest.raises(ZeroDivisionError):
        macro_violation(state, grid, halfline_pf(), 30.0)
    # arrays of the wrong length would broadcast against the density, so they raise
    unit = MacroState(np.ones(11), np.zeros(11))
    pf, centers = halfline_pf(), grid.centers[:, None]
    weights, penalty = gibbs_weights(pf.evaluate(centers, BETA), 30.0), pf.penalty(centers)
    for wrong in (np.array([0.3]), np.zeros(10), np.zeros(12), np.zeros((11, 1))):
        with pytest.raises(ValueError, match="weights must have shape"):
            violation_macro(unit, wrong, penalty)
        with pytest.raises(ValueError, match="penalty must have shape"):
            violation_macro(unit, weights, wrong)


# ------------------------------------------------------------ update rule


def test_update_success_branch():
    ctrl = PenaltyController(beta=1.0, kappa=5.0)
    out = ctrl.update(0.0)  # 0 <= 1/sqrt(5)
    assert out.kappa == pytest.approx(5.5, rel=1e-15)
    assert out.beta == 1.0


def test_update_failure_branch():
    ctrl = PenaltyController(beta=1.0, kappa=5.0)
    out = ctrl.update(1.0)  # 1 > 1/sqrt(5)
    assert out.beta == pytest.approx(1.1, rel=1e-15)
    assert out.kappa == pytest.approx(5.0 / 1.1, rel=1e-15)


def test_update_scripted_trace():
    # ten updates worked out by hand with beta0=1, kappa0=5, both etas 1.1
    violations = [0.0, 0.5, 0.0, 1.0, 1.0, 0.0, 0.2, 0.0, 0.0, 2.0]
    expected_beta = [1.0, 1.1, 1.1, 1.1**2, 1.1**3, 1.1**3, 1.1**3,
                     1.1**3, 1.1**3, 1.1**4]
    expected_kappa = [5.5, 5.0, 5.5, 5.0, 5.0 / 1.1, (5.0 / 1.1) * 1.1,
                      5.5, 6.05, 6.655, 5.0]
    ctrl = PenaltyController()
    for v, eb, ek in zip(violations, expected_beta, expected_kappa):
        ctrl = ctrl.update(v)
        assert ctrl.beta == pytest.approx(eb, rel=1e-12)
        assert ctrl.kappa == pytest.approx(ek, rel=1e-12)


def test_update_records_its_violation_and_branch():
    # the branch is the one accepts decision of the controller being updated
    ctrl, branches = PenaltyController(), []
    assert (ctrl.violation, ctrl.branch) == (0.0, "none")
    for v in [0.0, 0.5, 0.447, 1.0, 1.0, 0.0, 0.2, 0.43, 0.0, 2.0]:
        new = ctrl.update(v)
        assert new.violation == v
        assert new.branch == ("success" if ctrl.accepts(v) else "failure")
        ctrl = new
        branches.append(ctrl.branch)
    assert set(branches) == {"success", "failure"}


def test_beta_never_decreases():
    rng = np.random.default_rng(31)
    for _ in range(100):
        ctrl = PenaltyController()
        prev = ctrl.beta
        for v in rng.uniform(0.0, 2.0, size=50):
            ctrl = ctrl.update(float(v))
            assert ctrl.beta >= prev
            prev = ctrl.beta


def test_all_success_run():
    # beta frozen, kappa grows geometrically, tolerance strictly tightens
    ctrl = PenaltyController()
    thresholds = [ctrl.threshold]
    for n in range(1, 51):
        ctrl = ctrl.update(0.0)
        assert ctrl.beta == 1.0
        assert ctrl.kappa == pytest.approx(5.0 * 1.1**n, rel=1e-9)
        thresholds.append(ctrl.threshold)
    assert all(b < a for a, b in zip(thresholds, thresholds[1:]))


def test_update_is_pure():
    ctrl = PenaltyController(beta=2.0, kappa=3.0)
    a = ctrl.update(0.9)
    b = ctrl.update(0.9)
    assert a == b
    assert ctrl.beta == 2.0 and ctrl.kappa == 3.0


def test_controller_starts_at_its_rules_values():
    def start(ctrl):
        return ctrl.beta, ctrl.kappa

    rule = PenaltyConfig(beta0=2.0, kappa0=9.0)
    assert start(PenaltyController(rule)) == (2.0, 9.0)
    assert start(PenaltyController()) == (1.0, 5.0)  # the default rule's
    # a value given overrides the rule's, one at a time
    assert start(PenaltyController(rule, beta=3.0)) == (3.0, 9.0)
    assert start(PenaltyController(rule, kappa=4.0)) == (2.0, 4.0)
    # a failure backs kappa off to at most the rule's kappa0
    assert PenaltyController(rule, kappa=20.0).update(1.0).kappa == 9.0


def test_controller_validation():
    with pytest.raises(ValueError):
        PenaltyController(beta=0.0)
    with pytest.raises(ValueError, match="^eta_kappa: "):
        PenaltyController(rule=PenaltyConfig(eta_kappa=1.0))


def test_accepts_uses_current_tolerance():
    ctrl = PenaltyController(kappa=4.0)
    assert ctrl.threshold == pytest.approx(0.5)
    assert ctrl.accepts(0.5)
    assert not ctrl.accepts(0.5000001)
