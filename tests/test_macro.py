"""Finite-volume solver: flux, source, consensus quadrature, stability guards."""

import math

import numpy as np
import pytest

from swarmscale.macro import (
    EPS_RHO,
    Grid1D,
    MacroParams,
    MacroState,
    cfl_dt,
    consensus_point_macro,
    flux,
    hyperbolicity_eigenvalues,
    init_macro,
    lax_friedrichs_step,
    max_wavespeed,
)
from swarmscale.objectives import ObjectiveFunction, PenalizedObjective

PARAMS = MacroParams(m=0.5, lam=1.0)


def ackley_pf(dim=1):
    return PenalizedObjective(ObjectiveFunction("ackley", dim), None, beta=0.0)


def test_grid_geometry():
    grid = Grid1D(-3.0, 3.0, 401)
    assert grid.dx == pytest.approx(6.0 / 401)
    assert len(grid.centers) == 401
    assert grid.centers[0] == pytest.approx(-3.0 + grid.dx / 2)
    assert grid.centers[-1] == pytest.approx(3.0 - grid.dx / 2)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 10)


def test_state_validation():
    with pytest.raises(ValueError):
        MacroState(np.array([1.0, -0.1, 1.0]), np.zeros(3), T=0.1)
    with pytest.raises(ValueError):
        MacroState(np.ones(3), np.zeros(3), T=0.0)
    s = MacroState(np.array([2.0, 0.0, 1.0]), np.array([1.0, 5.0, -1.0]), T=0.1)
    v = s.velocity()
    assert v[0] == pytest.approx(0.5)
    assert v[2] == pytest.approx(-1.0)
    # vacuum cell: the floored division keeps the value finite
    assert np.isfinite(v[1])


def test_flux_values():
    f_rho, f_mom = flux(np.array([1.0]), np.array([0.0]), 0.1)
    assert f_rho[0] == 0.0 and f_mom[0] == pytest.approx(0.01)
    f_rho, f_mom = flux(np.array([0.0]), np.array([0.0]), 7.0)
    assert f_rho[0] == 0.0 and f_mom[0] == 0.0
    f_rho, f_mom = flux(np.array([2.0]), np.array([1.0]), 0.5)
    assert f_rho[0] == 1.0 and f_mom[0] == pytest.approx(1.0)


def test_source_values():
    from swarmscale.macro import source

    s_rho, s_mom = source(np.array([0.0]), np.array([0.0]), np.array([1.0]), 0.0, PARAMS)
    assert s_rho[0] == 0.0 and s_mom[0] == 0.0
    s_rho, s_mom = source(np.array([1.0]), np.array([0.0]), np.array([2.3]), 2.3, PARAMS)
    assert s_mom[0] == 0.0
    s_rho, s_mom = source(np.array([1.0]), np.array([2.0]), np.array([1.0]), 0.0, PARAMS)
    assert s_rho[0] == 0.0 and s_mom[0] == pytest.approx(4.0)


def test_consensus_macro_single_cell():
    grid = Grid1D(-1.0, 1.0, 11)
    rho = np.zeros(11)
    rho[3] = 2.0
    state = MacroState(rho, np.zeros(11), T=0.1)
    got = consensus_point_macro(state, grid, ackley_pf(), 30.0)
    assert got == pytest.approx(grid.centers[3], abs=1e-14)


def test_consensus_macro_symmetry():
    # even objective, uniform density, symmetric grid: the midpoint wins
    grid = Grid1D(-2.0, 2.0, 41)
    state = MacroState(np.ones(41), np.zeros(41), T=0.1)
    got = consensus_point_macro(state, grid, ackley_pf(), 30.0)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_consensus_macro_matches_naive_summation():
    grid = Grid1D(-1.0, 1.0, 11)
    rng = np.random.default_rng(17)
    rho = rng.uniform(0.2, 1.0, size=11)
    state = MacroState(rho, np.zeros(11), T=0.1)
    pf = ackley_pf()
    alpha = 2.0
    num = den = 0.0
    for x, r in zip(grid.centers, rho):
        w = math.exp(-alpha * float(pf.evaluate(np.array([x])))) * r
        num += w * x
        den += w
    got = consensus_point_macro(state, grid, pf, alpha)
    assert got == pytest.approx(num / den, rel=1e-10)
    assert grid.x_min <= got <= grid.x_max


def test_consensus_macro_zero_mass_raises():
    grid = Grid1D(-1.0, 1.0, 11)
    state = MacroState(np.zeros(11), np.zeros(11), T=0.1)
    with pytest.raises(ZeroDivisionError):
        consensus_point_macro(state, grid, ackley_pf(), 30.0)
    with pytest.raises(ValueError):
        consensus_point_macro(
            MacroState(np.ones(11), np.zeros(11), T=0.1), grid, ackley_pf(), -1.0
        )


# ------------------------------------------------------------------- stepping


def test_constant_state_is_fixed_point():
    grid = Grid1D(0.0, 1.0, 20)
    state = MacroState(np.full(20, 0.7), np.zeros(20), T=0.3)
    for boundary in ("periodic", "outflow"):
        out = lax_friedrichs_step(
            state, grid, 0.05, PARAMS, 0.0, boundary=boundary, source_enabled=False
        )
        np.testing.assert_allclose(out.rho, state.rho, rtol=0, atol=1e-14)
        np.testing.assert_allclose(out.rho_u, state.rho_u, rtol=0, atol=1e-14)
    assert out.time == pytest.approx(0.05)


def test_vacuum_stays_vacuum():
    grid = Grid1D(0.0, 1.0, 10)
    state = MacroState(np.zeros(10), np.zeros(10), T=0.1)
    out = lax_friedrichs_step(state, grid, 0.05, PARAMS, 0.5, boundary="periodic")
    np.testing.assert_array_equal(out.rho, np.zeros(10))
    np.testing.assert_array_equal(out.rho_u, np.zeros(10))


def test_step_matches_transcribed_stencil():
    # healthy densities: floors and hole handling never engage
    grid = Grid1D(0.0, 5.0, 5)
    rho = np.array([1.0, 1.2, 0.9, 1.1, 1.0])
    mom = np.array([0.05, -0.02, 0.0, 0.03, -0.01])
    T, dt, consensus = 0.2, 0.5, 2.3
    state = MacroState(rho, mom, T=T)
    out = lax_friedrichs_step(
        state, grid, dt, PARAMS, consensus, boundary="periodic", source_enabled=True
    )

    def phys_flux(r, q):
        return q, q * q / r + r * T * T

    rp, rm = np.roll(rho, -1), np.roll(rho, 1)
    qp, qm = np.roll(mom, -1), np.roll(mom, 1)
    frp, fqp = phys_flux(rp, qp)
    frm, fqm = phys_flux(rm, qm)
    lam_dt = dt / (2.0 * grid.dx)
    rho_ref = 0.5 * (rp + rm) - lam_dt * (frp - frm)
    mom_ref = 0.5 * (qp + qm) - lam_dt * (fqp - fqm)
    s_mom = (0.5 / 0.5) * mom + (1.0 / 0.5) * (grid.centers - consensus) * rho
    mom_ref = mom_ref - dt * s_mom
    np.testing.assert_allclose(out.rho, rho_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(out.rho_u, mom_ref, rtol=0, atol=1e-14)


def test_mass_conserved_with_source_on_periodic():
    grid = Grid1D(-2.0, 2.0, 50)
    rng = np.random.default_rng(23)
    rho = rng.uniform(0.5, 1.5, size=50)
    state = MacroState(rho, np.zeros(50), T=0.2)
    m0 = state.rho.sum() * grid.dx
    for _ in range(100):
        dt = cfl_dt(state, grid, 0.8)
        state = lax_friedrichs_step(state, grid, dt, PARAMS, 0.3, boundary="periodic")
        assert abs(state.rho.sum() * grid.dx - m0) <= 1e-12
        assert np.all(state.rho >= 0.0)


def test_hole_cells_carry_no_momentum():
    # an isolated near-empty cell between full neighbors loses its momentum
    grid = Grid1D(0.0, 5.0, 5)
    eps = 1e-6
    rho = np.array([1.0, eps, eps, eps, 1.0])
    mom = np.array([0.0, 1e-7, 0.0, 1e-7, 0.0])
    state = MacroState(rho, mom, T=0.1)
    out = lax_friedrichs_step(
        state, grid, 0.1, PARAMS, 2.5, boundary="periodic", source_enabled=False
    )
    # center cell: both new neighbors are ~0.5, its own density stays ~eps
    assert out.rho[2] < 0.05 * min(out.rho[1], out.rho[3])
    assert out.rho_u[2] == 0.0


def test_step_errors():
    grid = Grid1D(0.0, 1.0, 10)
    state = MacroState(np.ones(10), np.zeros(10), T=1.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        lax_friedrichs_step(state, grid, 0.0, PARAMS, 0.0)
    with pytest.raises(ValueError, match="CFL violation"):
        lax_friedrichs_step(state, grid, 1.0, PARAMS, 0.0)
    with pytest.raises(ValueError, match="boundary"):
        lax_friedrichs_step(state, grid, 0.01, PARAMS, 0.0, boundary="reflecting")


# ------------------------------------------------------------------ CFL & co


def test_cfl_dt_still_fluid():
    grid = Grid1D(0.0, 1.0, 100)
    state = MacroState(np.ones(100), np.zeros(100), T=0.1)
    assert cfl_dt(state, grid, 0.8) == pytest.approx(0.08, rel=1e-14)
    wide = Grid1D(0.0, 2.0, 100)
    assert cfl_dt(state, wide, 0.8) == pytest.approx(0.16, rel=1e-14)


def test_cfl_dt_mixed_velocities():
    grid = Grid1D(0.0, 1.0, 10)
    rng = np.random.default_rng(29)
    rho = rng.uniform(0.5, 1.5, size=10)
    mom = rng.uniform(-1.0, 1.0, size=10)
    state = MacroState(rho, mom, T=0.4)
    expected = 0.8 * grid.dx / (np.max(np.abs(mom / rho)) + 0.4)
    assert cfl_dt(state, grid, 0.8) == pytest.approx(expected, rel=1e-12)
    assert max_wavespeed(state) == pytest.approx(np.max(np.abs(mom / rho)) + 0.4)
    with pytest.raises(ValueError):
        cfl_dt(state, grid, 0.0)
    with pytest.raises(ValueError):
        cfl_dt(state, grid, 1.2)


def test_non_finite_state_raises_naming_the_cell():
    grid = Grid1D(0.0, 1.0, 10)
    rho_u = np.zeros(10)
    rho_u[3] = np.nan
    state = MacroState(np.ones(10), rho_u, T=0.1)
    with pytest.raises(FloatingPointError, match="cell 3"):
        cfl_dt(state, grid, 0.8)
    with pytest.raises(FloatingPointError, match="cell 3"):
        lax_friedrichs_step(state, grid, 0.01, PARAMS, 0.0)


def test_eigenvalues_basic():
    lam1, lam2 = hyperbolicity_eigenvalues(np.array([1.0]), np.array([0.0]), 1.0)
    assert lam1[0] == 1.0 and lam2[0] == -1.0
    # T = 0 collapses the pair onto the transport speed
    lam1, lam2 = hyperbolicity_eigenvalues(np.array([2.0]), np.array([1.0]), 0.0)
    assert lam1[0] == lam2[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hyperbolicity_eigenvalues(np.array([0.0]), np.array([0.0]), 1.0)


def test_eigenvalues_match_quasilinear_matrix():
    rng = np.random.default_rng(37)
    for _ in range(200):
        rho = rng.uniform(0.1, 3.0)
        u = rng.uniform(-2.0, 2.0)
        T = rng.uniform(-1.5, 1.5)
        if T == 0.0:
            continue
        a = np.array([[0.0, 1.0], [T * T - u * u, 2.0 * u]])
        ref = np.sort(np.linalg.eigvals(a).real)
        lam1, lam2 = hyperbolicity_eigenvalues(
            np.array([rho]), np.array([rho * u]), T
        )
        got = np.sort([lam1[0], lam2[0]])
        np.testing.assert_allclose(got, ref, atol=1e-10)


def test_init_macro_uniform_unit_mass():
    grid = Grid1D(-3.0, 3.0, 401)
    state = init_macro(grid, total_mass=0.5, T=0.1)
    assert state.rho.sum() * grid.dx == pytest.approx(0.5, rel=1e-12)
    assert np.all(state.rho == state.rho[0])
    assert np.all(state.rho_u == 0.0)
    with pytest.raises(ValueError):
        init_macro(grid, total_mass=0.0)


def test_absorbing_boundary_drains_edges():
    grid = Grid1D(0.0, 1.0, 10)
    state = MacroState(np.ones(10), np.zeros(10), T=0.5)
    out = lax_friedrichs_step(
        state, grid, 0.05, PARAMS, 0.5, boundary="absorbing", source_enabled=False
    )
    # vacuum ghosts pull the edge cells down; the interior is untouched
    assert out.rho[0] < 1.0 and out.rho[-1] < 1.0
    np.testing.assert_allclose(out.rho[1:-1], 1.0, atol=1e-14)
    assert out.rho.sum() * grid.dx < 1.0
