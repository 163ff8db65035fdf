"""Finite-volume solver: consensus quadrature, hydrostatic step, stability guards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from swarmscale import macro
from swarmscale.macro import (
    BOUNDARIES,
    EPS_RHO,
    Grid1D,
    MacroState,
    advance_macro,
    cfl_dt,
    consensus_point_macro,
    init_macro,
    lax_friedrichs_step,
    max_wavespeed,
)
from swarmscale.micro import MicroParams, gibbs_weights, weighted_mean
from swarmscale.objectives import Halfspace1D, ObjectiveFunction, PenalizedObjective

PARAMS = MicroParams(m=0.5, lam=1.0)


def ackley_pf(dim=1):
    return PenalizedObjective(ObjectiveFunction("ackley", dim))


def at_centers(grid, pf, beta):
    """F_beta at the cell centers."""
    return pf.evaluate(grid.centers[:, None], beta)


def weights_at(grid, pf, beta, alpha):
    """The cells' Gibbs weights, which the grid functions take."""
    return gibbs_weights(at_centers(grid, pf, beta), alpha)


def test_grid_geometry():
    grid = Grid1D(-3.0, 3.0, 401)
    assert grid.dx == pytest.approx(6.0 / 401)
    assert len(grid.centers) == 401
    assert grid.centers[0] == pytest.approx(-3.0 + grid.dx / 2)
    assert grid.centers[-1] == pytest.approx(3.0 - grid.dx / 2)
    # built once and shared, so no caller may write into it
    assert grid.centers is grid.centers
    with pytest.raises(ValueError):
        grid.centers[0] = 0.0
    # the padded centers' ghosts copy the edge cells, or wrap on a periodic grid
    pad = grid.padded_centers
    assert pad is grid.padded_centers and not pad.flags.writeable
    assert np.array_equal(pad, np.concatenate([grid.centers[:1], grid.centers, grid.centers[-1:]]))
    ring = Grid1D(-3.0, 3.0, 401, boundary="periodic").padded_centers
    assert np.array_equal(ring, np.concatenate([grid.centers[-1:], grid.centers, grid.centers[:1]]))
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 10)


def test_state_validation():
    with pytest.raises(ValueError):
        MacroState(np.array([1.0, -0.1, 1.0]), np.zeros(3))
    s = MacroState(np.array([2.0, 0.0, 1.0]), np.array([1.0, 5.0, -1.0]))
    v = s.velocity()
    assert v[0] == pytest.approx(0.5)
    assert v[2] == pytest.approx(-1.0)
    # vacuum cell: the floored division keeps the value finite
    assert np.isfinite(v[1])
    # formed once per state and shared, so no reader may write it
    assert s.velocity() is v and not v.flags.writeable


def test_consensus_macro_single_cell():
    grid = Grid1D(-1.0, 1.0, 11)
    rho = np.zeros(11)
    rho[3] = 2.0
    state = MacroState(rho, np.zeros(11))
    got = consensus_point_macro(state, grid, weights_at(grid, ackley_pf(), 0.0, 30.0))
    assert got == pytest.approx(grid.centers[3], abs=1e-14)


def test_consensus_macro_symmetry():
    # even objective, uniform density, symmetric grid: the midpoint wins
    grid = Grid1D(-2.0, 2.0, 41)
    state = MacroState(np.ones(41), np.zeros(41))
    got = consensus_point_macro(state, grid, weights_at(grid, ackley_pf(), 0.0, 30.0))
    assert got == pytest.approx(0.0, abs=1e-12)


def test_consensus_macro_matches_naive_summation():
    grid = Grid1D(-1.0, 1.0, 11)
    rng = np.random.default_rng(17)
    rho = rng.uniform(0.2, 1.0, size=11)
    state = MacroState(rho, np.zeros(11))
    pf = ackley_pf()
    alpha = 2.0
    num = den = 0.0
    for x, r in zip(grid.centers, rho):
        w = math.exp(-alpha * float(pf.evaluate(np.array([x]), 0.0))) * r
        num += w * x
        den += w
    got = consensus_point_macro(state, grid, weights_at(grid, pf, 0.0, alpha))
    assert got == pytest.approx(num / den, rel=1e-10)
    assert grid.x_min <= got <= grid.x_max


def test_consensus_macro_zero_mass_raises():
    grid = Grid1D(-1.0, 1.0, 11)
    state = MacroState(np.zeros(11), np.zeros(11))
    values = at_centers(grid, ackley_pf(), 0.0)
    weights = gibbs_weights(values, 30.0)
    with pytest.raises(ZeroDivisionError):
        consensus_point_macro(state, grid, weights)
    # the grid's weights are built by the one Gibbs weighting, which checks alpha
    with pytest.raises(ValueError, match="alpha must be positive"):
        gibbs_weights(values, -1.0)
    # the sub-step loop reuses one set of weights and keeps the zero-mass error
    with pytest.raises(ZeroDivisionError,
                       match="^Gibbs-weighted mean undefined: zero weighted mass$"):
        advance_macro(state, grid, PARAMS, weights, 0.1)
    # weights of the wrong length would broadcast against the density, so they raise
    unit = MacroState(np.ones(11), np.zeros(11))
    for wrong in (weights[:1], weights[:-1], np.append(weights, 0.0), weights[:, None]):
        with pytest.raises(ValueError, match="weights must have shape"):
            consensus_point_macro(unit, grid, wrong)
        with pytest.raises(ValueError, match="weights must have shape"):
            advance_macro(unit, grid, PARAMS, wrong, 0.1)


def test_a_state_forms_its_consensus_once_per_weights_object(monkeypatch):
    grid = Grid1D(-1.0, 1.0, 11)
    rng = np.random.default_rng(19)
    state = MacroState(rng.uniform(0.2, 1.0, 11), rng.uniform(-0.1, 0.1, 11))
    weights = weights_at(grid, ackley_pf(), 0.0, 2.0)
    calls = []

    def counted(w, q):
        calls.append(w)
        return weighted_mean(w, q)

    monkeypatch.setattr(macro, "weighted_mean", counted)
    first = consensus_point_macro(state, grid, weights)
    assert consensus_point_macro(state, grid, weights) == first
    assert len(calls) == 1
    # an equal-shaped array with other values is another weighting
    other = weights * rng.uniform(0.5, 2.0, 11)
    want = float(weighted_mean(other * state.rho, grid.centers))
    assert consensus_point_macro(state, grid, other) == want != first
    assert len(calls) == 2
    # the shape is still checked on a state that holds a consensus
    for wrong in (other[:-1], other[:, None]):
        with pytest.raises(ValueError, match="weights must have shape"):
            consensus_point_macro(state, grid, wrong)
    assert len(calls) == 2
    # a stepped state forms its own
    stepped = lax_friedrichs_step(state, grid, math.inf, PARAMS, want)
    assert consensus_point_macro(stepped, grid, other) != want
    assert len(calls) == 3
    # so a one-sub-step advance reuses the consensus observed on its input
    advance_macro(stepped, grid, PARAMS, other, stepped.time + 1e-3)
    assert len(calls) == 3


# ------------------------------------------------------------------- stepping


def test_constant_state_is_fixed_point():
    # with a vanishing attraction every face sees its cells' own states, so
    # transport leaves a constant flow fixed and only friction moves its momentum
    params = MicroParams(m=0.5, lam=1e-300)
    state = MacroState(np.full(20, 0.7), np.full(20, 0.14))
    kick = -0.05 * (params.gamma / params.m) * state.rho_u
    for boundary in ("periodic", "outflow"):
        grid = Grid1D(0.0, 1.0, 20, T=0.3, boundary=boundary)
        out = lax_friedrichs_step(state, grid, 0.05, params, 0.0)
        np.testing.assert_allclose(out.rho, state.rho, rtol=0, atol=1e-14)
        np.testing.assert_allclose(out.rho_u, state.rho_u + kick, rtol=0, atol=1e-14)
    assert out.time == pytest.approx(0.05)


def test_vacuum_stays_vacuum():
    grid = Grid1D(0.0, 1.0, 10, boundary="periodic")
    state = MacroState(np.zeros(10), np.zeros(10))
    out = lax_friedrichs_step(state, grid, 0.05, PARAMS, 0.5)
    np.testing.assert_array_equal(out.rho, np.zeros(10))
    np.testing.assert_array_equal(out.rho_u, np.zeros(10))


def test_mass_conserved_with_source_on_periodic():
    grid = Grid1D(-2.0, 2.0, 50, T=0.2, boundary="periodic")
    rng = np.random.default_rng(23)
    rho = rng.uniform(0.5, 1.5, size=50)
    state = MacroState(rho, np.zeros(50))
    m0 = state.rho.sum() * grid.dx
    for _ in range(100):
        state = lax_friedrichs_step(state, grid, math.inf, PARAMS, 0.3)  # the CFL step
        assert abs(state.rho.sum() * grid.dx - m0) <= 1e-12
        assert np.all(state.rho >= 0.0)


def test_step_errors():
    grid = Grid1D(0.0, 1.0, 10, T=1.0)
    state = MacroState(np.ones(10), np.zeros(10))
    for dt in (0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            lax_friedrichs_step(state, grid, dt, PARAMS, 0.0)
    # the grid carries the boundary rule, so an unknown one fails when it is built
    with pytest.raises(ValueError, match="^boundary: "):
        Grid1D(0.0, 1.0, 10, boundary="reflecting")


def moving_state(grid, seed):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.5, 1.5, grid.n_cells)
    return MacroState(rho, rng.uniform(-0.5, 0.5, grid.n_cells) * rho, time=0.3)


@pytest.mark.parametrize("allowed", [1.0001, 2.0, 1e3, math.inf])
def test_a_step_allowed_more_than_its_bound_takes_the_cfl_step(allowed):
    grid = Grid1D(-1.0, 1.0, 20, T=0.4, boundary="outflow")
    state = moving_state(grid, 61)
    bound = cfl_dt(max_wavespeed(state, grid), grid)
    out = lax_friedrichs_step(state, grid, allowed * bound, PARAMS, 0.2)
    assert out.time == state.time + bound
    at_bound = lax_friedrichs_step(state, grid, bound, PARAMS, 0.2)
    assert np.array_equal(out.rho, at_bound.rho) and np.array_equal(out.rho_u, at_bound.rho_u)


@pytest.mark.parametrize("share", [1e-6, 0.3, 0.9999])
def test_a_step_allowed_less_than_its_bound_takes_what_it_is_allowed(share):
    # bit for bit the update at that dt, floored, with vacuum cells emptied of momentum
    grid = Grid1D(-1.0, 1.0, 20, T=0.4, boundary="periodic")
    state = moving_state(grid, 67)
    dt = share * cfl_dt(max_wavespeed(state, grid), grid)
    out = lax_friedrichs_step(state, grid, dt, PARAMS, 0.2)
    assert out.time == state.time + dt
    rho_ref, mom_ref = macro._hydrostatic_update(state, grid, dt, PARAMS, 0.2)
    rho_ref = np.maximum(rho_ref, 0.0)
    assert np.array_equal(out.rho, rho_ref)
    assert np.array_equal(out.rho_u, np.where(rho_ref <= EPS_RHO, 0.0, mom_ref))


def test_a_moving_state_takes_a_shorter_step_than_a_resting_one():
    # the step's wavespeed counts the flow speed |u| as well as |T|
    grid = Grid1D(0.0, 1.0, 10, T=1.0)
    at_rest = MacroState(np.ones(10), np.zeros(10))
    moving = MacroState(np.ones(10), np.ones(10))
    assert lax_friedrichs_step(at_rest, grid, 0.07, PARAMS, 0.0).time == 0.07
    assert lax_friedrichs_step(moving, grid, 0.07, PARAMS, 0.0).time == 0.8 * grid.dx / 2.0


def hydrostatic_equilibrium(grid, consensus):
    """The discrete steady state C exp(-phi_i / T^2), u = 0, of the hydrostatic scheme."""
    phi = (PARAMS.lam / PARAMS.m) * 0.5 * (grid.centers - consensus) ** 2
    return MacroState(2.0 * np.exp(-phi / grid.T**2), np.zeros(grid.n_cells))


# absorbing ghosts are vacuum, so there the profile must vanish at the edges
@pytest.mark.parametrize("boundary, T", [
    ("periodic", 1.0), ("outflow", 1.0), ("periodic", 0.3), ("outflow", 0.3), ("absorbing", 0.3),
])
def test_hydrostatic_equilibrium_is_a_fixed_point(boundary, T):
    grid = Grid1D(-3.0, 3.0, 101, T=T, boundary=boundary)
    state = hydrostatic_equilibrium(grid, 0.4)
    dt = cfl_dt(max_wavespeed(state, grid), grid)
    out = lax_friedrichs_step(state, grid, dt, PARAMS, 0.4)
    scale = state.rho.max()
    np.testing.assert_allclose(out.rho, state.rho, rtol=0, atol=1e-15 * scale)
    np.testing.assert_allclose(out.rho_u, 0.0, rtol=0, atol=1e-15 * scale)
    assert out.time == dt


def test_hydrostatic_conserves_periodic_mass_with_a_moving_consensus():
    grid = Grid1D(-2.0, 2.0, 50, T=0.2, boundary="periodic")
    rng = np.random.default_rng(43)
    state = MacroState(rng.uniform(0.5, 1.5, 50), rng.uniform(-0.3, 0.3, 50))
    m0 = state.rho.sum() * grid.dx
    for k in range(2000):
        consensus = 1.5 * math.sin(k / 100.0)
        state = lax_friedrichs_step(state, grid, math.inf, PARAMS, consensus)  # the CFL step
        assert abs(state.rho.sum() * grid.dx - m0) <= 1e-14 * m0
    assert np.all(state.rho >= 0.0)


def test_hydrostatic_step_matches_transcribed_faces():
    # one face at a time, from the formulas of Audusse et al. (2004) with P(rho) = T^2 rho
    T, dt, consensus = 0.5, 0.5, 2.3
    grid = Grid1D(0.0, 5.0, 5, T=T, boundary="periodic")
    rho = np.array([1.0, 1.2, 0.9, 1.1, 1.0])
    mom = np.array([0.05, -0.02, 0.0, 0.03, -0.01])
    out = lax_friedrichs_step(MacroState(rho, mom), grid, dt, PARAMS, consensus)

    phi = (1.0 / 0.5) * (grid.centers - consensus) ** 2 / 2
    u = mom / rho
    rho_ref, mom_ref = rho.copy(), mom - dt * (0.5 / 0.5) * mom
    for i in range(5):
        j = (i + 1) % 5  # the face between cells i and j
        phi_f = max(phi[i], phi[j])
        r_l = rho[i] * math.exp(-(phi_f - phi[i]) / T**2)
        r_r = rho[j] * math.exp(-(phi_f - phi[j]) / T**2)
        a = max(abs(u[i]), abs(u[j])) + T
        f_rho = 0.5 * (r_l * u[i] + r_r * u[j]) - 0.5 * a * (r_r - r_l)
        f_mom = (0.5 * (r_l * u[i] ** 2 + T**2 * r_l + r_r * u[j] ** 2 + T**2 * r_r)
                 - 0.5 * a * (r_r * u[j] - r_l * u[i]))
        rho_ref[i] -= dt / grid.dx * f_rho
        rho_ref[j] += dt / grid.dx * f_rho
        mom_ref[i] -= dt / grid.dx * (f_mom + T**2 * (rho[i] - r_l))
        mom_ref[j] += dt / grid.dx * (f_mom + T**2 * (rho[j] - r_r))
    np.testing.assert_allclose(out.rho, rho_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(out.rho_u, mom_ref, rtol=0, atol=1e-14)


def reference_hydrostatic_update(state, grid, dt, params, consensus, boundary):
    """The hydrostatic update as first written: three padded copies and exp/where pairs."""

    def pad(arr, kind):
        if kind == "periodic":
            return np.concatenate([arr[-1:], arr, arr[:1]])
        if kind == "absorbing":
            z = np.zeros(1)
            return np.concatenate([z, arr, z])
        return np.concatenate([arr[:1], arr, arr[-1:]])

    T2 = grid.T * grid.T
    phi = (params.lam / params.m) * 0.5 * (grid.centers - consensus) ** 2
    phi_p = pad(phi, "periodic" if boundary == "periodic" else "outflow")
    rho_p = pad(state.rho, boundary)
    u_p = pad(state.velocity(), boundary)

    rise = (phi_p[1:] - phi_p[:-1]) / T2
    drop = np.exp(-np.abs(rise))
    rho_l = np.where(rise > 0.0, rho_p[:-1] * drop, rho_p[:-1])
    rho_r = np.where(rise < 0.0, rho_p[1:] * drop, rho_p[1:])
    u_l, u_r = u_p[:-1], u_p[1:]
    q_l, q_r = rho_l * u_l, rho_r * u_r
    speed = np.maximum(np.abs(u_l), np.abs(u_r)) + abs(grid.T)
    f_rho = 0.5 * (q_l + q_r - speed * (rho_r - rho_l))
    f_mom = 0.5 * (q_l * u_l + q_r * u_r + T2 * (rho_l + rho_r) - speed * (q_r - q_l))

    ratio = dt / grid.dx
    rho_new = state.rho - ratio * (f_rho[1:] - f_rho[:-1])
    mom_new = state.rho_u - ratio * (f_mom[1:] - f_mom[:-1] + T2 * (rho_r[:-1] - rho_l[1:]))
    mom_new = mom_new - dt * (params.gamma / params.m) * state.rho_u
    return rho_new, mom_new


@pytest.mark.parametrize("boundary", ["outflow", "periodic", "absorbing"])
@pytest.mark.parametrize("T", [0.1, 0.3, 1.0])
def test_hydrostatic_step_matches_the_reference_body_bit_for_bit(boundary, T):
    grid = Grid1D(-2.0, 2.0, 61, T=T, cfl=1.0, boundary=boundary)
    rng = np.random.default_rng(53)
    for _ in range(20):
        rho = rng.uniform(0.0, 1.5, 61)
        mom = rng.uniform(-0.5, 0.5, 61)
        vacuum = rng.random(61) < 0.3
        rho[vacuum] = 0.0
        mom[vacuum] = 0.0
        rho[rng.random(61) < 0.1] = 1e-14  # near-empty cells that still carry momentum
        state = MacroState(rho, mom)
        consensus = rng.uniform(-2.5, 2.5)
        dt = cfl_dt(max_wavespeed(state, grid), grid)
        rho_ref, mom_ref = reference_hydrostatic_update(state, grid, dt, PARAMS, consensus,
                                                        boundary)
        out = lax_friedrichs_step(state, grid, dt, PARAMS, consensus)
        rho_ref = np.maximum(rho_ref, 0.0)
        assert np.array_equal(out.rho, rho_ref)
        assert np.array_equal(out.rho_u, np.where(rho_ref <= EPS_RHO, 0.0, mom_ref))


def test_hydrostatic_density_stays_nonnegative_under_the_wavespeed_bound():
    # cfl = 1, vacuum cells, a consensus swept to the grid edges
    grid = Grid1D(-2.0, 2.0, 50, T=0.2, cfl=1.0, boundary="periodic")
    rng = np.random.default_rng(47)
    rho = rng.uniform(0.5, 1.5, 50)
    mom = rng.uniform(-0.3, 0.3, 50)
    vacuum = rng.random(50) < 0.3
    rho[vacuum] = 0.0
    mom[vacuum] = 0.0
    state = MacroState(rho, mom)
    m0 = state.rho.sum() * grid.dx
    for k in range(2000):
        consensus = 2.0 * math.sin(k / 50.0)
        dt = cfl_dt(max_wavespeed(state, grid), grid)
        unfloored, _ = macro._hydrostatic_update(state, grid, dt, PARAMS, consensus)
        assert unfloored.min() >= 0.0
        state = lax_friedrichs_step(state, grid, dt, PARAMS, consensus)
        assert abs(state.rho.sum() * grid.dx - m0) <= 1e-14 * m0


def test_the_floor_clears_a_rounding_undershoot_at_cfl_one():
    # at cfl = 1 the unfloored update can dip below zero by rounding alone
    grid = Grid1D(-3.0, 3.0, 3, T=0.5, cfl=1.0, boundary="periodic")
    state = MacroState(np.array([0.42, 1.82, 1.22]), np.array([0.57, -0.12, 0.33]))
    dt = cfl_dt(max_wavespeed(state, grid), grid)
    unfloored, _ = macro._hydrostatic_update(state, grid, dt, MicroParams(), 2.5)
    assert unfloored[0] == -2.0**-54
    out = lax_friedrichs_step(state, grid, dt, MicroParams(), 2.5)
    assert out.rho[0] == 0.0 and out.rho_u[0] == 0.0
    assert np.array_equal(out.rho[1:], unfloored[1:])


@st.composite
def one_step_grids(draw, boundaries=BOUNDARIES):
    """A grid on [-3, 3] of 3-40 cells, T log-uniform in [0.01, 10], cfl in [0.01, 1]."""
    return Grid1D(-3.0, 3.0, draw(st.integers(3, 40)), T=10.0 ** draw(st.floats(-2.0, 1.0)),
                  cfl=draw(st.floats(0.01, 1.0)),
                  boundary=draw(st.sampled_from(boundaries)))


@st.composite
def grid_states(draw):
    """A grid and a state on it: rho in [0, 2) with vacuum cells, which carry no momentum."""
    grid = draw(one_step_grids())
    n = grid.n_cells
    rho = draw(arrays(float, n, elements=st.floats(0.0, 2.0, exclude_max=True)))
    mom = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    vacuum = draw(arrays(bool, n))
    rho[vacuum] = mom[vacuum] = 0.0
    return grid, MacroState(rho, mom), draw(st.floats(-3.0, 3.0))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(grid_states())
def test_one_step_keeps_the_density_and_the_periodic_mass(case):
    grid, state, consensus = case
    dt = cfl_dt(max_wavespeed(state, grid), grid)
    scale = state.rho.max()
    unfloored, _ = macro._hydrostatic_update(state, grid, dt, PARAMS, consensus)
    assert unfloored.min() >= -4 * np.finfo(float).eps * scale
    if grid.boundary == "periodic":
        out = lax_friedrichs_step(state, grid, dt, PARAMS, consensus)
        assert abs(out.rho.sum() - state.rho.sum()) <= 1e-14 * state.rho.sum()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(one_step_grids(("periodic", "outflow")), st.floats(-1.5, 1.5))
def test_the_equilibrium_stays_fixed_on_generated_grids(grid, consensus):
    state = hydrostatic_equilibrium(grid, consensus)
    dt = cfl_dt(max_wavespeed(state, grid), grid)
    out = lax_friedrichs_step(state, grid, dt, PARAMS, consensus)
    scale = state.rho.max()
    np.testing.assert_allclose(out.rho, state.rho, rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(out.rho_u, 0.0, rtol=0, atol=1e-14 * scale)


def pad_matrix_hydrostatic_update(state, grid, dt, params, consensus):
    """The hydrostatic update as it stood with one (3, n+2) pad matrix, frozen as the reference."""
    T2 = grid.T * grid.T
    pad = np.empty((3, state.rho.size + 2))
    pad[0, 1:-1] = (params.lam / params.m) * 0.5 * (grid.centers - consensus) ** 2
    pad[1, 1:-1] = state.rho
    pad[2, 1:-1] = state.velocity()
    if grid.boundary == "periodic":
        pad[:, 0], pad[:, -1] = pad[:, -2], pad[:, 1]
    else:
        pad[:, 0], pad[:, -1] = pad[:, 1], pad[:, -2]
    if grid.boundary == "absorbing":
        pad[1:, 0] = pad[1:, -1] = 0.0
    phi_p, rho_p, u_p = pad

    rise = (phi_p[1:] - phi_p[:-1]) / T2
    rho_l = rho_p[:-1] * np.exp(-np.maximum(rise, 0.0))
    rho_r = rho_p[1:] * np.exp(np.minimum(rise, 0.0))
    u_l, u_r = u_p[:-1], u_p[1:]
    q_l, q_r = rho_l * u_l, rho_r * u_r
    speed = np.maximum(np.abs(u_l), np.abs(u_r)) + abs(grid.T)
    f_rho = 0.5 * (q_l + q_r - speed * (rho_r - rho_l))
    f_mom = 0.5 * (q_l * u_l + q_r * u_r + T2 * (rho_l + rho_r) - speed * (q_r - q_l))

    ratio = dt / grid.dx
    rho_new = state.rho - ratio * (f_rho[1:] - f_rho[:-1])
    mom_new = state.rho_u - ratio * (f_mom[1:] - f_mom[:-1] + T2 * (rho_r[:-1] - rho_l[1:]))
    mom_new = mom_new - dt * (params.gamma / params.m) * state.rho_u
    return rho_new, mom_new


@st.composite
def kernel_cases(draw):
    """A grid step's inputs: |T| in {0.1, 0.3, 1}, each boundary, empty and near-empty
    cells, a step at or below the CFL bound, and a consensus up to 3 beyond the grid."""
    n = draw(st.integers(3, 60))
    grid = Grid1D(-3.0, 3.0, n, T=draw(st.sampled_from([0.1, 0.3, 1.0, -0.3])),
                  cfl=draw(st.floats(0.05, 1.0)), boundary=draw(st.sampled_from(BOUNDARIES)))
    rho = draw(arrays(float, n, elements=st.floats(0.0, 2.0)))
    mom = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    empty = draw(arrays(bool, n))
    rho[empty] = mom[empty] = 0.0
    # near-empty cells, on both sides of the velocity's density floor, keep their momentum
    rho[draw(arrays(bool, n))] = draw(st.floats(1e-300, 1e-11))
    params = MicroParams(m=draw(st.floats(0.05, 0.95)), lam=draw(st.floats(0.1, 10.0)))
    share = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))  # of the CFL step
    return grid, MacroState(rho, mom, time=0.25), params, share, draw(st.floats(-6.0, 6.0))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(kernel_cases())
def test_the_grid_step_is_the_pad_matrix_step_byte_for_byte(case):
    grid, state, params, share, consensus = case
    dt = share * cfl_dt(max_wavespeed(state, grid), grid)
    got = macro._hydrostatic_update(state, grid, dt, params, consensus)
    rho_ref, mom_ref = pad_matrix_hydrostatic_update(state, grid, dt, params, consensus)
    # tobytes, so a zero's sign counts too
    assert [a.tobytes() for a in got] == [rho_ref.tobytes(), mom_ref.tobytes()]
    out = lax_friedrichs_step(state, grid, dt, params, consensus)
    np.maximum(rho_ref, 0.0, out=rho_ref)
    mom_ref[rho_ref <= EPS_RHO] = 0.0
    assert out.rho.tobytes() == rho_ref.tobytes()
    assert out.rho_u.tobytes() == mom_ref.tobytes()
    assert out.time == state.time + dt


# ------------------------------------------------------------------ CFL & co


def test_cfl_dt_still_fluid():
    grid = Grid1D(0.0, 1.0, 100)
    state = MacroState(np.ones(100), np.zeros(100))
    s = max_wavespeed(state, grid)
    assert cfl_dt(s, grid) == pytest.approx(0.08, rel=1e-14)
    wide = Grid1D(0.0, 2.0, 100)
    assert cfl_dt(s, wide) == pytest.approx(0.16, rel=1e-14)


def test_cfl_dt_mixed_velocities():
    grid = Grid1D(0.0, 1.0, 10, T=0.4)
    rng = np.random.default_rng(29)
    rho = rng.uniform(0.5, 1.5, size=10)
    mom = rng.uniform(-1.0, 1.0, size=10)
    state = MacroState(rho, mom)
    expected = 0.8 * grid.dx / (np.max(np.abs(mom / rho)) + 0.4)
    s = max_wavespeed(state, grid)
    assert cfl_dt(s, grid) == pytest.approx(expected, rel=1e-12)
    assert s == pytest.approx(np.max(np.abs(mom / rho)) + 0.4)
    # the grid carries cfl, so a factor outside (0, 1] fails when it is built
    with pytest.raises(ValueError, match="^cfl: "):
        Grid1D(0.0, 1.0, 10, cfl=0.0)
    with pytest.raises(ValueError, match="^cfl: "):
        Grid1D(0.0, 1.0, 10, cfl=1.2)


def test_advance_macro_lands_on_the_target_and_conserves_mass():
    grid = Grid1D(-2.0, 2.0, 40, T=0.2, boundary="periodic")
    rng = np.random.default_rng(37)
    state = MacroState(rng.uniform(0.5, 1.5, 40), np.zeros(40))
    m0 = state.rho.sum() * grid.dx
    for target in (0.05, 0.3, 0.31):
        weights = weights_at(grid, ackley_pf(), 0.0, 10.0)
        state = advance_macro(state, grid, PARAMS, weights, target)
        assert abs(state.time - target) <= 1e-12
        assert abs(state.rho.sum() * grid.dx - m0) <= 1e-12


def reference_advance(state, grid, params, pf, beta, alpha, target_time):
    """The sub-step loop spelled out with the public pieces, evaluating everything each step."""
    while target_time - state.time > 1e-12:
        c = consensus_point_macro(state, grid, weights_at(grid, pf, beta, alpha))
        dt = min(cfl_dt(max_wavespeed(state, grid), grid), target_time - state.time)
        state = lax_friedrichs_step(state, grid, dt, params, c)
    return state


def halfline_pf():
    return PenalizedObjective(ObjectiveFunction("rastrigin", 1), Halfspace1D(0.5))


# the bare boundary id starts from a random flow, the -hydrostatic one from the
# scheme's rest profile about a point the weights' consensus moves away from
@pytest.mark.parametrize("boundary, start", [
    pytest.param(b, s, id=b if s == "random" else f"{b}-{s}")
    for b in ("outflow", "periodic", "absorbing") for s in ("random", "hydrostatic")
])
def test_advance_macro_matches_the_reference_loop_bit_for_bit(boundary, start):
    grid = Grid1D(-3.0, 3.0, 81, T=0.3, boundary=boundary)
    if start == "random":
        rng = np.random.default_rng(41)
        state = MacroState(rng.uniform(0.2, 1.5, 81), rng.uniform(-0.3, 0.3, 81))
    else:
        state = hydrostatic_equilibrium(grid, -1.0)
    pf = halfline_pf()
    for target in (0.05, 0.4):
        got = advance_macro(state, grid, PARAMS, weights_at(grid, pf, 2.5, 30.0), target)
        ref = reference_advance(state, grid, PARAMS, pf, 2.5, 30.0, target)
        assert np.array_equal(got.rho, ref.rho)
        assert np.array_equal(got.rho_u, ref.rho_u)
        assert got.time == ref.time
        state = got


def test_advance_macro_reports_a_stall(monkeypatch):
    grid = Grid1D(-2.0, 2.0, 40, T=0.2, boundary="periodic")
    state = init_macro(grid)
    monkeypatch.setattr(macro, "MAX_SUBSTEPS", 3)
    with pytest.raises(RuntimeError, match="grid solver stalled: 3 sub-steps"):
        advance_macro(state, grid, PARAMS, weights_at(grid, ackley_pf(), 0.0, 10.0), 100.0)


def test_advance_macro_may_take_exactly_max_substeps(monkeypatch):
    grid = Grid1D(-2.0, 2.0, 40, T=0.3, boundary="periodic")
    state, weights = init_macro(grid), weights_at(grid, ackley_pf(), 0.0, 10.0)
    steps = []

    def counted(*args, **kwargs):
        steps.append(1)
        return lax_friedrichs_step(*args, **kwargs)

    monkeypatch.setattr(macro, "lax_friedrichs_step", counted)
    advance_macro(state, grid, PARAMS, weights, 0.9)
    n = len(steps)
    assert n > 1
    monkeypatch.setattr(macro, "MAX_SUBSTEPS", n)
    assert advance_macro(state, grid, PARAMS, weights, 0.9).time == pytest.approx(0.9)
    monkeypatch.setattr(macro, "MAX_SUBSTEPS", n - 1)
    with pytest.raises(RuntimeError, match=f"grid solver stalled: {n - 1} sub-steps"):
        advance_macro(state, grid, PARAMS, weights, 0.9)


def test_advance_macro_lands_from_just_short_of_its_target(monkeypatch):
    # 5e-10 short lies beyond the landing tolerance, so one sub-step closes the gap
    grid = Grid1D(-2.0, 2.0, 40, T=0.3, boundary="periodic")
    start = init_macro(grid)
    state = MacroState(start.rho, start.rho_u, time=1.0 - 5e-10)
    steps = []

    def counted(*args, **kwargs):
        steps.append(1)
        return lax_friedrichs_step(*args, **kwargs)

    monkeypatch.setattr(macro, "lax_friedrichs_step", counted)
    got = advance_macro(state, grid, PARAMS, weights_at(grid, ackley_pf(), 0.0, 10.0), 1.0)
    assert len(steps) == 1
    assert abs(got.time - 1.0) <= 1e-12


def test_non_finite_state_raises_naming_the_cell():
    grid = Grid1D(0.0, 1.0, 10)
    rho_u = np.zeros(10)
    rho_u[3] = np.nan
    state = MacroState(np.ones(10), rho_u)
    with pytest.raises(FloatingPointError, match="cell 3"):
        max_wavespeed(state, grid)
    with pytest.raises(FloatingPointError, match="cell 3"):
        lax_friedrichs_step(state, grid, 0.01, PARAMS, 0.0)


def test_eigenvalues_match_quasilinear_matrix():
    # the CFL bound's wavespeed |u| + |T| is the spectral radius of the flux Jacobian
    rng = np.random.default_rng(37)
    for _ in range(200):
        rho = rng.uniform(0.1, 3.0)
        u = rng.uniform(-2.0, 2.0)
        T = rng.uniform(-1.5, 1.5)
        if T == 0.0:
            continue
        a = np.array([[0.0, 1.0], [T * T - u * u, 2.0 * u]])
        ref = np.max(np.abs(np.linalg.eigvals(a)))
        got = max_wavespeed(MacroState(np.array([rho]), np.array([rho * u])), Grid1D(T=T))
        assert got == pytest.approx(ref, rel=0, abs=1e-10)


def test_init_macro_uniform_unit_mass():
    grid = Grid1D(-3.0, 3.0, 401)
    state = init_macro(grid, total_mass=0.5)  # the grid's T: 0.1
    assert state.rho.sum() * grid.dx == pytest.approx(0.5, rel=1e-12)
    assert np.all(state.rho == state.rho[0])
    assert np.all(state.rho_u == 0.0)
    with pytest.raises(ValueError):
        init_macro(grid, total_mass=0.0)


def test_absorbing_boundary_drains_edges():
    grid = Grid1D(0.0, 1.0, 10, T=0.5, boundary="absorbing")
    # at rest in its own potential, so only the vacuum ghosts can move it
    state = hydrostatic_equilibrium(grid, 0.5)
    out = lax_friedrichs_step(state, grid, 0.05, PARAMS, 0.5)
    # vacuum ghosts pull the edge cells down; the interior is untouched
    assert out.rho[0] < state.rho[0] and out.rho[-1] < state.rho[-1]
    np.testing.assert_allclose(out.rho[1:-1], state.rho[1:-1], rtol=0, atol=1e-14)
    assert out.rho.sum() < state.rho.sum()
