"""States a solver derives from one it holds skip the public checks; they must pass them,
and start with nothing formed from the state they came from."""

from dataclasses import fields

import numpy as np
import pytest

from swarmscale import runner
from swarmscale.macro import (BOUNDARIES, Grid1D, MacroState, consensus_point_macro,
                              lax_friedrichs_step)
from swarmscale.micro import MicroParams, SwarmState, step_euler_maruyama
from swarmscale.micromacro import CouplingConfig, init_coupling, transfer_mass


def public(state):
    """The state rebuilt through its public, checked constructor."""
    if isinstance(state, MacroState):
        return MacroState(state.rho, state.rho_u, time=state.time)
    return SwarmState(state.positions, state.velocities, state.particle_mass)


def assert_rebuilds(state):
    again = public(state)
    for f in fields(state):
        if not f.init:
            # no velocity and no consensus memo yet: they belong to the state it came from
            assert getattr(state, f.name) is None, f.name
            continue
        got, want = getattr(state, f.name), getattr(again, f.name)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and got.dtype == want.dtype == np.float64
            assert got.shape == want.shape and np.array_equal(got, want), f.name
        else:
            assert type(got) is type(want) and got == want, f.name
    if isinstance(state, MacroState):
        assert np.array_equal(state.velocity(), again.velocity())


def grid_state(grid, rng):
    rho = rng.uniform(0.0, 0.6, grid.n_cells)
    rho[rng.random(grid.n_cells) < 0.2] = 0.0  # vacuum cells
    return MacroState(rho, rng.normal(0.0, 0.1, grid.n_cells) * (rho > 0), time=0.3)


def swarm_state(rng, n, dim=1):
    return SwarmState(rng.normal(0.0, 1.0, (n, dim)), rng.normal(0.0, 0.5, (n, dim)),
                      particle_mass=0.5 / n)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_a_grid_step_is_what_the_checked_constructor_builds(boundary):
    grid = Grid1D(-2.0, 2.0, 41, boundary=boundary)
    rng = np.random.default_rng(71)
    state = grid_state(grid, rng)
    weights = rng.uniform(0.5, 1.0, grid.n_cells)
    for _ in range(5):
        consensus = consensus_point_macro(state, grid, weights)
        state = lax_friedrichs_step(state, grid, np.inf, MicroParams(), consensus)  # the CFL step
        assert_rebuilds(state)


@pytest.mark.parametrize("step", [1, 4, 5, 6])  # frozen, the snapshot, then active
def test_a_transfer_hands_back_what_the_checked_constructors_build(step):
    grid = Grid1D(-2.0, 2.0, 41)
    rng = np.random.default_rng(73)
    swarm, macro = swarm_state(rng, 40), grid_state(grid, rng)
    coupling = init_coupling(swarm, grid, CouplingConfig(t_star=5))
    consensus_point_macro(macro, grid, np.ones(grid.n_cells))
    _, new_swarm, new_macro = transfer_mass(coupling, swarm, macro, grid, step)
    assert_rebuilds(new_swarm)
    if step < 5:  # frozen: the grid state comes back as it is, with its consensus
        assert new_macro is macro
    else:
        assert_rebuilds(new_macro)


@pytest.mark.parametrize("dim", [1, 3])
def test_a_particle_step_is_what_the_checked_constructor_builds(dim):
    rng = np.random.default_rng(79)
    swarm = swarm_state(rng, 30, dim)
    params = MicroParams()
    for _ in range(3):
        swarm = step_euler_maruyama(swarm, params, np.full(dim, 0.2), rng)
        assert_rebuilds(swarm)


@pytest.mark.parametrize("name", ["ackley1d_macro_constrained",
                                  "rastrigin1d_micromacro_constrained"])
def test_a_grid_step_loaded_from_the_slot_is_what_the_checked_constructor_builds(
        load_bundled, name):
    cfg = load_bundled(name, n_steps=3)
    runner.run_experiment(cfg)  # computes the shared steps
    grid = runner._build_scales(cfg)[-1]
    for n in (1, 2, 3):
        grid.observe()  # the run's consensus on the state before the load
        grid.move(n)
        assert_rebuilds(grid.state)
    assert grid.steps_shared == 3


@pytest.mark.parametrize("cls, args, message", [
    (SwarmState, (np.zeros((3, 2)), np.zeros((2, 2))),
     "positions and velocities must have identical shapes"),
    (SwarmState, (np.zeros((0, 2)), np.zeros((0, 2))), "swarm needs at least one particle"),
    (SwarmState, (np.zeros((3, 2)), np.zeros((3, 2)), -1.0), "particle mass must be nonnegative"),
    (MacroState, (np.ones((2, 3)), np.zeros((2, 3))),
     "rho and rho_u must be 1D arrays of equal length"),
    (MacroState, (np.ones(3), np.zeros(4)), "rho and rho_u must be 1D arrays of equal length"),
])
def test_the_checked_constructors_refuse_a_malformed_state(cls, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(*args)
