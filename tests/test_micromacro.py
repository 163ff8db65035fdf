"""Scale coupling: cell densities, the zeta weight and conservative transfer."""

import numpy as np
import pytest

from swarmscale.macro import Grid1D, MacroState
from swarmscale.micro import SwarmState
from swarmscale.micromacro import (
    CouplingState,
    compute_zeta,
    init_coupling,
    micro_cell_density,
    transfer_mass,
)


def cluster(center, n, spread=0.05, velocity=0.0):
    # n particles huddled inside one cell, all with the same velocity
    xs = center + spread * (np.arange(n) - (n - 1) / 2.0) / max(n, 2)
    return xs[:, None], np.full((n, 1), velocity)


def two_cell_swarm():
    # 6 particles in cell 0 and 4 in cell 1 of a unit grid, all at rest
    p0, v0 = cluster(0.5, 6)
    p1, v1 = cluster(1.5, 4)
    return SwarmState(np.vstack([p0, p1]), np.vstack([v0, v1]), particle_mass=0.05)


# -------------------------------------------------------------- cell density


def test_density_single_cell():
    grid = Grid1D(0.0, 5.0, 5)
    pos, vel = cluster(2.3, 5)
    swarm = SwarmState(pos, vel, particle_mass=0.1)
    rho = micro_cell_density(swarm, grid)
    np.testing.assert_array_equal(rho, [0.0, 0.0, 0.5, 0.0, 0.0])


def test_density_zero_mass():
    grid = Grid1D(0.0, 5.0, 5)
    pos, vel = cluster(2.3, 5)
    rho = micro_cell_density(SwarmState(pos, vel, particle_mass=0.0), grid)
    np.testing.assert_array_equal(rho, np.zeros(5))


def test_density_matches_bin_scan():
    grid = Grid1D(-2.0, 2.0, 11)
    rng = np.random.default_rng(43)
    pos = rng.uniform(-2.5, 2.5, size=(10, 1))  # some strays past the edges
    swarm = SwarmState(pos, np.zeros((10, 1)), particle_mass=0.3)
    rho = micro_cell_density(swarm, grid)

    counts = np.zeros(11)
    for x in pos[:, 0]:
        placed = False
        for j in range(11):
            lo = grid.x_min + j * grid.dx
            if lo <= x < lo + grid.dx:
                counts[j] += 1
                placed = True
                break
        if not placed:  # stray: nearest boundary cell
            counts[0 if x < grid.x_min else 10] += 1
    np.testing.assert_allclose(rho, 0.3 * counts / grid.dx, rtol=1e-14)
    assert rho.sum() * grid.dx == pytest.approx(swarm.total_mass, rel=1e-14)


def test_density_integral_exact_on_unit_cells():
    grid = Grid1D(0.0, 11.0, 11)  # dx = 1: the normalization is exact
    rng = np.random.default_rng(3)
    pos = rng.uniform(0.0, 11.0, size=(40, 1))
    swarm = SwarmState(pos, np.zeros((40, 1)), particle_mass=0.025)
    rho = micro_cell_density(swarm, grid)
    assert rho.sum() * grid.dx == swarm.total_mass


def test_density_requires_1d():
    grid = Grid1D(0.0, 5.0, 5)
    swarm = SwarmState(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="1D"):
        micro_cell_density(swarm, grid)


# --------------------------------------------------------------------- zeta


def test_zeta_matched_velocities_hits_floor():
    grid = Grid1D(0.0, 5.0, 5)
    swarm = two_cell_swarm()  # all particle velocities zero
    macro = MacroState(np.array([0.2, 0.3, 0.0, 0.0, 0.0]), np.zeros(5), T=0.1)
    coupling = init_coupling(swarm, grid, zeta0=0.5, t_star=0)
    assert compute_zeta(swarm, macro, grid, coupling) == 0.1


def test_zeta_single_occupied_cell_hits_ceiling():
    grid = Grid1D(0.0, 5.0, 5)
    pos, vel = cluster(0.5, 8, velocity=1.0)
    swarm = SwarmState(pos, vel, particle_mass=0.05)
    macro = MacroState(np.array([0.1, 0.4, 0.3, 0.1, 0.1]), np.zeros(5), T=0.1)
    coupling = init_coupling(swarm, grid, zeta0=0.5, t_star=0)
    assert compute_zeta(swarm, macro, grid, coupling) == 0.9


def test_zeta_three_cell_fixture():
    grid = Grid1D(0.0, 3.0, 3)
    p0, v0 = cluster(0.5, 2, velocity=0.1)
    p1, v1 = cluster(1.5, 3, velocity=0.5)
    p2, v2 = cluster(2.5, 5, velocity=0.1)
    swarm = SwarmState(np.vstack([p0, p1, p2]), np.vstack([v0, v1, v2]),
                       particle_mass=0.1)
    macro = MacroState(np.array([0.3, 0.2, 0.5]),
                       np.array([0.15, 0.1, -0.25]), T=0.1)
    coupling = init_coupling(swarm, grid, zeta0=0.5, t_star=0)
    # by hand: w = (0.4, 0.6, 0.5), d = (0.4, 0.0, 0.6)
    expected = (0.4 * 0.4 + 0.6 * 0.0 + 0.5 * 0.6) / ((0.4 + 0.6 + 0.5) * 0.6)
    assert compute_zeta(swarm, macro, grid, coupling) == pytest.approx(
        expected, abs=1e-12
    )


def test_coupling_state_validation():
    ones = np.ones(3)
    with pytest.raises(ValueError, match="zeta_min"):
        CouplingState(0.5, 1.0, ones, 0, zeta_min=0.9, zeta_max=0.1)
    with pytest.raises(ValueError, match="zeta must lie"):
        CouplingState(0.95, 1.0, ones, 0)
    with pytest.raises(ValueError, match="positive"):
        CouplingState(0.5, 0.0, ones, 0)
    with pytest.raises(ValueError, match="t_star"):
        CouplingState(0.5, 1.0, ones, -1)


def test_init_coupling_reads_swarm_mass():
    grid = Grid1D(0.0, 5.0, 5)
    swarm = two_cell_swarm()
    coupling = init_coupling(swarm, grid, zeta0=0.5, t_star=240)
    assert coupling.mu0 == pytest.approx(0.5)
    assert coupling.zeta == 0.5
    assert coupling.t_star == 240
    np.testing.assert_array_equal(
        coupling.rho_m_prev, micro_cell_density(swarm, grid)
    )


# ----------------------------------------------------------------- transfer


def test_transfer_frozen_before_activation():
    grid = Grid1D(0.0, 5.0, 5)
    swarm = two_cell_swarm()
    macro = MacroState(np.array([0.2, 0.3, 0.0, 0.0, 0.0]),
                       np.array([0.0, 0.3, 0.0, 0.0, 0.0]), T=0.1)
    coupling = init_coupling(swarm, grid, zeta0=0.5, t_star=240)
    macro_mass = macro.rho.sum() * grid.dx

    for step in (0, 1, 239):
        coupling, swarm_out, macro_out = transfer_mass(
            coupling, swarm, macro, grid, step
        )
        assert swarm_out is swarm
        assert macro_out is macro
        assert swarm_out.particle_mass == 0.05
        assert macro_out.rho.sum() * grid.dx == macro_mass
        assert coupling.zeta == 0.5
        # the snapshot tracks the current histogram while everything is frozen
        np.testing.assert_array_equal(
            coupling.rho_m_prev, micro_cell_density(swarm, grid)
        )


def test_transfer_two_step_trace():
    # hand-executed: zeta 0.5 -> 0.4, masses 0.5/0.5 -> 0.2/0.8, then a
    # stationary second step that changes nothing
    grid = Grid1D(0.0, 5.0, 5)
    swarm = two_cell_swarm()
    macro = MacroState(np.array([0.2, 0.3, 0.0, 0.0, 0.0]),
                       np.array([0.0, 0.3, 0.0, 0.0, 0.0]), T=0.1)
    coupling = init_coupling(swarm, grid, zeta0=0.5, t_star=0)

    coupling, swarm, macro = transfer_mass(coupling, swarm, macro, grid, step=0)
    assert coupling.zeta == pytest.approx(0.4, abs=1e-12)
    assert swarm.total_mass == pytest.approx(0.2, abs=1e-12)
    assert swarm.particle_mass == pytest.approx(0.02, abs=1e-14)
    np.testing.assert_allclose(
        micro_cell_density(swarm, grid), [0.12, 0.08, 0.0, 0.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        macro.rho, [0.38, 0.42, 0.0, 0.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        macro.rho_u, [0.0, 0.3, 0.0, 0.0, 0.0], atol=1e-12
    )
    total = swarm.total_mass + macro.rho.sum() * grid.dx
    assert total == pytest.approx(1.0, rel=1e-12)

    # second activated step: same velocities, same densities, same split
    coupling2, swarm2, macro2 = transfer_mass(coupling, swarm, macro, grid, step=1)
    assert coupling2.zeta == pytest.approx(0.4, abs=1e-12)
    assert swarm2.particle_mass == pytest.approx(0.02, abs=1e-14)
    np.testing.assert_allclose(macro2.rho, macro.rho, atol=1e-13)
    total2 = swarm2.total_mass + macro2.rho.sum() * grid.dx
    assert total2 == pytest.approx(1.0, rel=1e-12)


def test_transfer_mu_tracking_and_conservation_along_a_run():
    grid = Grid1D(-3.0, 3.0, 25)
    rng = np.random.default_rng(11)
    pos = rng.uniform(-3, 3, size=(60, 1))
    vel = rng.uniform(-1, 1, size=(60, 1))
    swarm = SwarmState(pos, vel, particle_mass=0.5 / 60)
    macro = MacroState(np.full(25, 0.5 / 6.0), np.zeros(25), T=0.1)
    coupling = init_coupling(swarm, grid, zeta0=0.5, t_star=0)
    total = swarm.total_mass + macro.rho.sum() * grid.dx

    for step in range(10):
        # wander the particles so the histogram keeps changing
        swarm = SwarmState(
            swarm.positions + 0.1 * rng.standard_normal(swarm.positions.shape),
            rng.uniform(-1, 1, size=swarm.velocities.shape),
            particle_mass=swarm.particle_mass,
        )
        coupling, swarm, macro = transfer_mass(coupling, swarm, macro, grid, step)
        assert 0.1 <= coupling.zeta <= 0.9
        assert abs(swarm.total_mass - coupling.zeta * coupling.mu0) <= 1e-12
        now = swarm.total_mass + macro.rho.sum() * grid.dx
        assert abs(now - total) <= 1e-10 * total
        assert np.all(macro.rho >= 0.0)


def test_transfer_rebalance_failure_raises():
    # bookkeeping demands more microscopic mass than the system holds
    grid = Grid1D(0.0, 5.0, 5)
    pos, vel = cluster(0.5, 4, velocity=1.0)
    swarm = SwarmState(pos, vel, particle_mass=0.01)
    macro = MacroState(np.full(5, 0.01), np.zeros(5), T=0.1)
    coupling = CouplingState(
        zeta=0.5, mu0=10.0, rho_m_prev=np.zeros(5), t_star=0
    )
    with pytest.raises(ValueError, match="cannot rebalance"):
        transfer_mass(coupling, swarm, macro, grid, 0)


def test_transfer_zero_total_mass_raises():
    grid = Grid1D(0.0, 5.0, 5)
    pos, vel = cluster(0.5, 4)
    swarm = SwarmState(pos, vel, particle_mass=0.0)
    macro = MacroState(np.zeros(5), np.zeros(5), T=0.1)
    coupling = CouplingState(
        zeta=0.5, mu0=1.0, rho_m_prev=np.zeros(5), t_star=0
    )
    with pytest.raises(ValueError, match="total mass"):
        transfer_mass(coupling, swarm, macro, grid, 0)
