"""Scale coupling: cell densities, the zeta weight and conservative transfer."""

from dataclasses import replace

import numpy as np
import pytest

from swarmscale import micromacro as mm
from swarmscale.macro import EPS_RHO, Grid1D, MacroState
from swarmscale.micro import SwarmState
from swarmscale.micromacro import (
    CouplingConfig,
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


@pytest.mark.filterwarnings("error")
def test_a_stray_beyond_the_int64_range_lands_in_the_last_cell():
    # the clamp runs before the cast, so 2**64 is not cast to INT64_MIN and counted in cell 0
    grid = Grid1D(0.0, 5.0, 5)
    far = 1.8446744073709552e19
    swarm = SwarmState([[far], [-far], [2.3]], np.zeros((3, 1)))
    np.testing.assert_array_equal(mm._bin(swarm, grid)[0], [4, 0, 2])
    np.testing.assert_array_equal(micro_cell_density(swarm, grid), [1.0, 0.0, 1.0, 0.0, 1.0])


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
    macro = MacroState(np.array([0.2, 0.3, 0.0, 0.0, 0.0]), np.zeros(5))
    coupling = init_coupling(swarm, grid, CouplingConfig(zeta0=0.5, t_star=0))
    assert compute_zeta(swarm, macro, grid, coupling) == 0.1


def test_zeta_single_occupied_cell_hits_ceiling():
    grid = Grid1D(0.0, 5.0, 5)
    pos, vel = cluster(0.5, 8, velocity=1.0)
    swarm = SwarmState(pos, vel, particle_mass=0.05)
    macro = MacroState(np.array([0.1, 0.4, 0.3, 0.1, 0.1]), np.zeros(5))
    coupling = init_coupling(swarm, grid, CouplingConfig(zeta0=0.5, t_star=0))
    assert compute_zeta(swarm, macro, grid, coupling) == 0.9


def test_zeta_three_cell_fixture():
    grid = Grid1D(0.0, 3.0, 3)
    p0, v0 = cluster(0.5, 2, velocity=0.1)
    p1, v1 = cluster(1.5, 3, velocity=0.5)
    p2, v2 = cluster(2.5, 5, velocity=0.1)
    swarm = SwarmState(np.vstack([p0, p1, p2]), np.vstack([v0, v1, v2]),
                       particle_mass=0.1)
    macro = MacroState(np.array([0.3, 0.2, 0.5]),
                       np.array([0.15, 0.1, -0.25]))
    coupling = init_coupling(swarm, grid, CouplingConfig(zeta0=0.5, t_star=0))
    # by hand: w = (0.4, 0.6, 0.5), d = (0.4, 0.0, 0.6)
    expected = (0.4 * 0.4 + 0.6 * 0.0 + 0.5 * 0.6) / ((0.4 + 0.6 + 0.5) * 0.6)
    assert compute_zeta(swarm, macro, grid, coupling) == pytest.approx(
        expected, abs=1e-12
    )


def test_coupling_state_validation():
    ones = np.ones(3)
    with pytest.raises(ValueError, match="zeta_min"):
        CouplingState(0.5, 1.0, ones, CouplingConfig(zeta_min=0.9, zeta_max=0.1))
    with pytest.raises(ValueError, match="zeta must lie"):
        CouplingState(0.95, 1.0, ones, CouplingConfig())
    with pytest.raises(ValueError, match="positive"):
        CouplingState(0.5, 0.0, ones, CouplingConfig())
    with pytest.raises(ValueError, match="t_star"):
        CouplingState(0.5, 1.0, ones, CouplingConfig(t_star=-1))


def test_init_coupling_reads_swarm_mass():
    grid = Grid1D(0.0, 5.0, 5)
    swarm = two_cell_swarm()
    coupling = init_coupling(swarm, grid, CouplingConfig(zeta0=0.5, t_star=240))
    assert coupling.mu0 == pytest.approx(0.5)
    assert coupling.zeta == 0.5
    assert coupling.rule.t_star == 240
    np.testing.assert_array_equal(
        coupling.rho_m_prev, micro_cell_density(swarm, grid)
    )


# ----------------------------------------------------------------- transfer


def test_transfer_frozen_before_activation():
    grid = Grid1D(0.0, 5.0, 5)
    swarm = two_cell_swarm()
    macro = MacroState(np.array([0.2, 0.3, 0.0, 0.0, 0.0]),
                       np.array([0.0, 0.3, 0.0, 0.0, 0.0]))
    coupling = init_coupling(swarm, grid, CouplingConfig(zeta0=0.5, t_star=240))
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
        # the swarm never moves, so the snapshot init_coupling took is the current histogram
        np.testing.assert_array_equal(
            coupling.rho_m_prev, micro_cell_density(swarm, grid)
        )


def test_frozen_transfers_hand_back_their_inputs_until_the_last_one():
    # only the transfer at t_star - 1 takes the snapshot that the first active one reads
    grid = Grid1D(-3.0, 3.0, 25)
    rng = np.random.default_rng(17)
    swarm = SwarmState(rng.uniform(-3, 3, size=(60, 1)), rng.uniform(-1, 1, size=(60, 1)),
                       particle_mass=0.5 / 60)
    macro = MacroState(np.full(25, 0.5 / 6.0), np.zeros(25))
    start = init_coupling(swarm, grid, CouplingConfig(zeta0=0.5, t_star=5))
    got = ref = (start, swarm, macro)
    for step in range(1, 7):
        # the particles move between transfers, so every histogram differs
        moved = SwarmState(swarm.positions + 0.3 * rng.standard_normal(swarm.positions.shape),
                           rng.uniform(-1, 1, size=swarm.velocities.shape),
                           particle_mass=got[1].particle_mass)
        assert not np.array_equal(micro_cell_density(moved, grid),
                                  micro_cell_density(swarm, grid))
        swarm = moved
        inputs = (got[0], swarm, got[2])
        got = transfer_mass(*inputs, grid, step)
        ref = reference_transfer_mass(ref[0], swarm, ref[2], grid, step)
        if step < 4:
            assert all(out is given for out, given in zip(got, inputs))
        elif step == 4:
            assert got[1] is swarm and got[2] is inputs[2]
            np.testing.assert_array_equal(got[0].rho_m_prev, micro_cell_density(swarm, grid))
    assert got[0].zeta != start.zeta  # the active transfers moved mass
    assert_transfers_equal(got, ref)


def test_transfer_two_step_trace():
    # hand-executed: zeta 0.5 -> 0.4, masses 0.5/0.5 -> 0.2/0.8, then a
    # stationary second step that changes nothing
    grid = Grid1D(0.0, 5.0, 5)
    swarm = two_cell_swarm()
    macro = MacroState(np.array([0.2, 0.3, 0.0, 0.0, 0.0]),
                       np.array([0.0, 0.3, 0.0, 0.0, 0.0]))
    coupling = init_coupling(swarm, grid, CouplingConfig(zeta0=0.5, t_star=0))

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
    macro = MacroState(np.full(25, 0.5 / 6.0), np.zeros(25))
    coupling = init_coupling(swarm, grid, CouplingConfig(zeta0=0.5, t_star=0))
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
    macro = MacroState(np.full(5, 0.01), np.zeros(5))
    coupling = CouplingState(
        zeta=0.5, mu0=10.0, rho_m_prev=np.zeros(5), rule=CouplingConfig(t_star=0)
    )
    with pytest.raises(ValueError, match="cannot rebalance"):
        transfer_mass(coupling, swarm, macro, grid, 0)


def test_transfer_refuses_a_grid_target_of_exactly_zero():
    # at zeta = zeta_min the particles' new mass zeta * mu0 = 1 is all the system holds
    grid = Grid1D(0.0, 4.0, 4)
    pos, vel = cluster(0.5, 4)
    swarm = SwarmState(pos, vel, particle_mass=0.125)
    macro = MacroState(np.full(4, 0.125), np.zeros(4))
    rule = CouplingConfig(zeta0=0.5, zeta_min=0.5, t_star=0)
    coupling = CouplingState(zeta=0.5, mu0=2.0, rho_m_prev=micro_cell_density(swarm, grid),
                             rule=rule)
    assert compute_zeta(swarm, macro, grid, coupling) == rule.zeta_min
    with pytest.raises(ValueError, match="cannot rebalance"):
        transfer_mass(coupling, swarm, macro, grid, 0)


def test_transfer_zero_total_mass_raises():
    grid = Grid1D(0.0, 5.0, 5)
    pos, vel = cluster(0.5, 4)
    swarm = SwarmState(pos, vel, particle_mass=0.0)
    macro = MacroState(np.zeros(5), np.zeros(5))
    coupling = CouplingState(
        zeta=0.5, mu0=1.0, rho_m_prev=np.zeros(5), rule=CouplingConfig(t_star=0)
    )
    with pytest.raises(ValueError, match="total mass"):
        transfer_mass(coupling, swarm, macro, grid, 0)


# ------------------------------------------- the transfer as first written


def reference_compute_zeta(swarm, macro, grid, coupling):
    """compute_zeta as first written: boolean-indexed vbar and max over occupied cells."""
    idx = mm._bin(swarm, grid)[0]
    counts = np.bincount(idx, minlength=grid.n_cells)
    occupied = counts > 0

    vbar = np.zeros(grid.n_cells)
    vsum = np.bincount(idx, weights=swarm.velocities[:, 0], minlength=grid.n_cells)
    vbar[occupied] = vsum[occupied] / counts[occupied]

    d = np.abs(macro.velocity() - vbar)

    rho_m = swarm.particle_mass * counts / grid.dx
    cell_total = rho_m + macro.rho
    w = np.divide(rho_m, cell_total, out=np.zeros_like(rho_m), where=cell_total > 0)

    w_sum = w.sum()
    d_max = d[occupied].max() if occupied.any() else 0.0
    if d_max == 0.0 or w_sum <= 0.0:
        return coupling.rule.zeta_min
    zeta_raw = float(w @ d / (w_sum * d_max))
    return min(max(zeta_raw, coupling.rule.zeta_min), coupling.rule.zeta_max)


def reference_transfer_mass(coupling, swarm, macro, grid, step):
    """transfer_mass as first written: the particles binned three times, states replaced."""
    if step < coupling.rule.t_star:
        frozen = replace(coupling, rho_m_prev=micro_cell_density(swarm, grid))
        return frozen, swarm, macro

    dx = grid.dx
    total_before = swarm.total_mass + macro.rho.sum() * dx
    zeta = reference_compute_zeta(swarm, macro, grid, coupling)
    mu_new = zeta * coupling.mu0
    new_swarm = replace(swarm, particle_mass=mu_new / swarm.n_particles)
    rho_m_new = micro_cell_density(new_swarm, grid)
    delta = rho_m_new - coupling.rho_m_prev

    rho_macro = np.maximum(macro.rho - delta, 0.0)
    target = total_before - mu_new
    got = rho_macro.sum() * dx
    rho_macro = rho_macro * (target / got)

    rho_u = np.where(rho_macro <= EPS_RHO, 0.0, macro.rho_u)
    new_macro = replace(macro, rho=rho_macro, rho_u=rho_u)
    new_coupling = replace(coupling, zeta=zeta, rho_m_prev=rho_m_new)
    return new_coupling, new_swarm, new_macro


def coupled_states(rng, grid, n, spread):
    """A swarm over part of the grid, so many cells are empty, and a grid state
    with vacuum cells, thin cells that still carry momentum, and full ones."""
    pos = rng.normal(rng.uniform(-1.0, 1.0), spread, size=(n, 1))
    vel = rng.normal(0.0, 0.5, size=(n, 1))
    swarm = SwarmState(pos, vel, particle_mass=rng.uniform(0.2, 0.8) / n)
    rho = rng.uniform(0.0, 0.6, grid.n_cells)
    rho[rng.random(grid.n_cells) < 0.2] = 0.0
    thin = rng.random(grid.n_cells) < 0.2
    rho[thin] = rng.uniform(1e-6, 1e-2, thin.sum())  # emptied by a large enough transfer
    mom = rng.normal(0.0, 0.1, grid.n_cells) * (rho > 0)
    return swarm, MacroState(rho, mom, time=0.7)


def assert_transfers_equal(got, ref):
    (c, s, m), (rc, rs, rm) = got, ref
    assert c.zeta == rc.zeta
    assert np.array_equal(c.rho_m_prev, rc.rho_m_prev)
    assert (c.mu0, c.rule) == (rc.mu0, rc.rule)
    assert s.particle_mass == rs.particle_mass
    assert np.array_equal(s.positions, rs.positions)
    assert np.array_equal(s.velocities, rs.velocities)
    assert np.array_equal(m.rho, rm.rho) and np.array_equal(m.rho_u, rm.rho_u)
    assert m.time == rm.time


@pytest.mark.parametrize("spread", [0.01, 0.3, 3.0])  # one cell, a few cells, strays too
def test_zeta_matches_the_reference_body_bit_for_bit(spread):
    grid = Grid1D(-2.0, 2.0, 41)
    rng = np.random.default_rng(59)
    for _ in range(30):
        swarm, macro = coupled_states(rng, grid, int(rng.integers(1, 40)), spread)
        coupling = init_coupling(swarm, grid, CouplingConfig(t_star=0))
        want = reference_compute_zeta(swarm, macro, grid, coupling)
        assert compute_zeta(swarm, macro, grid, coupling) == want
        binned = mm._bin(swarm, grid)
        assert compute_zeta(swarm, macro, grid, coupling, binned=binned) == want


def test_zeta_of_particles_in_one_cell_matches_the_reference():
    grid = Grid1D(0.0, 5.0, 5)
    pos, vel = cluster(2.3, 6, velocity=0.4)
    swarm = SwarmState(pos, vel, particle_mass=0.05)
    for mom in (np.zeros(5), np.full(5, 0.4 * 0.2), np.array([0.0, 0.1, -0.3, 0.0, 0.2])):
        macro = MacroState(np.full(5, 0.2), mom)
        coupling = init_coupling(swarm, grid, CouplingConfig(t_star=0))
        assert compute_zeta(swarm, macro, grid, coupling) == reference_compute_zeta(
            swarm, macro, grid, coupling)


@pytest.mark.parametrize("spread", [0.01, 0.3, 3.0])
def test_transfer_matches_the_reference_body_bit_for_bit(spread):
    grid = Grid1D(-2.0, 2.0, 41)
    rng = np.random.default_rng(61)
    emptied = 0
    for case in range(31):
        subnormal = case == 30
        swarm, macro = coupled_states(rng, grid, 30 if subnormal else int(rng.integers(1, 40)),
                                      spread)
        if subnormal:
            # subnormal cell totals, down to the smallest subnormal, which the weight's
            # divide floors: particles of subnormal mass in cells with no grid density,
            # so each occupied cell weighs 1, and two empty cells of subnormal density
            swarm = replace(swarm, particle_mass=1e-322)
            counts = mm._bin(swarm, grid)[1]
            rho = np.where(counts > 0, 0.0, macro.rho)
            rho[np.flatnonzero(counts == 0)[:2]] = [5e-324, 2.5e-310]
            macro = MacroState(rho, macro.rho_u * (rho > 0), time=macro.time)
        # a snapshot from another swarm makes delta large, so thin cells empty
        other, _ = coupled_states(rng, grid, swarm.n_particles, spread)
        start = replace(init_coupling(swarm, grid, CouplingConfig(t_star=5)),
                        rho_m_prev=micro_cell_density(other, grid))
        for steps in ((5,), (4, 5, 6)):  # at t_star alone, then before, at and after it
            coupling, sw, mac = start, swarm, macro
            for step in steps:
                got = transfer_mass(coupling, sw, mac, grid, step)
                assert_transfers_equal(got, reference_transfer_mass(coupling, sw, mac, grid,
                                                                    step))
                if step < coupling.rule.t_star:
                    assert got[1] is sw and got[2] is mac
                emptied += int(np.sum((got[2].rho <= EPS_RHO) & (mac.rho > EPS_RHO)))
                coupling, sw, mac = got
    assert emptied > 0  # cells the transfer empties were covered


def test_transfer_keeps_momentum_where_it_lowers_the_density():
    # Pins the transcribed rule: rho_u is kept while rho falls, so the cell's
    # velocity grows by the inverse ratio.  Observed on rastrigin1d_micromacro,
    # this is what raises the CFL sub-steps per outer step after t_star; a
    # velocity-preserving rule belongs with the zeta work of ROADMAP item 2, the coupling rule.
    grid = Grid1D(0.0, 5.0, 5)
    swarm = two_cell_swarm()
    macro = MacroState(np.array([0.5, 0.6, 0.5, 0.5, 0.5]),
                       np.array([0.05, 0.06, 0.0, -0.01, 0.01]))
    # mu0 above the swarm's mass: zeta * mu0 moves mass to the particles
    coupling = CouplingState(zeta=0.5, mu0=1.0, rho_m_prev=micro_cell_density(swarm, grid),
                             rule=CouplingConfig(t_star=0))
    _, _, out = transfer_mass(coupling, swarm, macro, grid, 0)
    assert out.rho[0] < macro.rho[0] and out.rho[1] < macro.rho[1]
    assert np.array_equal(out.rho_u, macro.rho_u)
    ratio = out.velocity()[:2] / macro.velocity()[:2]
    np.testing.assert_allclose(ratio, macro.rho[:2] / out.rho[:2], rtol=1e-14)
