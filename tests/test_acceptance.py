"""End-to-end acceptance runs plus the exact property suite.

The solver runs are stochastic, so the run-level checks are statistical:
fixed seed blocks, loose tolerances, and pass counts with slack.  The
property suite at the bottom is exact and deterministic.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from swarmscale.config import load_config
from swarmscale.macro import (
    Grid1D,
    MacroState,
    cfl_dt,
    lax_friedrichs_step,
    max_wavespeed,
)
from swarmscale.micro import MicroParams, SwarmState, consensus_point, gibbs_weights, softmin_gap
from swarmscale.micromacro import (
    CouplingConfig,
    init_coupling,
    micro_cell_density,
    transfer_mass,
)
from swarmscale.objectives import (
    ObjectiveFunction,
    PenalizedObjective,
    ackley,
)
from swarmscale.penalty import (
    PenaltyConfig,
    PenaltyController,
    violation_macro,
    violation_micro,
)
from swarmscale.runner import run_experiment

SIX_BALLS = [
    ((-0.5, 2.2), 0.4),
    ((1.3, -0.8), 0.2),
    ((1.0, -1.3), 0.1),
    ((1.0, -1.0), 0.1),
    ((2.1, -2.0), 0.65),
    ((-1.0, -2.0), 0.3),
]


def bundled(name):
    return load_config(resources.files("swarmscale.configs") / f"{name}.yaml")


def seeded_runs(cfg, n, tmp_path):
    for k in range(n):
        yield run_experiment(
            replace(cfg, seed=cfg.seed + k, output=str(tmp_path / f"run{k}"))
        )


# ------------------------------------------------------- swarm-only runs


def test_unconstrained_swarm_finds_origin(tmp_path):
    # 20 seeds; at least 18 consensus points end inside the 0.25 box
    cfg = bundled("ackley2d_unconstrained")
    t0 = time.perf_counter()
    hits = 0
    for report in seeded_runs(cfg, 20, tmp_path):
        x = np.asarray(report.summary["final_consensus"]["micro"])
        hits += float(np.abs(x).max()) < 0.25
    elapsed = time.perf_counter() - t0
    assert hits >= 18
    assert elapsed < 10.0


def feasible_minimizer_by_scan():
    # brute force at 1e-3 resolution over every ball of the admissible set
    best_val, best_pt = np.inf, None
    for (cx, cy), r2 in SIX_BALLS:
        r = math.sqrt(r2)
        xs = np.arange(cx - r, cx + r + 1e-3, 1e-3)
        ys = np.arange(cy - r, cy + r + 1e-3, 1e-3)
        gx, gy = np.meshgrid(xs, ys)
        mask = (gx - cx) ** 2 + (gy - cy) ** 2 <= r2
        pts = np.stack([gx[mask], gy[mask]], axis=-1)
        vals = ackley(pts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_pt = float(vals[i]), pts[i]
    return best_pt, best_val


def test_constrained_swarm_lands_on_feasible_minimizer(tmp_path):
    target, _ = feasible_minimizer_by_scan()
    cfg = bundled("ackley2d_constrained")
    fs = cfg.feasible_set

    consensus_ok = beta_ok = 0
    for report in seeded_runs(cfg, 20, tmp_path):
        s = report.summary
        x = np.asarray(s["final_consensus"]["micro"])
        near = float(np.abs(x - target).max()) < 0.25
        feasible = fs.distance(x) < 0.05
        settled = s["final_violation"]["micro"] < 0.05
        consensus_ok += near and feasible and settled
        beta_ok += 3.0 <= s["final_beta"]["micro"] <= 12.0
    assert consensus_ok >= 16
    assert beta_ok >= 16


# --------------------------------------------------------- grid-only run


def test_grid_solver_concentrates_at_feasible_minimizer(tmp_path):
    cfg = bundled("ackley1d_macro_constrained")
    report = run_experiment(replace(cfg, output=str(tmp_path / "macro")))
    dx = (cfg.macro.x_max - cfg.macro.x_min) / cfg.macro.n_cells
    estimate = report.summary["argmin_estimate"][0]
    assert abs(estimate - (-1.0)) <= 2 * dx

    betas = [row["beta"] for row in report.rows]
    assert all(b >= a for a, b in zip(betas, betas[1:]))


def test_grid_peak_holds_over_a_window_of_stop_steps(tmp_path):
    # the result must not rest on one stop step: every step from 400 to 800
    cfg = bundled("ackley1d_macro_constrained")
    report = run_experiment(replace(cfg, n_steps=800, output=str(tmp_path / "macro")))
    dx = (cfg.macro.x_max - cfg.macro.x_min) / cfg.macro.n_cells
    misses = [row["step"] for row in report.rows[400:]
              if abs(row["argmax_center"] - (-1.0)) > 2 * dx]
    assert misses == []


# ------------------------------------------------------ coupled-scale runs


def test_mass_migrates_to_grid_scale(tmp_path):
    cfg = bundled("rastrigin1d_micromacro")
    t_star = cfg.coupling.t_star
    dx = (cfg.macro.x_max - cfg.macro.x_min) / cfg.macro.n_cells

    zeta_ok = trend_ok = hits = 0
    for report in seeded_runs(cfg, 5, tmp_path):
        hits += abs(report.summary["argmin_estimate"][0]) <= 2 * dx
        rows = report.rows
        assert all(0.1 <= row["zeta"] <= 0.9 for row in rows)

        total0 = rows[0]["mass_total"]
        for row in rows:
            assert abs(row["mass_total"] - total0) <= 1e-10 * total0

        zeta_ok += report.summary["final_zeta"] < 0.2

        # the per-step series rattles inside the clamp band, so the claim
        # is about the trend: fit the active window and ask for decay
        steps = np.array([row["step"] for row in rows if row["step"] >= t_star])
        mass = np.array([row["mass_micro"] for row in rows if row["step"] >= t_star])
        slope = np.polyfit(steps, mass, 1)[0]
        trend_ok += slope <= 0.0

    assert zeta_ok >= 4
    assert trend_ok >= 4
    assert hits >= 4


# the bundled stop step 800 is the run of test_mass_migrates_to_grid_scale.  The
# particle share does not stay low: at 3,200 steps final zeta < 0.2 held on only
# 2 of these 5 seeds, so there the argmin alone is claimed
@pytest.mark.parametrize("n_steps, zeta_claimed", [(1600, True), (3200, False)])
def test_free_coupled_run_holds_at_each_stop_step(tmp_path, n_steps, zeta_claimed):
    cfg = replace(bundled("rastrigin1d_micromacro"), n_steps=n_steps)
    dx = (cfg.macro.x_max - cfg.macro.x_min) / cfg.macro.n_cells
    hits = zeta_ok = 0
    for report in seeded_runs(cfg, 5, tmp_path):
        hits += abs(report.summary["argmin_estimate"][0]) <= 2 * dx
        zeta_ok += report.summary["final_zeta"] < 0.2
    assert hits >= 4
    if zeta_claimed:
        assert zeta_ok >= 4


def test_constrained_coupled_run_peaks_near_minimizer(tmp_path):
    cfg = bundled("rastrigin1d_micromacro_constrained")
    dx = (cfg.macro.x_max - cfg.macro.x_min) / cfg.macro.n_cells
    hits = 0
    for report in seeded_runs(cfg, 5, tmp_path):
        estimate = report.summary["argmin_estimate"][0]
        hits += abs(estimate - (-1.0)) <= 2 * dx
    assert hits >= 4


# the bundled stop step 400 is the run of test_constrained_coupled_run_peaks_near_minimizer
@pytest.mark.parametrize("n_steps", [300, 800])
def test_constrained_coupled_peak_holds_at_each_stop_step(tmp_path, n_steps):
    cfg = replace(bundled("rastrigin1d_micromacro_constrained"), n_steps=n_steps)
    dx = (cfg.macro.x_max - cfg.macro.x_min) / cfg.macro.n_cells
    hits = 0
    for report in seeded_runs(cfg, 5, tmp_path):
        estimate = report.summary["argmin_estimate"][0]
        hits += abs(estimate - (-1.0)) <= 2 * dx
    assert hits >= 4


# ---------------------------------------------------------- property suite

PROP_TIMES = {}


@contextmanager
def timed(name):
    t0 = time.perf_counter()
    yield
    PROP_TIMES[name] = time.perf_counter() - t0


def random_swarm(rng):
    n = int(rng.integers(1, 50))
    d = int(rng.integers(1, 3))
    return SwarmState(
        rng.uniform(-3, 3, size=(n, d)), rng.uniform(-1, 1, size=(n, d))
    )


def plain_pf(dim):
    return PenalizedObjective(ObjectiveFunction("rastrigin", dim), None, beta=0.0)


class TestPropertySuite:
    def test_softmin_gap_bound(self):
        rng = np.random.default_rng(1001)
        with timed("softmin"):
            for _ in range(1000):
                state = random_swarm(rng)
                alpha = float(rng.choice([10.0, 30.0, 100.0]))
                values = plain_pf(state.dim).evaluate(state.positions)
                gap = softmin_gap(gibbs_weights(values, alpha), alpha)
                assert 0.0 <= gap <= math.log(state.n_particles) / alpha + 1e-12

    def test_consensus_shift_invariance_and_hull(self):
        class Shifted:
            def __init__(self, pf):
                self.pf = pf

            def evaluate(self, x):
                return self.pf.evaluate(x) + 1e3

        rng = np.random.default_rng(1002)
        with timed("consensus"):
            for _ in range(1000):
                state = random_swarm(rng)
                pf = plain_pf(state.dim)
                x = consensus_point(state.positions,
                                    gibbs_weights(pf.evaluate(state.positions), 30.0))
                y = consensus_point(state.positions,
                                    gibbs_weights(Shifted(pf).evaluate(state.positions), 30.0))
                np.testing.assert_allclose(x, y, atol=1e-10)
                assert np.all(x >= state.positions.min(axis=0) - 1e-12)
                assert np.all(x <= state.positions.max(axis=0) + 1e-12)

    def test_finite_volume_mass_conservation(self):
        grid = Grid1D(-2.0, 2.0, 50, T=0.2, boundary="periodic")
        params = MicroParams(m=0.5, lam=1.0)
        rng = np.random.default_rng(1003)
        state = MacroState(rng.uniform(0.5, 1.5, size=50), np.zeros(50))
        m0 = state.rho.sum() * grid.dx
        with timed("conservation"):
            for _ in range(1000):
                dt = cfl_dt(max_wavespeed(state, grid), grid)
                state = lax_friedrichs_step(state, grid, dt, params, 0.3)
                assert abs(state.rho.sum() * grid.dx - m0) <= 1e-12
                assert np.all(state.rho >= 0.0)

            # the discrete hydrostatic profile C exp(-phi / T^2), u = 0, is a fixed point
            phi = (params.lam / params.m) * 0.5 * (grid.centers - 0.3) ** 2
            rest = MacroState(0.7 * np.exp(-phi / grid.T**2), np.zeros(50))
            out = lax_friedrichs_step(rest, grid, 0.05, params, 0.3)
            np.testing.assert_allclose(out.rho, rest.rho, rtol=0, atol=1e-14)
            np.testing.assert_allclose(out.rho_u, 0.0, rtol=0, atol=1e-14)

    def test_characteristic_speeds_match_eigensolvers(self):
        rng = np.random.default_rng(1004)
        with timed("eigen"):
            for _ in range(1000):
                rho = float(rng.uniform(0.1, 3.0))
                u = float(rng.uniform(-2.0, 2.0))
                T = float(rng.uniform(0.2, 1.5)) * float(rng.choice([-1.0, 1.0]))
                a = np.array([[0.0, 1.0], [T * T - u * u, 2.0 * u]])
                ref = np.max(np.abs(np.linalg.eigvals(a)))
                got = max_wavespeed(MacroState(np.array([rho]), np.array([rho * u])),
                                    Grid1D(T=T))
                assert abs(got - ref) <= 1e-10

            # next moment up: speeds u and u +/- sqrt(3) T for the 3x3 system
            for _ in range(100):
                u = float(rng.uniform(-2.0, 2.0))
                T = float(rng.uniform(0.2, 1.5))
                a = np.array([
                    [0.0, 1.0, 0.0],
                    [-u * u, 2.0 * u, 1.0],
                    [-3.0 * u * T * T, 3.0 * T * T, u],
                ])
                lams = np.linalg.eigvals(a)
                assert np.all(np.abs(lams.imag) < 1e-10)
                ref = np.sort([u, u + math.sqrt(3.0) * T, u - math.sqrt(3.0) * T])
                np.testing.assert_allclose(np.sort(lams.real), ref, atol=1e-10)

    def test_penalty_beta_monotone_and_trace(self):
        rng = np.random.default_rng(1005)
        with timed("penalty"):
            for _ in range(1000):
                kappa0 = float(rng.uniform(1.0, 10.0))  # the first of the four draws
                ctrl = PenaltyController(
                    kappa=float(rng.uniform(1.0, 10.0)),
                    rule=PenaltyConfig(
                        kappa0=kappa0,
                        eta_kappa=float(rng.uniform(1.01, 2.0)),
                        eta_beta=float(rng.uniform(1.01, 2.0)),
                    ),
                )
                prev = ctrl.beta
                for v in rng.uniform(0.0, 2.0, size=30):
                    ctrl = ctrl.update(float(v))
                    assert ctrl.beta >= prev
                    prev = ctrl.beta

            # the hand-executed reference trace with the default constants
            ctrl = PenaltyController()
            violations = [0.0, 0.5, 0.0, 1.0, 1.0]
            expected_beta = [1.0, 1.1, 1.1, 1.1**2, 1.1**3]
            expected_kappa = [5.5, 5.0, 5.5, 5.0, 5.0 / 1.1]
            for v, eb, ek in zip(violations, expected_beta, expected_kappa):
                ctrl = ctrl.update(v)
                assert ctrl.beta == pytest.approx(eb, rel=1e-12)
                assert ctrl.kappa == pytest.approx(ek, rel=1e-12)

    def test_transfer_conservation_and_freeze(self):
        grid = Grid1D(-3.0, 3.0, 25)
        rng = np.random.default_rng(1006)
        with timed("transfer"):
            swarm = SwarmState(
                rng.uniform(-3, 3, size=(60, 1)),
                rng.uniform(-1, 1, size=(60, 1)),
                particle_mass=0.5 / 60,
            )
            macro = MacroState(np.full(25, 0.5 / 6.0), np.zeros(25))
            frozen = init_coupling(swarm, grid, CouplingConfig(zeta0=0.5, t_star=5))
            macro_mass = macro.rho.sum() * grid.dx
            for step in range(5):
                frozen, s_out, m_out = transfer_mass(frozen, swarm, macro, grid, step)
                assert s_out.particle_mass == swarm.particle_mass
                assert m_out.rho.sum() * grid.dx == macro_mass

            coupling = init_coupling(swarm, grid, CouplingConfig(zeta0=0.5, t_star=0))
            total = swarm.total_mass + macro.rho.sum() * grid.dx
            for step in range(20):
                swarm = SwarmState(
                    swarm.positions + 0.1 * rng.standard_normal((60, 1)),
                    rng.uniform(-1, 1, size=(60, 1)),
                    particle_mass=swarm.particle_mass,
                )
                coupling, swarm, macro = transfer_mass(
                    coupling, swarm, macro, grid, step
                )
                now = swarm.total_mass + macro.rho.sum() * grid.dx
                assert abs(now - total) <= 1e-10 * total
                assert abs(swarm.total_mass - coupling.zeta * coupling.mu0) <= 1e-12

    def test_brute_force_oracle_equivalence(self):
        rng = np.random.default_rng(1007)
        with timed("oracles"):
            # consensus point vs unstabilized double loop
            positions = rng.uniform(-0.05, 0.05, size=(5, 2))
            pf = plain_pf(2)
            vals = pf.evaluate(positions)
            num, den = np.zeros(2), 0.0
            for x, v in zip(positions, vals):
                w = math.exp(-30.0 * v)
                num += w * x
                den += w
            np.testing.assert_allclose(
                consensus_point(positions, gibbs_weights(vals, 30.0)), num / den, atol=1e-10
            )

            # microscopic violation vs double loop
            from swarmscale.objectives import Halfspace1D

            cpf = PenalizedObjective(
                ObjectiveFunction("rastrigin", 1), Halfspace1D(-0.5), beta=1.0
            )
            pos1 = rng.uniform(-0.55, -0.45, size=(5, 1))
            num = den = 0.0
            for x in pos1:
                w = math.exp(-30.0 * float(cpf.evaluate(x)))
                num += w * float(cpf.penalty(x))
                den += w
            got = violation_micro(gibbs_weights(cpf.evaluate(pos1), 30.0), cpf.penalty(pos1))
            assert got == pytest.approx(num / den, abs=1e-10)

            # macroscopic violation vs cellwise summation
            grid = Grid1D(-1.0, 1.0, 11)
            rho = rng.uniform(0.1, 1.0, size=11)
            mstate = MacroState(rho, np.zeros(11))
            num = den = 0.0
            for x, r in zip(grid.centers, rho):
                xv = np.array([x])
                w = math.exp(-3.0 * float(cpf.evaluate(xv))) * r
                num += w * float(cpf.penalty(xv))
                den += w
            centers = grid.centers[:, None]
            got = violation_macro(mstate, gibbs_weights(cpf.evaluate(centers), 3.0),
                                  cpf.penalty(centers))
            assert got == pytest.approx(num / den, abs=1e-10)

            # cell density vs per-particle interval scan
            pos2 = rng.uniform(-1.2, 1.2, size=(10, 1))
            sw2 = SwarmState(pos2, np.zeros((10, 1)), particle_mass=0.3)
            counts = np.zeros(11)
            for x in pos2[:, 0]:
                # strays beyond the domain count toward the boundary cell
                if x < grid.x_min:
                    counts[0] += 1
                elif x >= grid.x_max:
                    counts[-1] += 1
                else:
                    for j in range(11):
                        lo = grid.x_min + j * grid.dx
                        if lo <= x < lo + grid.dx:
                            counts[j] += 1
                            break
            np.testing.assert_allclose(
                micro_cell_density(sw2, grid),
                0.3 * counts / grid.dx,
                atol=1e-10,
            )

            # one finite-volume step vs a face-by-face transcription
            g5 = Grid1D(0.0, 5.0, 5, T=0.2, boundary="periodic")
            params = MicroParams(m=0.5, lam=1.0)
            rho5 = np.array([1.0, 1.2, 0.9, 1.1, 1.0])
            mom5 = np.array([0.05, -0.02, 0.0, 0.03, -0.01])
            out = lax_friedrichs_step(MacroState(rho5, mom5), g5, 0.5, params, 2.3)
            phi = [(x - 2.3) ** 2 for x in g5.centers]
            rho_ref, mom_ref = list(rho5), [0.5 * q for q in mom5]  # after friction
            for i in range(5):
                j = (i + 1) % 5
                top = max(phi[i], phi[j])
                r_i = rho5[i] * math.exp(-(top - phi[i]) / 0.04)
                r_j = rho5[j] * math.exp(-(top - phi[j]) / 0.04)
                u_i, u_j = mom5[i] / rho5[i], mom5[j] / rho5[j]
                a = max(abs(u_i), abs(u_j)) + 0.2
                f_rho = 0.5 * (r_i * u_i + r_j * u_j - a * (r_j - r_i))
                f_mom = 0.5 * (r_i * u_i**2 + r_j * u_j**2 + 0.04 * (r_i + r_j)
                               - a * (r_j * u_j - r_i * u_i))
                rho_ref[i] -= 0.5 * f_rho
                rho_ref[j] += 0.5 * f_rho
                mom_ref[i] -= 0.5 * (f_mom + 0.04 * (rho5[i] - r_i))
                mom_ref[j] += 0.5 * (f_mom + 0.04 * (rho5[j] - r_j))
            np.testing.assert_allclose(out.rho, rho_ref, atol=1e-10)
            np.testing.assert_allclose(out.rho_u, mom_ref, atol=1e-10)

    def test_property_suite_within_budget(self):
        if len(PROP_TIMES) < 7:
            pytest.skip("budget is judged over the full property suite")
        assert sum(PROP_TIMES.values()) < 60.0
