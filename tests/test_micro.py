"""Particle updates, consensus point and the smoothed-minimum gap."""

import math

import numpy as np
import pytest

from swarmscale.micro import (
    MicroParams,
    SwarmState,
    consensus_point,
    gibbs_weights,
    init_swarm,
    softmin_gap,
    step_euler_maruyama,
)
from swarmscale.objectives import BallUnion, ObjectiveFunction, PenalizedObjective
from swarmscale.penalty import violation_micro


BETA = 0.0  # plain objectives are unconstrained, so F_beta is the objective at any beta


def plain(name="rastrigin", dim=1):
    return PenalizedObjective(ObjectiveFunction(name, dim))


def naive_consensus(positions, values, alpha):
    # double loop, no stabilization; only valid while alpha*values stays small
    num = np.zeros(positions.shape[1])
    den = 0.0
    for x, v in zip(positions, values):
        w = math.exp(-alpha * v)
        num += w * x
        den += w
    return num / den


def consensus(state, pf, alpha):
    """consensus_point of a swarm, with the Gibbs weights of F_beta at its positions."""
    weights = gibbs_weights(pf.evaluate(state.positions, BETA), alpha)
    return consensus_point(state.positions, weights)


def step(state, params, pf, rng):
    """One step toward the consensus point of the pre-step swarm."""
    return step_euler_maruyama(state, params, consensus(state, pf, params.alpha), rng)


def test_consensus_single_particle():
    state = SwarmState(np.array([[1.0, 2.0]]), np.zeros((1, 2)))
    pf = plain("ackley", 2)
    np.testing.assert_allclose(consensus(state, pf, 30.0), [1.0, 2.0])


def test_consensus_equal_values_midpoint():
    # mirrored abscissae give identical objective values, hence equal weights
    state = SwarmState(np.array([[1.0, 2.0], [-1.0, 2.0]]), np.zeros((2, 2)))
    pf = plain("ackley", 2)
    np.testing.assert_allclose(
        consensus(state, pf, 30.0), [0.0, 2.0], atol=1e-14
    )


def test_consensus_matches_naive_summation():
    rng = np.random.default_rng(42)
    positions = rng.uniform(-0.05, 0.05, size=(5, 1))  # small values, no underflow
    state = SwarmState(positions, np.zeros((5, 1)))
    pf = plain("rastrigin", 1)
    expected = naive_consensus(positions, pf.evaluate(positions, BETA), 30.0)
    np.testing.assert_allclose(
        consensus(state, pf, 30.0), expected, rtol=1e-10
    )


def test_consensus_rejects_nonfinite_objective():
    class Bad:
        def evaluate(self, x, beta):
            out = np.zeros(x.shape[0])
            out[1] = np.nan
            return out

    state = SwarmState(np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(FloatingPointError, match="index 1"):
        consensus(state, Bad(), 30.0)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, float("nan")])
def test_every_gibbs_weighting_rejects_a_nonpositive_alpha(alpha):
    # at alpha = -1 the weights would favor the worst particle
    v = np.array([0.0, 1.0, 5.0])
    with pytest.raises(ValueError, match="alpha must be positive"):
        gibbs_weights(v, alpha)


def reference_gibbs_mean(values, alpha, quantity, mass=1.0):
    """The value-taking weighted mean the particle averages were built on, body for body."""
    values = np.asarray(values, dtype=float)
    weights = np.exp(-alpha * (values - values.min())) * mass
    return weights @ quantity / weights.sum()


def reference_consensus_point(positions, values, alpha):
    return reference_gibbs_mean(values, alpha, positions)


def reference_softmin_gap(values, alpha):
    values = np.asarray(values, dtype=float)
    w = np.exp(-alpha * (values - values.min()))
    return float(-(np.log(w.sum()) - np.log(w.shape[0])) / alpha)


def reference_violation_micro(values, penalty, alpha):
    return float(reference_gibbs_mean(values, alpha, penalty))


def test_weights_once_match_the_value_taking_bodies_bit_for_bit():
    # one weighting serves the consensus, the gap and the violation
    rng = np.random.default_rng(2024)
    for _ in range(300):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 60))
        balls = [(rng.uniform(-2, 2, d), float(rng.uniform(0.05, 1.0))) for _ in range(3)]
        f = ObjectiveFunction(str(rng.choice(["ackley", "rastrigin"])), d)
        pf, beta = PenalizedObjective(f, BallUnion(balls)), float(rng.uniform(0.0, 5.0))
        positions = rng.uniform(-3, 3, size=(n, d))
        values, penalty = pf.evaluate(positions, beta), pf.penalty(positions)
        alpha = float(rng.choice([1.0, 30.0, 100.0, 1e4]))
        weights = gibbs_weights(values, alpha)
        assert np.array_equal(consensus_point(positions, weights),
                              reference_consensus_point(positions, values, alpha))
        assert softmin_gap(weights, alpha) == reference_softmin_gap(values, alpha)
        assert violation_micro(weights, penalty) == reference_violation_micro(values, penalty,
                                                                               alpha)


def test_consensus_shift_invariance_and_hull():
    class Shifted:
        def __init__(self, pf, c):
            self.pf, self.c = pf, c

        def evaluate(self, x, beta):
            return self.pf.evaluate(x, beta) + self.c

    pf = plain("rastrigin", 2)
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        state = SwarmState(rng.uniform(-3, 3, size=(n, 2)), np.zeros((n, 2)))
        x = consensus(state, pf, 30.0)
        y = consensus(state, Shifted(pf, 1e3), 30.0)
        np.testing.assert_allclose(x, y, atol=1e-10)
        assert np.all(x >= state.positions.min(axis=0) - 1e-12)
        assert np.all(x <= state.positions.max(axis=0) + 1e-12)


# ------------------------------------------------------------------ stepping


def test_step_coincident_swarm_is_ballistic():
    # all particles at one point: zero drift, zero noise, m = 1 kills friction
    params = MicroParams(m=1.0, lam=1.0, sigma=0.0, dt=0.1)
    pos = np.ones((3, 2)) * 0.3
    vel = np.array([[1.0, 0.0], [0.0, -2.0], [0.5, 0.5]])
    state = SwarmState(pos.copy(), vel.copy())
    out = step(state, params, plain("ackley", 2), np.random.default_rng(0))
    np.testing.assert_array_equal(out.velocities, vel)
    np.testing.assert_array_equal(out.positions, pos + 0.1 * vel)


def test_step_single_particle_velocity_decay():
    params = MicroParams(m=0.5, lam=1.0, sigma=0.0, dt=0.1)
    state = SwarmState(np.array([[2.0]]), np.array([[3.0]]))
    out = step(state, params, plain(), np.random.default_rng(0))
    c = 0.5 + 0.5 * 0.1
    assert out.velocities[0, 0] == pytest.approx(3.0 * 0.5 / c, rel=1e-14)


def test_step_matches_independent_transcription():
    # replay the exact normal draws, one per component, and redo the update from scratch
    params = MicroParams(m=0.5, lam=1.0, sigma=1.0 / math.sqrt(3.0), dt=0.1, alpha=30.0)
    rng = np.random.default_rng(2024)
    positions = rng.uniform(-0.05, 0.05, size=(3, 2))
    velocities = rng.uniform(-1, 1, size=(3, 2))
    pf = plain("rastrigin", 2)

    seed_state = np.random.default_rng(77)
    out = step(SwarmState(positions.copy(), velocities.copy()), params, pf, seed_state)

    theta = np.random.default_rng(77).standard_normal((3, 2))
    target = naive_consensus(positions, pf.evaluate(positions, BETA), 30.0)
    m, lam, sigma, dt = 0.5, 1.0, 1.0 / math.sqrt(3.0), 0.1
    c = m + (1.0 - m) * dt
    vel2 = np.empty_like(velocities)
    pos2 = np.empty_like(positions)
    for i in range(3):
        r = target - positions[i]
        vel2[i] = (m / c) * velocities[i] + (lam * dt / c) * r \
            + (sigma * math.sqrt(dt) / c) * r * theta[i]
        pos2[i] = positions[i] + dt * vel2[i]
    np.testing.assert_allclose(out.velocities, vel2, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(out.positions, pos2, rtol=1e-12, atol=1e-14)


def reference_step(state, params, target, rng):
    """step_euler_maruyama as first written: the exploration diagonal is r itself."""
    m, lam, sigma, dt = params.m, params.lam, params.sigma, params.dt
    c = m + params.gamma * dt
    r = target - state.positions
    theta = rng.standard_normal(state.positions.shape)
    velocities = (
        (m / c) * state.velocities
        + (lam * dt / c) * r
        + (sigma * math.sqrt(dt) / c) * r * theta
    )
    return state.positions + dt * velocities, velocities


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_step_matches_the_reference_diagonal_bit_for_bit(dim):
    params = MicroParams()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        state = SwarmState(rng.uniform(-3, 3, (n, dim)), rng.normal(0.0, 1.0, (n, dim)))
        target = rng.uniform(-1, 1, dim)
        out = step_euler_maruyama(state, params, target, np.random.default_rng(seed + 100))
        positions, velocities = reference_step(state, params, target,
                                               np.random.default_rng(seed + 100))
        assert np.array_equal(out.positions, positions)
        assert np.array_equal(out.velocities, velocities)


def test_step_determinism():
    params = MicroParams()
    pf = plain("rastrigin", 2)

    def run(seed):
        rng = np.random.default_rng(seed)
        state = init_swarm(32, 2, rng, params.init_box)
        for _ in range(50):
            state = step(state, params, pf, rng)
        return state

    a, b = run(99), run(99)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.velocities, b.velocities)


def test_noiseless_swarm_contracts_to_fixed_point():
    # identical particles keep coinciding; velocity shrinks by m/c each step
    params = MicroParams(m=0.5, lam=1.0, sigma=0.0, dt=0.1)
    ratio = 0.5 / (0.5 + 0.5 * 0.1)
    state = SwarmState(np.full((4, 1), 1.7), np.full((4, 1), -0.9))
    pf = plain()
    rng = np.random.default_rng(0)
    prev_v = -0.9
    for _ in range(100):
        state = step(state, params, pf, rng)
        assert state.velocities[0, 0] == pytest.approx(prev_v * ratio, rel=1e-13)
        prev_v = state.velocities[0, 0]
    assert abs(prev_v) < 1e-4
    # geometric series: the positions have essentially stopped moving
    assert abs(0.1 * prev_v) < 1e-5


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_step_blowup_raises():
    params = MicroParams(m=1.0, lam=1.0, sigma=0.0, dt=10.0)
    state = SwarmState(np.array([[0.0], [2.0]]), np.array([[1.7e308], [1.0]]))
    with pytest.raises(FloatingPointError, match="blew up"):
        step(state, params, plain(), np.random.default_rng(0))


def test_params_validation():
    with pytest.raises(ValueError, match=r"^m: must lie in \(0, 1\]"):
        MicroParams(m=0.0)
    with pytest.raises(ValueError, match=r"^m: must lie in \(0, 1\]"):
        MicroParams(m=1.5)
    with pytest.raises(ValueError, match="^lam: "):
        MicroParams(lam=0.0)
    with pytest.raises(ValueError, match="^dt: "):
        MicroParams(dt=-0.1)
    with pytest.raises(ValueError, match="^alpha: "):
        MicroParams(alpha=0.0)
    assert MicroParams(m=0.3).gamma == pytest.approx(0.7)


def test_init_swarm_box_and_velocities():
    rng = np.random.default_rng(1)
    s = init_swarm(100, 2, rng, box=(-2.0, 2.0), particle_mass=0.25)
    assert s.positions.shape == (100, 2)
    assert np.all(s.positions >= -2.0) and np.all(s.positions <= 2.0)
    assert np.all(s.velocities == 0.0)
    assert s.total_mass == pytest.approx(25.0)


# --------------------------------------------------------------- softmin gap


def test_softmin_gap_single_particle():
    values = plain().evaluate(np.array([[0.7]]), BETA)
    assert softmin_gap(gibbs_weights(values, 30.0), 30.0) == pytest.approx(0.0, abs=1e-15)


def test_softmin_gap_equal_values():
    values = plain().evaluate(np.array([[0.5], [-0.5]]), BETA)
    assert softmin_gap(gibbs_weights(values, 30.0), 30.0) == pytest.approx(0.0, abs=1e-12)


def test_softmin_gap_bounded_and_decreasing_in_alpha():
    rng = np.random.default_rng(21)
    values = plain().evaluate(rng.uniform(-2, 2, size=(100, 1)), BETA)
    gaps = [softmin_gap(gibbs_weights(values, a), a) for a in (10.0, 30.0, 100.0)]
    for g, a in zip(gaps, (10.0, 30.0, 100.0)):
        assert 0.0 <= g <= math.log(100.0) / a + 1e-12
    assert gaps[0] > gaps[1] > gaps[2]
