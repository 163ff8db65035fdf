"""Benchmark functions, feasible-set geometry and the penalized objective."""

import math

import numpy as np
import pytest

from swarmscale.objectives import (
    BallUnion,
    Halfspace1D,
    IntervalUnion,
    ObjectiveFunction,
    PenalizedObjective,
    ackley,
    rastrigin,
)

# the constrained experiment geometries, restated here as plain data
SIX_BALLS = [
    ((-0.5, 2.2), 0.4),
    ((1.3, -0.8), 0.2),
    ((1.0, -1.3), 0.1),
    ((1.0, -1.0), 0.1),
    ((2.1, -2.0), 0.65),
    ((-1.0, -2.0), 0.3),
]
FOUR_INTERVALS = [(-1.8, -1.6), (-1.2, -0.8), (1.1, 1.3), (1.7, 1.9)]


def ackley_scalar(x):
    # independent transcription with math-module scalars only
    d = len(x)
    sq = sum(v * v for v in x) / d
    cs = sum(math.cos(2.0 * math.pi * v) for v in x) / d
    return (
        -20.0 * math.exp(-0.2 * math.sqrt(sq))
        - math.exp(cs)
        + 20.0
        + math.e
    )


def rastrigin_scalar(x):
    return 10.0 * len(x) + sum(
        v * v - 10.0 * math.cos(2.0 * math.pi * v) for v in x
    )


def test_minima_at_origin():
    assert ackley(np.zeros(2)) == pytest.approx(0.0, abs=1e-14)
    assert rastrigin(np.zeros(1)) == pytest.approx(0.0, abs=1e-14)


def test_ackley_matches_scalar_transcription():
    pts = [(1.0, 1.0), (0.3, -0.7), (-2.5, 1.25), (0.0, 2.0)]
    for p in pts:
        assert ackley(np.array(p)) == pytest.approx(ackley_scalar(p), abs=1e-12)


def test_rastrigin_matches_scalar_transcription():
    for p in [(1.0,), (0.5, -0.5), (-2.0, 1.0, 0.25)]:
        assert rastrigin(np.array(p)) == pytest.approx(rastrigin_scalar(p), abs=1e-12)


def test_objective_function_wrapper_validates():
    f = ObjectiveFunction("ackley", 2)
    assert f(np.zeros(2)) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        f(np.zeros(3))
    with pytest.raises(ValueError):
        ObjectiveFunction("sphere", 2)
    with pytest.raises(ValueError):
        ObjectiveFunction("ackley", 0)


def test_objective_vectorized_batch():
    f = ObjectiveFunction("rastrigin", 2)
    batch = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, -1.0]])
    vals = f(batch)
    assert vals.shape == (3,)
    for row, v in zip(batch, vals):
        assert v == pytest.approx(rastrigin_scalar(tuple(row)), abs=1e-12)


def test_sign_flip_symmetry():
    rng = np.random.default_rng(7)
    x = rng.uniform(-3, 3, size=(50, 3))
    for f in (ackley, rastrigin):
        base = f(x)
        for k in range(3):
            flipped = x.copy()
            flipped[:, k] *= -1.0
            np.testing.assert_allclose(f(flipped), base, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- distances


def test_distance_zero_inside_every_set():
    balls = BallUnion(SIX_BALLS)
    intervals = IntervalUnion(FOUR_INTERVALS)
    half = Halfspace1D(-0.5)
    assert balls.distance(np.array([1.0, -1.0])) == 0.0  # a ball center
    assert intervals.distance(np.array([-1.0])) == 0.0
    assert half.distance(np.array([-2.0])) == 0.0


def test_interval_distance_from_origin():
    # nearest feasible point to 0 is the endpoint -0.8
    intervals = IntervalUnion(FOUR_INTERVALS)
    d = intervals.distance(np.array([0.0]))
    assert d == pytest.approx(0.8, abs=1e-12)

    # dense scan over feasible points at 1e-5 resolution
    ys = np.concatenate([np.arange(lo, hi + 1e-5, 1e-5) for lo, hi in FOUR_INTERVALS])
    assert d == pytest.approx(np.abs(ys - 0.0).min(), abs=2e-5)


def test_ball_distance_vertical_probe():
    ball = BallUnion([((-0.5, 2.2), 0.4)])
    x = np.array([-0.5, 4.2])
    d = ball.distance(x)
    assert d == pytest.approx(2.0 - math.sqrt(0.4), abs=1e-12)

    # polar scan of the disk: radii and angles fine enough for 1e-3 arcs
    radius = math.sqrt(0.4)
    rr = np.arange(0.0, radius + 1e-3, 1e-3)
    tt = np.linspace(0.0, 2.0 * np.pi, 4000, endpoint=False)
    px = -0.5 + np.outer(rr, np.cos(tt)).ravel()
    py = 2.2 + np.outer(rr, np.sin(tt)).ravel()
    scan = np.sqrt((px - x[0]) ** 2 + (py - x[1]) ** 2).min()
    assert d == pytest.approx(scan, abs=2e-3)


def test_halfline_distance():
    half = Halfspace1D(-0.5)
    assert half.distance(np.array([0.25])) == pytest.approx(0.75, abs=1e-12)
    assert half.distance(np.array([-0.5])) == 0.0


def test_membership_distance_consistency():
    # distance vanishes exactly on members, for every set kind
    rng = np.random.default_rng(11)
    sets = [
        (BallUnion(SIX_BALLS), rng.uniform(-3, 3, size=(10_000, 2))),
        (IntervalUnion(FOUR_INTERVALS), rng.uniform(-3, 3, size=(10_000, 1))),
        (Halfspace1D(-0.5), rng.uniform(-3, 3, size=(10_000, 1))),
    ]
    for fs, pts in sets:
        for x in pts:
            inside = fs.member(x)
            d = fs.distance(x)
            assert inside == (d <= 1e-12)


def test_distance_matches_grid_oracle():
    # brute-force nearest feasible point on a fine 1d grid
    rng = np.random.default_rng(3)
    res = 1e-3
    ys_int = np.concatenate(
        [np.arange(lo, hi + res, res) for lo, hi in FOUR_INTERVALS]
    )
    ys_half = np.arange(-6.0, -0.5 + res, res)
    intervals = IntervalUnion(FOUR_INTERVALS)
    half = Halfspace1D(-0.5)
    for x in rng.uniform(-4, 4, size=100):
        assert intervals.distance(np.array([x])) == pytest.approx(
            np.abs(ys_int - x).min(), abs=2 * res
        )
        assert half.distance(np.array([x])) == pytest.approx(
            np.abs(ys_half - x).min() if x > -0.5 else 0.0, abs=2 * res
        )


def test_ball_union_distance_matches_pointwise_min():
    balls = BallUnion(SIX_BALLS)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-3, 3, size=(200, 2)):
        expected = min(
            max(0.0, math.dist(x, c) - math.sqrt(r2)) for c, r2 in SIX_BALLS
        )
        assert balls.distance(x) == pytest.approx(expected, abs=1e-12)


# ----------------------------------------------------------- penalized form


def test_penalized_beta_zero_is_plain_objective():
    f = ObjectiveFunction("ackley", 2)
    pf = PenalizedObjective(f, BallUnion(SIX_BALLS), beta=0.0)
    rng = np.random.default_rng(1)
    x = rng.uniform(-3, 3, size=(100, 2))
    np.testing.assert_allclose(pf.evaluate(x), f(x), rtol=0, atol=0)


def test_penalized_feasible_point_unaffected():
    f = ObjectiveFunction("ackley", 2)
    pf = PenalizedObjective(f, BallUnion(SIX_BALLS), beta=7.0)
    x = np.array([1.0, -1.0])
    assert pf.evaluate(x) == pytest.approx(f(x), abs=0.0)


def test_penalized_halfline_example():
    f = ObjectiveFunction("ackley", 1)
    pf = PenalizedObjective(f, Halfspace1D(-0.5), beta=2.0)
    # objective zero at the origin, distance 0.5, beta 2
    assert pf.evaluate(np.array([0.0])) == pytest.approx(1.0, abs=1e-12)


def test_penalized_monotone_in_beta():
    f = ObjectiveFunction("rastrigin", 1)
    fs = Halfspace1D(-0.5)
    rng = np.random.default_rng(9)
    xs = rng.uniform(-0.4, 3.0, size=(200, 1))  # all strictly infeasible
    lo = PenalizedObjective(f, fs, beta=1.0).evaluate(xs)
    hi = PenalizedObjective(f, fs, beta=2.5).evaluate(xs)
    assert np.all(hi > lo)


def test_penalized_no_set_means_no_penalty():
    f = ObjectiveFunction("ackley", 2)
    pf = PenalizedObjective(f, None, beta=5.0)
    x = np.array([2.0, 2.0])
    assert pf.penalty(x) == 0.0
    assert pf.evaluate(x) == pytest.approx(f(x), abs=0.0)


def test_penalized_rejects_bad_arguments():
    f = ObjectiveFunction("ackley", 1)
    with pytest.raises(ValueError):
        PenalizedObjective(f, None, beta=-1.0)


def test_with_beta_returns_updated_copy():
    f = ObjectiveFunction("ackley", 1)
    pf = PenalizedObjective(f, Halfspace1D(-0.5), beta=1.0)
    pf2 = pf.with_beta(4.0)
    assert pf.beta == 1.0 and pf2.beta == 4.0
    x = np.array([0.5])
    assert pf2.evaluate(x) == pytest.approx(f(x) + 4.0 * 1.0, rel=1e-12)
