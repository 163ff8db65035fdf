"""Benchmark functions, feasible-set geometry and the penalized objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def intervals_member(intervals, x):
    return any(lo <= x[0] <= hi for lo, hi in intervals)


def test_membership_distance_consistency():
    # distance vanishes exactly on members, for every set kind, by a membership
    # test written from each set's geometry
    rng = np.random.default_rng(11)
    balls = BallUnion(SIX_BALLS)
    sets = [
        (balls, lambda x: ball_member_axis(balls, x), rng.uniform(-3, 3, size=(10_000, 2))),
        (IntervalUnion(FOUR_INTERVALS), lambda x: intervals_member(FOUR_INTERVALS, x),
         rng.uniform(-3, 3, size=(10_000, 1))),
        (Halfspace1D(-0.5), lambda x: x[0] <= -0.5, rng.uniform(-3, 3, size=(10_000, 1))),
    ]
    for fs, member, pts in sets:
        for x in pts:
            inside = member(x)
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


# ------------------------------------- coordinate loops vs axis reductions
# The (..., d) formulas as reductions over a trailing axis of coordinates
# (and of balls), kept as the reference the coordinate loops must reproduce.


def ackley_axis(x):
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.mean(x**2, axis=-1)))
        - np.exp(np.mean(np.cos(2.0 * np.pi * x), axis=-1))
        + 20.0
        + np.e
    )


def rastrigin_axis(x):
    return 10.0 * x.shape[-1] + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


def ball_arrays(balls):
    """The centers (n_balls, d) and the squared radii (n_balls,) of a ball union's entries."""
    return (np.array([b.center for b in balls.balls]),
            np.array([b.radius_sq for b in balls.balls]))


def ball_sq_axis(balls, x):
    return np.sum((x[..., None, :] - ball_arrays(balls)[0]) ** 2, axis=-1)


def ball_distance_axis(balls, x):
    per_ball = np.maximum(0.0, np.sqrt(ball_sq_axis(balls, x)) - np.sqrt(ball_arrays(balls)[1]))
    return np.min(per_ball, axis=-1)


def ball_member_axis(balls, x):
    return np.any(ball_sq_axis(balls, x) <= ball_arrays(balls)[1], axis=-1)


def random_balls(rng, d, n_balls=6):
    return BallUnion([(rng.uniform(-2, 2, d), r2) for r2 in rng.uniform(0.1, 1.0, n_balls)])


def coordinate_kernels(balls):
    """(name, coordinate loop, axis reference) for every rewritten kernel."""
    return [
        ("ackley", ackley, ackley_axis),
        ("rastrigin", rastrigin, rastrigin_axis),
        ("distance", balls.distance, lambda x: ball_distance_axis(balls, x)),
    ]


@pytest.mark.parametrize("d", range(1, 8))
def test_coordinate_loops_equal_axis_reductions_bit_for_bit(d):
    # numpy sums a contiguous trailing axis shorter than 8 left to right,
    # the order of the coordinate loop, and min / max are exact
    rng = np.random.default_rng(100 + d)
    balls = random_balls(rng, d)
    for shape in [(d,), (1, d), (480, d), (3, 5, d), (0, d)]:
        x = rng.uniform(-3, 3, size=shape)
        for name, kernel, reference in coordinate_kernels(balls):
            got, want = kernel(x), reference(x)
            assert np.shape(got) == shape[:-1], (name, shape)
            assert np.array_equal(got, want), (name, shape)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_a_nan_coordinate_gives_nan_at_that_point_only(d):
    rng = np.random.default_rng(200 + d)
    balls = random_balls(rng, d)
    x = rng.uniform(-3, 3, size=(7, d))
    x[3, d - 1] = np.nan
    finite = np.arange(7) != 3
    for name, kernel, reference in coordinate_kernels(balls):
        got = kernel(x)
        assert np.isnan(got[3]), name
        assert np.array_equal(got[finite], reference(x[finite])), name


# each entry point that reads points, and its dimension
ENTRY_POINTS = {
    "balls": (BallUnion(SIX_BALLS).distance, 2),
    "intervals": (IntervalUnion(FOUR_INTERVALS).distance, 1),
    "halfline": (Halfspace1D(-0.5).distance, 1),
    "objective-1d": (ObjectiveFunction("ackley", 1), 1),
    "objective-2d": (ObjectiveFunction("rastrigin", 2), 2),
    "penalty-unconstrained": (PenalizedObjective(ObjectiveFunction("ackley", 2)).penalty, 2),
}


@pytest.mark.parametrize("entry, n_coords", [
    # the ball cases keep their first ids, the point's dimension alone
    pytest.param(entry, n, id=str(n) if entry == "balls" and n != "0-d" else f"{entry}-{n}")
    for entry, (_, dim) in ENTRY_POINTS.items() for n in [k for k in (1, 2, 3) if k != dim] + ["0-d"]
])
def test_ball_union_rejects_points_of_another_dimension(entry, n_coords):
    """Every entry point refuses (5, n) points with n != d, and a 0-d value."""
    read, _ = ENTRY_POINTS[entry]
    x = np.float64(0.5) if n_coords == "0-d" else np.zeros((5, n_coords))
    with pytest.raises(ValueError, match="dimension mismatch"):
        read(x)


@pytest.mark.parametrize("d", [8, 16, 64])
def test_coordinate_loops_match_pairwise_sums_closely(d):
    # from d = 8 numpy sums in pairwise blocks, so only the last bits may differ
    tol = 16 * d * np.finfo(float).eps
    rng = np.random.default_rng(300 + d)
    balls = random_balls(rng, d)
    x = rng.uniform(-3, 3, size=(2000, d))
    for name, kernel, reference in coordinate_kernels(balls):
        np.testing.assert_allclose(kernel(x), reference(x), rtol=tol, atol=tol, err_msg=name)


def reference_ball_distance(balls, x):
    """BallUnion.distance as it stood with its constants built per call and a clamp per ball,
    frozen as the reference."""
    centers, radii_sq = ball_arrays(balls)
    d = centers.shape[1]
    x = np.asarray(x, dtype=float)
    per_ball = (-1,) + (1,) * (x.ndim - 1)
    sq = (x[..., 0] - centers[:, 0].reshape(per_ball)) ** 2
    for k in range(1, d):
        sq += (x[..., k] - centers[:, k].reshape(per_ball)) ** 2
    radii = np.sqrt(radii_sq).reshape(per_ball)
    return np.maximum(0.0, np.sqrt(sq) - radii).min(axis=0)


@st.composite
def ball_cases(draw):
    """1-6 balls in d in {1, 2, 3} at a scale from 1e-3 to 1e3, and N in {1, 2, 480} points,
    each inside, on or outside a ball: its center plus its radius times 0, 0.5, 1, 1.5 or 4
    along a random direction."""
    d, n = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 2, 480]))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_balls = draw(st.integers(1, 6))
    centers = scale * rng.uniform(-1, 1, (n_balls, d))
    radii = scale * rng.uniform(0.05, 1.0, n_balls)
    balls = BallUnion([(c, r * r) for c, r in zip(centers, radii)])
    which = rng.integers(0, n_balls, n)
    u = rng.normal(size=(n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    reach = radii[which] * rng.choice([0.0, 0.5, 1.0, 1.5, 4.0], n)
    return balls, centers[which] + u * reach[:, None]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(ball_cases())
def test_the_prebuilt_ball_distance_is_the_per_call_one_byte_for_byte(case):
    balls, x = case
    # a stack, one (d,) point and an empty (0, d) stack; a lone point's distance is a float64
    for points in (x, x[0], x[:0]):
        got, want = balls.distance(points), reference_ball_distance(balls, points)
        assert type(got) is type(want)
        assert (got.tobytes(), got.dtype, got.shape) == (want.tobytes(), want.dtype, want.shape)
    assert isinstance(balls.distance(x[0]), np.float64)


# ----------------------------------------------------------- penalized form


def test_penalized_beta_zero_is_plain_objective():
    f = ObjectiveFunction("ackley", 2)
    pf = PenalizedObjective(f, BallUnion(SIX_BALLS))
    rng = np.random.default_rng(1)
    x = rng.uniform(-3, 3, size=(100, 2))
    np.testing.assert_allclose(pf.evaluate(x, 0.0), f(x), rtol=0, atol=0)


def test_penalized_feasible_point_unaffected():
    f = ObjectiveFunction("ackley", 2)
    pf = PenalizedObjective(f, BallUnion(SIX_BALLS))
    x = np.array([1.0, -1.0])
    assert pf.evaluate(x, 7.0) == pytest.approx(f(x), abs=0.0)


def test_penalized_halfline_example():
    f = ObjectiveFunction("ackley", 1)
    pf = PenalizedObjective(f, Halfspace1D(-0.5))
    # objective zero at the origin, distance 0.5, beta 2
    assert pf.evaluate(np.array([0.0]), 2.0) == pytest.approx(1.0, abs=1e-12)


def test_penalized_monotone_in_beta():
    f = ObjectiveFunction("rastrigin", 1)
    fs = Halfspace1D(-0.5)
    rng = np.random.default_rng(9)
    xs = rng.uniform(-0.4, 3.0, size=(200, 1))  # all strictly infeasible
    pf = PenalizedObjective(f, fs)
    lo, hi = pf.evaluate(xs, 1.0), pf.evaluate(xs, 2.5)
    assert np.all(hi > lo)


def test_penalized_no_set_means_no_penalty():
    f = ObjectiveFunction("ackley", 2)
    pf = PenalizedObjective(f, None)
    x = np.array([2.0, 2.0])
    assert pf.penalty(x) == 0.0
    assert pf.evaluate(x, 5.0) == pytest.approx(f(x), abs=0.0)


@pytest.mark.parametrize("beta", [0.0, 2.5])
@pytest.mark.parametrize("kind", ["balls", "intervals", "halfline", None])
def test_parts_recombine_to_evaluate_bit_for_bit(kind, beta):
    dim = 2 if kind == "balls" else 1
    fs = {"balls": BallUnion(SIX_BALLS), "intervals": IntervalUnion(FOUR_INTERVALS),
          "halfline": Halfspace1D(-0.5), None: None}[kind]
    f = ObjectiveFunction("rastrigin", dim)
    pf = PenalizedObjective(f, fs)
    x = np.random.default_rng(17).uniform(-3, 3, size=(50, dim))
    value, penalty = pf.parts(x)
    assert np.array_equal(value, f(x))
    assert np.array_equal(penalty, np.zeros(50) if fs is None else fs.distance(x))
    # the formula F_beta had before the split, so cached parts reproduce it bit for bit
    expected = f(x) if fs is None or beta == 0.0 else f(x) + beta * fs.distance(x)
    assert np.array_equal(pf.combine(value, penalty, beta), pf.evaluate(x, beta))
    assert np.array_equal(pf.evaluate(x, beta), expected)


def test_penalized_rejects_bad_arguments():
    f = ObjectiveFunction("ackley", 1)
    x = np.array([0.5])
    for fs in (None, Halfspace1D(-0.5)):
        with pytest.raises(ValueError, match="^penalty strength beta must be nonnegative$"):
            PenalizedObjective(f, fs).evaluate(x, -1.0)


def test_one_objective_serves_every_beta():
    f = ObjectiveFunction("ackley", 1)
    pf = PenalizedObjective(f, Halfspace1D(-0.5))
    x = np.array([[0.5], [1.5], [-1.0]])  # distances 1, 2 and 0
    dist = pf.penalty(x)
    lo, hi = pf.evaluate(x, 1.0), pf.evaluate(x, 4.0)
    assert hi - lo == pytest.approx(3.0 * dist, rel=1e-12, abs=0.0)
    assert np.array_equal(hi, f(x) + 4.0 * dist)
    assert hi[2] == lo[2] == f(x)[2]  # a feasible point takes no penalty at either beta
    for beta, values in ((1.0, lo), (4.0, hi)):
        assert np.array_equal(pf.combine(*pf.parts(x), beta), values)
