"""Capacity estimator: norms, lengths, calibration, and invariances."""
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mahlerlab import bodies as B
from mahlerlab import capacity as C
from mahlerlab import symplectic as SY
from mahlerlab.verify import random_rational_normal


# The body norm sup { omega(v, z) : z in S } is h_S(Jv), S.support(SY.j_rotate(v)).


def test_body_norm_ball_is_euclidean(rng):
    ball = B.LpBallBody(2.0, 4)
    V = rng.normal(size=(20, 4))
    assert np.allclose(ball.support(SY.j_rotate(V)), np.linalg.norm(V, axis=1), rtol=1e-12)


def test_body_norm_square_vertex_oracle(rng):
    # S = [-1,1]^2 at n = 1: brute-force sup of omega(v, z) over the vertices
    square = B.lagrangian_product(B.PolytopeBody.cube(1))
    verts = [np.array(v, float) for v in
             [(1, 1), (1, -1), (-1, 1), (-1, -1)]]
    for _ in range(20):
        v = rng.normal(size=2)
        oracle = max(v[0] * z[1] - z[0] * v[1] for z in verts)
        assert math.isclose(float(square.support(SY.j_rotate(v))), oracle, rel_tol=1e-12)
        assert math.isclose(float(square.support(SY.j_rotate(v))), abs(v[0]) + abs(v[1]),
                            rel_tol=1e-12)


def test_body_norm_homogeneity(rng):
    S = B.lagrangian_product(B.PolytopeBody.cross(2))
    v = rng.normal(size=4)
    assert math.isclose(float(S.support(SY.j_rotate(2 * v))),
                        2 * float(S.support(SY.j_rotate(v))), rel_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
)
def test_body_norm_is_a_norm(v, w):
    S = B.lagrangian_product(B.PolytopeBody.cross(2))
    v = np.array(v)
    w = np.array(w)
    nv = float(S.support(SY.j_rotate(v)))
    nw = float(S.support(SY.j_rotate(w)))
    ns = float(S.support(SY.j_rotate(v + w)))
    assert ns <= nv + nw + 1e-9  # triangle inequality
    assert abs(float(S.support(SY.j_rotate(-v))) - nv) <= 1e-12  # symmetry
    assert nv >= 0.0


def _loop_length(S, loop):
    """Sum of the body norms of a closed polygon's edges."""
    verts = np.asarray(loop, dtype=float)
    return float(np.sum(S.support(SY.j_rotate(np.roll(verts, -1, axis=0) - verts))))


def test_loop_length_circle():
    ball = B.LpBallBody(2.0, 4)
    th = 2 * np.pi * np.arange(256) / 256
    loop = np.zeros((256, 4))
    loop[:, 0] = -np.sin(th)
    loop[:, 2] = np.cos(th)
    assert abs(_loop_length(ball, loop) - 2 * math.pi) < 1e-3
    assert math.isclose(_loop_length(ball, 3 * loop),
                        3 * _loop_length(ball, loop), rel_tol=1e-12)


def test_loop_length_diamond_in_square_norm():
    square = B.lagrangian_product(B.PolytopeBody.cube(1))
    diamond = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)], float)
    # per-edge oracle: each edge has l1 norm 2
    assert _loop_length(square, diamond) == 8.0


def test_polygonal_loop_validation():
    with pytest.raises(B.BodyError):
        C.PolygonalLoop(np.zeros((3, 4)))
    with pytest.raises(B.BodyError):
        C.PolygonalLoop(np.ones((6, 4)), symmetric=True)  # not antisymmetric
    half = np.arange(8.0).reshape(2, 4)
    loop = C.PolygonalLoop(np.concatenate([half, -half]), symmetric=True)
    assert loop.symmetric and loop.vertices.shape[0] == 4


def test_capacity_ball4():
    est = C.capacity_estimate(B.LpBallBody(2.0, 4), m=64, starts=16, seed=0)
    assert abs(est.value - math.pi) / math.pi < 0.01
    assert est.value >= math.pi - 1e-9  # polygon estimates are upper bounds


def test_capacity_products():
    for n, m in ((2, 32), (3, 48)):
        S = B.lagrangian_product(B.PolytopeBody.cross(n))
        est = C.capacity_estimate(S, m=m, starts=12, seed=0)
        assert abs(est.value - 4.0) / 4.0 < 0.02, (n, est.value)
        assert est.value >= 4.0 - 1e-9


def test_capacity_scaling_covariance():
    ball = B.LpBallBody(2.0, 4)
    doubled = B.ImageBody(ball, 2.0 * np.eye(4))
    e1 = C.capacity_estimate(ball, m=32, starts=8, seed=5)
    e2 = C.capacity_estimate(doubled, m=32, starts=8, seed=5)
    assert abs(e2.value - 4 * e1.value) <= 1e-9 * max(1.0, e2.value)
    assert abs(e2.value - 4 * math.pi) / (4 * math.pi) < 0.01


def test_capacity_two_dimensional_bodies_match_area():
    # c = area for 2-dimensional symmetric convex bodies
    hexagon = B.hyperplane_section(B.PolytopeBody.cube(3), [1, 1, 1])
    area = float(hexagon.core.volume_exact()) * math.sqrt(float(hexagon.volume_scale2()))
    est = C.capacity_estimate(hexagon, m=32, starts=8, seed=2)
    assert abs(est.value - area) / area < 0.01
    assert est.value >= area - 1e-9

    square = B.lagrangian_product(B.PolytopeBody.cube(1))
    est2 = C.capacity_estimate(square, m=16, starts=8, seed=2)
    assert abs(est2.value - 4.0) < 1e-6


def test_symmetric_estimator_agrees():
    ball = B.LpBallBody(2.0, 4)
    es = C.symmetric_capacity_estimate(ball, m=64, starts=8, seed=1)
    assert abs(es.value - math.pi) / math.pi < 0.01
    S = B.lagrangian_product(B.PolytopeBody.cross(2))
    es2 = C.symmetric_capacity_estimate(S, m=32, starts=12, seed=1)
    assert abs(es2.value - 4.0) / 4.0 < 0.02


def test_symmetric_vs_full_on_smooth_images(rng):
    for _ in range(3):
        M = rng.normal(size=(4, 4)) + 3.5 * np.eye(4)
        body = B.ImageBody(B.LpBallBody(2.0, 4), M)
        ef = C.capacity_estimate(body, m=32, starts=8, seed=7)
        es = C.symmetric_capacity_estimate(body, m=32, starts=8, seed=7)
        assert abs(es.value - ef.value) / ef.value <= 0.02


def test_linear_symplectic_invariance():
    # block maps diag(A^{-T}, A) preserve Lagrangian products
    S = B.lagrangian_product(B.PolytopeBody.cross(2))
    base_val = C.capacity_estimate(S, m=32, starts=12, seed=3).value
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    K2 = B.PolytopeBody.cross(2).linear_image(A)
    S2 = B.lagrangian_product(K2)
    val2 = C.capacity_estimate(S2, m=32, starts=12, seed=3).value
    assert abs(val2 - base_val) / base_val < 0.01
    # J itself maps K x K° to K° x K
    S3 = B.LagrangianProductBody(S.dual, S.base)
    val3 = C.capacity_estimate(S3, m=32, starts=12, seed=3).value
    assert abs(val3 - base_val) / base_val < 0.01


def test_argmin_is_centrally_symmetric_for_smooth_bodies(rng):
    M = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    body = B.ImageBody(B.LpBallBody(2.0, 4), M)
    est = C.capacity_estimate(body, m=32, starts=8, seed=11)
    v = est.loop.vertices
    vc = v - v.mean(axis=0)
    asym = np.abs(vc + np.roll(vc, v.shape[0] // 2, axis=0)).max()
    diam = 2 * np.linalg.norm(vc, axis=1).max()
    assert asym <= 1e-3 * diam


def test_monotonicity_experiment_polydisc():
    # product of discs: the reduction is a square, both capacities are 4
    S = B.lagrangian_product(B.LpBallBody(2.0, 2))
    c_original = C.capacity_estimate(S, m=24, starts=8, seed=0).value
    assert abs(c_original - 4.0) / 4.0 < 0.02
    rng = np.random.default_rng(0)
    for t in range(2):
        S2 = SY.reduce_product(S, random_rational_normal(rng, 2))
        c_reduced = C.capacity_estimate(S2, m=24, starts=8, seed=1000 + t).value
        assert c_reduced >= c_original * (1.0 - 0.02)
        assert abs(c_reduced - 4.0) / 4.0 < 0.02


def test_monotonicity_experiment_cross3_axis():
    S = B.lagrangian_product(B.PolytopeBody.cross(3))
    S2 = SY.reduce_product(S, (Fraction(1), Fraction(0), Fraction(0)))
    c1 = C.capacity_estimate(S, m=48, starts=12, seed=0).value
    c2 = C.capacity_estimate(S2, m=48, starts=12, seed=0).value
    assert abs(c1 - 4.0) / 4.0 < 0.02
    assert abs(c2 - 4.0) / 4.0 < 0.02


def test_capacity_rejects_odd_dimension():
    with pytest.raises(B.BodyError):
        C.capacity_estimate(B.PolytopeBody.cross(3), m=16, starts=2, seed=0)


# ---------------------------------------------------------------------------
# reference descent: the batched loop that steps and evaluates every start
# until the last one finishes, with its own J and action, summing along
# rows.  The lean loop in capacity.py must converge where it does, to the
# same value up to the stall rule's resolution.


def _ref_j_rotate(v):
    n = v.shape[-1] // 2
    return np.concatenate([-v[..., n:], v[..., :n]], axis=-1)


def _ref_polygon_action(z):
    nxt = np.roll(z, -1, axis=-2)
    n = z.shape[-1] // 2
    om = np.sum(z[..., :n] * nxt[..., n:] - nxt[..., :n] * z[..., n:], axis=-1)
    return 0.5 * np.sum(om, axis=-1)


def _ref_evaluate(S, z):
    e = np.roll(z, -1, axis=1) - z
    je = _ref_j_rotate(e)
    w = S.support_witness(je)
    norms = np.sum(je * w, axis=-1)
    length = np.sum(norms, axis=-1)
    action = _ref_polygon_action(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(action > 0, length**2 / (4.0 * action), np.inf)
    return q, length, action, w


def _ref_gradient(z, length, action, w):
    dl = _ref_j_rotate(w - np.roll(w, 1, axis=1))
    da = 0.5 * _ref_j_rotate(np.roll(z, 1, axis=1) - np.roll(z, -1, axis=1))
    l_ = length[:, None, None]
    a_ = action[:, None, None]
    return (l_ / (2.0 * a_)) * dl - (l_**2 / (4.0 * a_**2)) * da


def _ref_minimize_quotient(S, z0, symmetric, rng, max_iters=50_000, alpha0=0.2,
                           stall_window=100, stall_tol=1e-10, patience=60,
                           alpha_floor=1e-9):
    z = z0.copy()
    B, m_repr, d = z.shape
    full_m = 2 * m_repr if symmetric else m_repr

    def materialize(x):
        if symmetric:
            return np.concatenate([x, -x], axis=1)
        return x

    def reduce_grad(g):
        if symmetric:
            return g[:, :m_repr] - g[:, m_repr:]
        return g

    def fresh_starts(count):
        fresh = C._ellipse_starts(d, full_m, count, rng)
        return fresh[:, :m_repr] if symmetric else fresh

    alpha = np.full(B, alpha0)
    active = np.ones(B, dtype=bool)
    no_improve = np.zeros(B, dtype=int)
    restarts = 0

    def evaluate_with_restarts(z):
        nonlocal restarts
        q, length, action, w = _ref_evaluate(S, materialize(z))
        bad = ~np.isfinite(q) | (action <= 1e-12)
        tries = 0
        while np.any(bad) and tries < 50:
            restarts += int(bad.sum())
            z[bad] = fresh_starts(int(bad.sum()))
            q, length, action, w = _ref_evaluate(S, materialize(z))
            bad = ~np.isfinite(q) | (action <= 1e-12)
            tries += 1
        return q, length, action, w

    q, length, action, w = evaluate_with_restarts(z)
    best_q = q.copy()
    best_z = z.copy()
    window_q = best_q.copy()
    it = 0
    for it in range(1, max_iters + 1):
        if not np.any(active):
            break
        g = reduce_grad(_ref_gradient(materialize(z), length, action, w))
        gnorm = np.sqrt(np.sum(g**2, axis=(1, 2)))
        gnorm = np.where(gnorm > 0, gnorm, 1.0)
        scale = np.sqrt(np.mean(np.sum(z**2, axis=-1), axis=-1))
        step = (alpha * scale / gnorm)[:, None, None] * g
        z = np.where(active[:, None, None], z - step, z)
        if not symmetric:
            z = z - np.mean(z, axis=1, keepdims=True)
        rms = np.sqrt(np.mean(np.sum(z**2, axis=-1), axis=-1))
        rms = np.where(rms > 0, rms, 1.0)
        z = z / rms[:, None, None]

        q, length, action, w = evaluate_with_restarts(z)
        improved = active & (q < best_q * (1.0 - 1e-14))
        best_z = np.where(improved[:, None, None], z, best_z)
        best_q = np.where(improved, q, best_q)
        no_improve = np.where(improved, 0, no_improve + 1)
        cool = active & (no_improve >= patience)
        alpha = np.where(cool, alpha * 0.5, alpha)
        no_improve = np.where(cool, 0, no_improve)
        active &= alpha >= alpha_floor
        if it % stall_window == 0:
            rel = (window_q - best_q) / np.maximum(best_q, 1e-300)
            active &= rel >= stall_tol
            window_q = best_q.copy()

    return best_q, materialize(best_z), it, restarts, ~active


def _matches_reference(run, monkeypatch, oracle=None):
    """The descent and its row-wise reference differ in the order of their
    sums, which moves where a start stops by about the stall rule's
    resolution.  Both converge, to values within 1e-9 of each other, or,
    on a smooth body where the descent stalls above the minimum (``oracle``
    set), each at or above the exact capacity and within 1e-3 of it."""
    lean = run()
    monkeypatch.setattr(C, "_minimize_quotient", _ref_minimize_quotient)
    ref = run()
    assert lean.iterations > 0
    assert lean.loop.vertices.shape == ref.loop.vertices.shape
    assert lean.converged and ref.converged
    if oracle is None:
        assert math.isclose(lean.value, ref.value, rel_tol=1e-9)
    else:
        for est in (lean, ref):
            assert oracle - 1e-9 <= est.value <= oracle + 1e-3


@pytest.mark.parametrize("case", ["ball4", "cross2", "cross2-symmetric",
                                  "skewed-cross3", "lp1.5",
                                  "reduced-cross3", "polar-cross2"])
def test_descent_matches_reference_below_eight_coordinates(case, monkeypatch):
    """Cases below 8 coordinates, where NumPy sums a row in order as the
    descent adds its planes; the sums over the vertices and the gradient's
    norm still take other orders."""
    cross2 = B.lagrangian_product(B.PolytopeBody.cross(2))
    oracle = None
    if case == "reduced-cross3":
        S = SY.reduce_product(B.lagrangian_product(B.PolytopeBody.cross(3)),
                              (Fraction(1), Fraction(-2), Fraction(3)))
        assert isinstance(S.base, B.DiagonalImageBody)
        run = lambda: C.capacity_estimate(S, m=12, starts=3, seed=2)
    elif case == "polar-cross2":
        S = cross2.polar()
        assert isinstance(S, B.L1SumBody)
        run = lambda: C.capacity_estimate(S, m=8, starts=2, seed=3)
    elif case == "ball4":
        run = lambda: C.capacity_estimate(B.LpBallBody(2.0, 4), m=16, starts=4, seed=9)
    elif case == "cross2":
        run = lambda: C.capacity_estimate(cross2, m=16, starts=6, seed=1)
    elif case == "cross2-symmetric":
        run = lambda: C.symmetric_capacity_estimate(cross2, m=16, starts=6, seed=1)
    elif case == "skewed-cross3":
        M = [[Fraction(x) for x in row] for row in ((0, 0, 2), (3, -3, -2), (2, 3, -2))]
        S = B.lagrangian_product(B.PolytopeBody.cross(3).linear_image(M))
        assert C._product_preconditioner(S) is not None  # the ImageBody path
        run = lambda: C.capacity_estimate(S, m=12, starts=4, seed=2)
    else:
        # c(K x K°) = 4; on this smooth body the descent stalls (ROADMAP item 2)
        S = B.lagrangian_product(B.LpBallBody(1.5, 2))
        run = lambda: C.capacity_estimate(S, m=16, starts=4, seed=1)
        oracle = 4.0
    _matches_reference(run, monkeypatch, oracle)


@pytest.mark.parametrize("case", ["cube4", "ball8", "ball8-symmetric",
                                  "ball10", "ball10-symmetric"])
def test_descent_matches_reference_from_eight_coordinates(case, monkeypatch):
    """From d = 8 NumPy sums the rows' coordinates pairwise and the descent
    adds its planes in order."""
    if case == "cube4":
        S = B.lagrangian_product(B.PolytopeBody.cube(4))
        run = lambda: C.capacity_estimate(S, m=8, starts=2, seed=3)
    else:
        estimate = (C.symmetric_capacity_estimate if case.endswith("symmetric")
                    else C.capacity_estimate)
        dim = int(case[4:].split("-")[0])
        run = lambda: estimate(B.LpBallBody(2.0, dim), m=8, starts=2, seed=5)
    _matches_reference(run, monkeypatch)


def test_j_rotate_and_action_match_reference(rng):
    for shape in ((4,), (7, 4), (3, 10, 6), (2, 5, 9, 4)):
        v = rng.normal(size=shape)
        assert SY.j_rotate(v).tobytes() == _ref_j_rotate(v).tobytes()
        planes = np.ascontiguousarray(np.moveaxis(v, -1, 0))
        assert (SY.j_rotate(planes, axis=0).tobytes()
                == np.moveaxis(_ref_j_rotate(v), -1, 0).copy().tobytes())
        if len(shape) >= 2:
            assert SY.polygon_action(planes).tobytes() == _ref_polygon_action(v).tobytes()


# ---------------------------------------------------------------------------
# lower side: c(K x K°) = 4 for symmetric K, so no closed polygon of positive
# action has Q below 4


@functools.lru_cache(maxsize=64)
def _product_of(kind, arg):
    if kind == "image":
        K = B.PolytopeBody.cross(3).linear_image([[Fraction(x) for x in row] for row in arg])
    elif kind == "hanner":
        K = B.hanner_body(arg)
    else:
        K = B.LpBallBody(arg[0], arg[1])
    return B.lagrangian_product(K)


_INVERTIBLE = st.lists(st.integers(-3, 3), min_size=9, max_size=9).map(
    lambda xs: (tuple(xs[0:3]), tuple(xs[3:6]), tuple(xs[6:9]))).filter(
    lambda M: round(np.linalg.det(np.array(M, float))) != 0)
_K_TIMES_POLAR = st.one_of(
    st.tuples(st.just("image"), _INVERTIBLE),
    st.tuples(st.just("hanner"), st.sampled_from(
        ["X(S, L(S, S))", "X(L(S, S), S)", "L(S, X(S, S))", "L(X(S, S), S)"])),
    st.tuples(st.just("lp"), st.tuples(st.sampled_from([1.002, 1.01, 1.2, 1.5, 2.0, 3.0, 6.0]),
                                       st.integers(2, 3))),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_K_TIMES_POLAR, st.integers(0, 2**32 - 1), st.integers(4, 12),
       st.sampled_from([0.0, 1e-6, 1e-3, 1e-1, 1.0, 1e3]))
def test_quotient_never_below_four_on_k_times_polar(body, seed, m, noise):
    """Random polygons, and two-bounce loops (y,x) -> (y,-x) -> (-y,-x) ->
    (-y,x), x on the boundary of K and y its support witness in K°, which
    attain Q = 4, each perturbed by ``noise`` (noise 1e3 is a random loop)."""
    S = _product_of(*body)
    n = S.n
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x /= float(S.base.gauge(x))
    y = S.dual.support_witness(x)
    corners = [(y, x), (y, -x), (-y, -x), (-y, x)]
    loop = np.repeat([np.concatenate(c) for c in corners], -(-m // 4), axis=0)
    loop = loop + noise * rng.normal(size=loop.shape)
    z = np.ascontiguousarray(loop.T[:, None])  # coordinate planes (d, 1, m)
    nxt = np.r_[1:z.shape[-1], 0]
    q, length, action, w, zn = C._evaluate(S, z, nxt)
    if action[0] < 0:  # reversed orientation
        z = z[..., ::-1].copy()
        q, length, action, w, zn = C._evaluate(S, z, nxt)
    assume(action[0] > 1e-9 * float(np.sum(z**2)))
    assert q[0] >= 4.0 - 1e-9
    assert zn.tobytes() == np.roll(z, -1, axis=-1).tobytes()
    if noise == 0.0:
        assert abs(q[0] - 4.0) <= 1e-9


@pytest.mark.parametrize("p", [1.002, 1.01])
def test_estimate_near_l1_stays_above_four(p):
    """Near p = 1 the polar's exponent q is hundreds, and |u|^q underflows in
    the witness of every short support direction unless the power sum is
    rescaled; the estimate then fell to 3.18 at p = 1.002 and 3.9988 at
    p = 1.01, below the lower bound 4 of every loop on K x K°."""
    est = C.capacity_estimate(B.lagrangian_product(B.LpBallBody(p, 2)), m=16, starts=4, seed=1)
    assert 4.0 <= est.value <= 4.001


def test_capacity_monotone_reports_error_vs_four():
    from mahlerlab.verify import suite_capacity_monotone

    rep = suite_capacity_monotone(trials=2, seed=0, m=16, starts=4, image_trials=1)
    assert len(rep["cases"]) == 2
    for case in rep["cases"]:
        assert case["c_reduced_rel_err_vs_4"] == abs(case["c_reduced"] - 4.0) / 4.0
        assert case["passed"] == (case["c_reduced"] >= case["c_original"] * (1 - 0.02))


def test_capacity_monotone_case_keys(monkeypatch):
    """The suite's cases keep their keys, in order, and their estimator
    seeds; a reduced estimate that raises is recorded as a failed case."""
    from types import SimpleNamespace

    from mahlerlab.verify import suite_capacity_monotone

    calls = []

    def estimate(S, m, starts, seed):
        calls.append((S.dim, seed))
        if seed == 1500:  # the first image's reduced estimate
            raise B.BodyError("no support witness")
        return SimpleNamespace(value=4.0 + 1e-3 * len(calls))

    monkeypatch.setattr(C, "capacity_estimate", estimate)
    rep = suite_capacity_monotone(trials=3, seed=0, m=8, starts=2, image_trials=2)
    assert calls == [(6, 0), (4, 1000), (6, 500), (4, 1500), (6, 501), (4, 1501)]
    measured = ["c_original", "c_reduced", "holds", "c_reduced_rel_err_vs_4", "passed"]
    assert [list(case) for case in rep["cases"]] == [
        ["body", "normal"] + measured,
        ["body", "matrix", "normal", "error", "holds", "passed"],
        ["body", "matrix", "normal"] + measured,
    ]
    assert [case["body"] for case in rep["cases"]] == ["cross3xcube3", "image0", "image1"]
    assert rep["cases"][1]["error"] == "BodyError: no support witness"
    assert [case["passed"] for case in rep["cases"]] == [True, False, True]
    assert not rep["passed"]
    assert rep["params"] == {"trials": 3, "seed": 0, "m": 8, "starts": 2, "image_trials": 2}
    # the default split, half the trials on images, is reported as the number used
    assert suite_capacity_monotone(trials=3, m=8, starts=2)["params"]["image_trials"] == 1
