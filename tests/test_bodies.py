"""Body representations, duality operations, and their invariants."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from mahlerlab import bodies as B
from mahlerlab.exactgeom import ExactHull

from conftest import (
    nonzero_fraction_vectors,
    random_symmetric_vpolytope,
    shadow_area_oracle,
    shoelace_area,
    support_by_vertex_scan,
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_cube():
    body = B.parse_body({"type": "cube", "dim": 3})
    assert body.dim == 3
    assert len(body.halfspaces()) == 6


def test_parse_hanner_expression():
    body = B.parse_body({"type": "hanner", "expr": "X(S, L(S, S))"})
    assert body.dim == 3
    # oracle: independently computed hull of the vertex set
    hull = ExactHull(body.vertices())
    assert len(hull.vertex_points()) == 8
    assert len(hull.facets()) == 6
    assert body.counts() == (8, 6)


def test_parse_lp_ball():
    body = B.parse_body({"type": "lp_ball", "p": 1.5, "dim": 4})
    assert isinstance(body, B.LpBallBody)
    x = np.array([0.3, -0.2, 0.1, 0.4])
    assert math.isclose(float(body.gauge(x)), np.sum(np.abs(x) ** 1.5) ** (1 / 1.5))


def test_parse_limit_p_maps_to_polytopes():
    assert isinstance(B.parse_body({"type": "lp_ball", "p": 1, "dim": 3}), B.PolytopeBody)
    assert isinstance(B.parse_body({"type": "lp_ball", "p": "inf", "dim": 3}), B.PolytopeBody)


def test_parse_rejects_bad_input():
    with pytest.raises(B.BodyError):
        B.parse_body({"type": "lp_ball", "p": 0.5, "dim": 2})
    with pytest.raises(B.BodyError):
        B.parse_body({"type": "vpoly", "vertices": [["1", "0"], ["0", "1"]]})  # not symmetric
    with pytest.raises(B.BodyError):
        B.parse_body({"type": "hpoly", "A": [["1", "0"], ["-1", "0"]], "b": ["1", "-1"]})
    with pytest.raises(B.BodyError):
        B.parse_body("not json at all")
    with pytest.raises(B.BodyError):
        B.parse_body({"type": "hanner", "expr": "X(S"})


def test_describe_roundtrip():
    descs = [
        {"type": "cube", "dim": 3},
        {"type": "hanner", "expr": "L(S, X(S, S))"},
        {"type": "lp_ball", "p": 1.5, "dim": 4},
        {"type": "vpoly", "vertices": [["1", "1"], ["-1", "-1"], ["1", "-1"], ["-1", "1"]]},
    ]
    for d in descs:
        body = B.parse_body(d)
        body2 = B.parse_body(json.dumps(body.describe()))
        assert body2.dim == body.dim
        x = np.full(body.dim, 0.123)
        assert math.isclose(float(body.gauge(x)), float(body2.gauge(x)), rel_tol=1e-12)


def test_scaled_body_roundtrips_exactly():
    sec = B.hyperplane_section(B.PolytopeBody.cube(3), [1, 1, 1])
    again = B.parse_body(json.dumps(sec.describe()))
    assert isinstance(again, B.DiagonalImageBody)
    assert again.scales2 == sec.scales2
    assert again.core.volume_exact() == sec.core.volume_exact()
    assert B.canonical_description(again) == B.canonical_description(sec)


# ---------------------------------------------------------------------------
# gauge / support examples


def test_gauge_examples():
    cube3 = B.PolytopeBody.cube(3)
    assert float(B.gauge(cube3, [0.5, -0.5, 0.25])) == 0.5
    cross2 = B.PolytopeBody.cross(2)
    assert math.isclose(B.gauge(cross2, [0.3, 0.3]), 0.6)
    assert B.gauge(cube3, [0, 0, 0]) == 0.0


def test_support_examples():
    cube3 = B.PolytopeBody.cube(3)
    cross3 = B.PolytopeBody.cross(3)
    assert B.support(cube3, [1, 1, 1]) == 3.0
    assert B.support(cross3, [1, 1, 1]) == 1.0
    ball = B.LpBallBody(2.0, 3)
    u = np.array([1.0, 2.0, -2.0])
    assert math.isclose(B.support(ball, u), 3.0)


def test_support_matches_vertex_scan_oracle():
    rng = np.random.default_rng(11)
    body = random_symmetric_vpolytope(rng, 3, 5)
    for _ in range(10):
        u = rng.normal(size=3)
        assert math.isclose(
            B.support(body, u), support_by_vertex_scan(body.vertices(), u),
            rel_tol=1e-12, abs_tol=1e-12,
        )


def test_support_witness_attains_support():
    rng = np.random.default_rng(12)
    for body in [B.PolytopeBody.cross(3), B.LpBallBody(1.5, 3), B.LpBallBody(3.0, 3)]:
        U = rng.normal(size=(50, 3))
        w = body.support_witness(U)
        vals = np.sum(U * w, axis=-1)
        assert np.allclose(vals, body.support(U), atol=1e-10)
        assert np.all(body.gauge(w) <= 1 + 1e-9)


# ---------------------------------------------------------------------------
# polarity


def test_polar_cube_is_cross():
    cross = B.PolytopeBody.cube(3).polar()
    assert sorted(cross.vertices()) == sorted(B.PolytopeBody.cross(3).vertices())


def test_polar_lp():
    ball = B.LpBallBody(2.0, 4)
    assert isinstance(ball.polar(), B.LpBallBody) and ball.polar().p == 2.0
    l3 = B.LpBallBody(3.0, 2)
    assert math.isclose(l3.polar().p, 1.5)


def test_double_polar_exact_for_polytopes():
    rng = np.random.default_rng(13)
    for dim, pairs in [(2, 4), (3, 5)]:
        body = random_symmetric_vpolytope(rng, dim, pairs)
        again = body.polar().polar()
        assert sorted(again.vertices()) == sorted(body.vertices())


@settings(max_examples=15, deadline=None)
@given(nonzero_fraction_vectors(3))
def test_polar_involution_gauge_property(v):
    body = B.PolytopeBody.cube(3)
    x = np.array([float(t) for t in v])
    assert math.isclose(
        float(body.gauge(x)), float(body.polar().polar().gauge(x)), rel_tol=1e-12
    )


def test_gauge_support_duality_sampled():
    rng = np.random.default_rng(14)
    bodies = [
        B.PolytopeBody.cross(3),
        random_symmetric_vpolytope(rng, 3, 4),
        B.LpBallBody(1.5, 3),
    ]
    for body in bodies:
        pol = body.polar()
        X = rng.normal(size=(40, 3))
        assert np.allclose(body.gauge(X), pol.support(X), rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# linear images


def test_linear_image_scaling_box():
    box = B.PolytopeBody.cube(3).linear_image(
        [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    )
    assert B.support(box, [1, 0, 0]) == 2.0
    assert B.support(box, [0, 1, 0]) == 1.0


def test_linear_image_cross2_rotation_scale_gives_square():
    # rotation by 45 degrees combined with sqrt(2) scaling is the rational
    # matrix [[1, -1], [1, 1]]
    img = B.PolytopeBody.cross(2).linear_image([[1, -1], [1, 1]])
    assert sorted(img.vertices()) == sorted(B.PolytopeBody.cube(2).vertices())


def test_linear_image_identity():
    body = B.PolytopeBody.cross(3)
    img = body.linear_image([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert sorted(img.vertices()) == sorted(body.vertices())


def test_linear_image_singular_rejected():
    with pytest.raises(B.BodyError):
        B.PolytopeBody.cube(2).linear_image([[1, 1], [1, 1]])


def test_linear_image_support_covariance():
    rng = np.random.default_rng(15)
    body = random_symmetric_vpolytope(rng, 3, 4)
    M = [[Fraction(2), Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(1)]]
    img = body.linear_image(M)
    Mf = np.array([[float(x) for x in row] for row in M])
    for _ in range(10):
        u = rng.normal(size=3)
        assert math.isclose(B.support(img, u), B.support(body, Mf.T @ u),
                            rel_tol=1e-11, abs_tol=1e-12)


def test_polar_of_linear_image_is_inverse_transpose_image():
    rng = np.random.default_rng(16)
    body = random_symmetric_vpolytope(rng, 3, 4)
    M = [[2, 1, 0], [0, 1, 0], [1, 0, 1]]
    lhs = body.linear_image(M).polar()
    Minv = B.invert_rational_matrix([[Fraction(x) for x in r] for r in M])
    MinvT = [list(col) for col in zip(*Minv)]
    rhs = body.polar().linear_image(MinvT)
    X = rng.normal(size=(30, 3))
    assert np.allclose(lhs.gauge(X), rhs.gauge(X), rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# sections and projections


def test_section_cube_by_axis_is_square():
    sec = B.hyperplane_section(B.PolytopeBody.cube(3), [0, 0, 1])
    vol = sec.core.volume_exact()
    s2 = sec.volume_scale2()
    assert vol * s2**0 == 4 and s2 == 1  # coordinate section keeps the frame


def test_section_cube_diagonal_hexagon():
    sec = B.hyperplane_section(B.PolytopeBody.cube(3), [1, 1, 1])
    core_vol = sec.core.volume_exact()
    s2 = sec.volume_scale2()
    # oracle: exact shoelace area of the coordinate hexagon
    assert shoelace_area(sec.core.vertices()) == core_vol
    # intrinsic area is 3 sqrt(3): certified by (core_vol)^2 * s2 == 27
    assert core_vol**2 * s2 == 27
    assert math.isclose(float(core_vol) * math.sqrt(float(s2)), 3 * math.sqrt(3))
    assert len(sec.core.halfspaces()) == 6


def test_section_lp_coordinate():
    sec = B.hyperplane_section(B.LpBallBody(1.5, 4), [0, 0, 0, 1])
    assert isinstance(sec, B.LpBallBody) and sec.p == 1.5 and sec.dim == 3


def test_projection_cross_axis_is_diamond():
    proj = B.hyperplane_projection(B.PolytopeBody.cross(3), [0, 0, 1])
    assert proj.core.volume_exact() * proj.volume_scale2() ** 0 == 2
    assert sorted(proj.core.extreme_vertices()) == sorted(
        B.PolytopeBody.cross(2).vertices()
    )


def test_projection_cross_diagonal_hexagon_area():
    proj = B.hyperplane_projection(B.PolytopeBody.cross(3), [1, 1, 1])
    area = float(proj.core.volume_exact()) * math.sqrt(float(proj.volume_scale2()))
    assert math.isclose(area, math.sqrt(3), rel_tol=1e-12)


def test_projection_cube_diagonal_shadow_area_oracle():
    cube = B.PolytopeBody.cube(3)
    proj = B.hyperplane_projection(cube, [1, 1, 1])
    area = float(proj.core.volume_exact()) * math.sqrt(float(proj.volume_scale2()))
    assert math.isclose(area, 4 * math.sqrt(3), rel_tol=1e-12)
    assert math.isclose(area, shadow_area_oracle(cube, [1, 1, 1]), rel_tol=1e-9)


def test_section_zero_normal_rejected():
    with pytest.raises(B.BodyError):
        B.hyperplane_section(B.PolytopeBody.cube(3), [0, 0, 0])


def test_slicing_duality_polytopes():
    # support functions of (K ∩ u^perp)° and of proj_{u^perp}(K°) agree
    rng = np.random.default_rng(17)
    for _ in range(5):
        body = random_symmetric_vpolytope(rng, 3, 4)
        u = tuple(Fraction(int(x)) for x in rng.integers(-3, 4, size=3))
        if not any(u):
            continue
        sec_polar = B.hyperplane_section(body, u).polar()
        proj_polar = B.hyperplane_projection(body.polar(), u)
        W = rng.normal(size=(30, 2))
        assert np.allclose(sec_polar.support(W), proj_polar.support(W),
                           rtol=1e-10, atol=1e-10)


def test_slicing_duality_functional():
    rng = np.random.default_rng(18)
    ball = B.LpBallBody(1.5, 4)
    u = rng.normal(size=4)
    sec_polar = B.hyperplane_section(ball, u).polar()
    proj_polar = B.hyperplane_projection(ball.polar(), u)
    W = rng.normal(size=(20, 3))
    assert np.allclose(sec_polar.gauge(W), proj_polar.gauge(W), rtol=1e-9, atol=1e-10)


def test_degenerate_section_flagged():
    # a deliberately lower-dimensional vertex set is reported degenerate
    body = B.PolytopeBody(2, vertices=[(1, 0), (-1, 0)], check_symmetry=False)
    assert body.is_degenerate
    assert body.volume_exact() == 0


# ---------------------------------------------------------------------------
# Hanner bodies


def test_hanner_counts_rules():
    assert B.hanner_counts("X(S, S, S)") == (8, 6)
    assert B.hanner_counts("L(S, S, S)") == (6, 8)
    assert B.hanner_counts("X(S, L(S, S))") == (8, 6)


def test_hanner_counts_match_hull_up_to_six_leaves():
    rng = np.random.default_rng(19)
    from mahlerlab.verify import random_hanner_expr

    for leaves in range(2, 7):
        for _ in range(3):
            expr = random_hanner_expr(leaves, rng)
            body = B.hanner_body(expr)
            v_pred, f_pred = B.hanner_counts(expr)
            hull = ExactHull(body.vertices())
            assert len(hull.vertex_points()) == v_pred
            assert len(hull.facets()) == f_pred


def test_hanner_polar_swaps_operations():
    body = B.hanner_body("X(S, L(S, S))")
    pol = body.polar()
    assert pol.tree == "L(S, X(S, S))"
    assert pol.counts() == (6, 8)


# ---------------------------------------------------------------------------
# Lagrangian products


def test_lagrangian_product_membership():
    S = B.lagrangian_product(B.PolytopeBody.cross(3))
    # (p, q) in S iff |q|_1 <= 1 and |p|_inf <= 1
    z = np.concatenate([[0.9, -0.9, 0.5], [0.3, 0.3, 0.3]])
    assert bool(S.contains(z))
    z_bad_q = np.concatenate([[0.0, 0.0, 0.0], [0.6, 0.6, 0.0]])
    assert not bool(S.contains(z_bad_q))
    z_bad_p = np.concatenate([[1.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert not bool(S.contains(z_bad_p))


def test_lagrangian_product_of_ball_is_selfdual_pair():
    S = B.lagrangian_product(B.LpBallBody(2.0, 2))
    assert isinstance(S.dual, B.LpBallBody) and S.dual.p == 2.0


def test_lagrangian_product_of_segment_is_square():
    S = B.lagrangian_product(B.PolytopeBody.cube(1))
    P = S.as_polytope()
    assert P.volume_exact() == 4


def test_product_polar_gauge_identity():
    S = B.lagrangian_product(B.PolytopeBody.cross(2))
    pol = S.polar()
    rng = np.random.default_rng(20)
    X = rng.normal(size=(40, 4))
    assert np.allclose(pol.gauge(X), S.support(X), rtol=1e-10, atol=1e-12)


def test_product_dual_is_polar_of_base_sampled():
    rng = np.random.default_rng(21)
    for K in [B.PolytopeBody.cross(3), B.LpBallBody(3.0, 3)]:
        S = B.lagrangian_product(K)
        X = rng.normal(size=(30, 3))
        assert np.allclose(S.dual.gauge(X), K.support(X), rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# misc


def test_bounding_halfwidths():
    body = B.PolytopeBody.cross(3)
    assert np.allclose(body.bounding_halfwidths(), np.ones(3))


def test_fiber_min_gauge_matches_scalar_scan():
    ball = B.LpBallBody(1.5, 3)
    rng = np.random.default_rng(22)
    x0 = rng.normal(size=(20, 3))
    direction = np.array([0.0, 0.0, 1.0])
    vals = B.fiber_min_gauge(ball, x0, direction)
    ts = np.linspace(-10, 10, 20001)
    for i in range(len(x0)):
        brute = min(float(ball.gauge(x0[i] + t * direction)) for t in ts)
        assert vals[i] <= brute + 1e-9
        assert vals[i] >= brute - 1e-4
