"""Exact, closed-form, and Monte-Carlo volumes plus the volume product."""
import math
from fractions import Fraction

import numpy as np
import pytest

from mahlerlab import bodies as B
from mahlerlab import volume as V
from mahlerlab.verify import random_hanner_expr, random_rational_normal

from conftest import hanner_volume, random_symmetric_vpolytope


def test_exact_volume_cube_and_cross():
    assert V.exact_polytope_volume(B.PolytopeBody.cube(3)).exact == 8
    assert V.exact_polytope_volume(B.PolytopeBody.cross(3)).exact == Fraction(4, 3)


def test_exact_volume_hexagon_algebraic_certificate():
    sec = B.hyperplane_section(B.PolytopeBody.cube(3), [1, 1, 1])
    res = V.exact_polytope_volume(sec)
    assert res.method == "exact"
    r, d = res.exact_sqrt
    assert r**2 * d == 27  # value is 3 sqrt(3)
    assert math.isclose(res.value, 3 * math.sqrt(3), rel_tol=1e-12)
    assert res.ci_halfwidth == 0.0


def test_exact_volume_invariant_under_vertex_reordering(rng):
    body = random_symmetric_vpolytope(rng, 3, 5)
    verts = list(body.vertices())
    rng.shuffle(verts)
    body2 = B.PolytopeBody(3, vertices=verts)
    assert body.volume_exact() == body2.volume_exact()


def test_exact_volume_unimodular_invariance(rng):
    body = random_symmetric_vpolytope(rng, 3, 4)
    M = [[1, 1, 0], [0, 1, 0], [0, 2, 1]]  # det 1
    img = body.linear_image(M)
    assert body.volume_exact() == img.volume_exact()


def test_lp_ball_volume_closed_forms():
    assert V.lp_ball_volume(1, 2).exact == 2
    assert math.isclose(V.lp_ball_volume(2, 3).value, 4 * math.pi / 3, rel_tol=1e-12)
    assert V.lp_ball_volume("inf", 3).exact == 8
    with pytest.raises(B.BodyError):
        V.lp_ball_volume(0.5, 2)


def test_lp_ball_volume_vs_mc():
    closed = V.lp_ball_volume(3, 3)
    mc = V.mc_volume(B.LpBallBody(3.0, 3), 10**5, seed=42)
    assert abs(mc.value - closed.value) <= 3 * mc.ci_halfwidth


def test_mc_volume_box_equals_body():
    res = V.mc_volume(B.PolytopeBody.cube(3), 10**4, seed=0)
    assert res.value == 8.0 and res.ci_halfwidth == 0.0


def test_mc_volume_disc():
    res = V.mc_volume(B.LpBallBody(2.0, 2), 10**5, seed=1)
    assert abs(res.value - math.pi) <= 3 * res.ci_halfwidth


def test_mc_volume_deterministic_in_seed():
    a = V.mc_volume(B.LpBallBody(2.0, 3), 50_000, seed=9)
    b = V.mc_volume(B.LpBallBody(2.0, 3), 50_000, seed=9)
    assert a.value == b.value
    c = V.mc_volume(B.LpBallBody(2.0, 3), 50_000, seed=10)
    assert c.value != a.value


def test_mc_volume_projection_via_fiber_minimization():
    # generic (non-coordinate) projection of an l_1.5 ball: membership along
    # the fiber is a 1-d convex minimization; compare with the coordinate
    # projection closed form through a rotation-free oracle: project onto
    # e_4-perp explicitly with the generic machinery
    ball = B.LpBallBody(1.5, 4)
    basis = np.eye(4)[:, :3]
    proj = B.ImageBody(ball, basis.T)  # generic path, no special-casing
    mc = V.mc_volume(proj, 10**5, seed=3)
    closed = V.lp_ball_volume(1.5, 3)
    assert abs(mc.value - closed.value) <= 4 * mc.ci_halfwidth


def test_mc_volume_polytope_within_four_halfwidths(rng):
    body = random_symmetric_vpolytope(rng, 3, 4)
    exact = float(body.volume_exact())
    mc = V.mc_volume(body, 10**5, seed=7)
    assert abs(mc.value - exact) <= 4 * mc.ci_halfwidth


def test_mahler_cube3():
    rep = V.mahler_product(B.PolytopeBody.cube(3))
    assert rep.exact_product == Fraction(32, 3)
    assert rep.exact_ratio == 1


def test_mahler_hexagon_section():
    sec = B.hyperplane_section(B.PolytopeBody.cube(3), [1, 1, 1])
    rep = V.mahler_product(sec)
    assert rep.exact_product == 9
    assert rep.exact_ratio == Fraction(9, 8)
    assert math.isclose(rep.product, 9.0, abs_tol=1e-9)


def test_mahler_disc():
    rep = V.mahler_product(B.LpBallBody(2.0, 2))
    assert math.isclose(rep.product, math.pi**2, rel_tol=1e-12)
    assert math.isclose(rep.ratio, math.pi**2 / 8, rel_tol=1e-12)


def test_mahler_equals_mahler_of_polar(rng):
    body = random_symmetric_vpolytope(rng, 3, 4)
    a = V.mahler_product(body).exact_product
    b = V.mahler_product(body.polar()).exact_product
    assert a == b


def test_mahler_linear_invariance(rng):
    body = random_symmetric_vpolytope(rng, 3, 4)
    M = [[2, 1, 0], [1, 1, 0], [0, 3, 1]]  # det 1... any invertible works
    img = body.linear_image(M)
    assert V.mahler_product(body).exact_product == V.mahler_product(img).exact_product
    M2 = [[3, 0, 0], [0, 1, 0], [0, 0, 1]]  # |det| != 1
    img2 = body.linear_image(M2)
    assert V.mahler_product(body).exact_product == V.mahler_product(img2).exact_product


def test_hanner_trees_ratio_one(rng):
    for leaves in (2, 3, 4, 5):
        expr = random_hanner_expr(leaves, rng)
        rep = V.mahler_product(B.hanner_body(expr))
        assert rep.exact_ratio == 1, expr


def _dual(tree):
    return tree if tree == "S" else ({"X": "L", "L": "X"}[tree[0]], [_dual(c) for c in tree[1]])


def test_hanner_volumes_match_closed_form_oracle():
    rng = np.random.default_rng(47)
    for leaves in range(1, 7):
        for _ in range(5):
            expr = random_hanner_expr(leaves, rng)
            tree = B.parse_hanner(expr)
            vol, n = hanner_volume(tree)
            vol_polar, _ = hanner_volume(_dual(tree))
            body = B.hanner_body(expr)
            assert body.volume_exact() == vol, expr
            assert body.polar().volume_exact() == vol_polar, expr
            assert vol * vol_polar == V.mahler_bound(n), expr


@pytest.mark.parametrize("make", [
    lambda: B.hyperplane_section(B.hanner_body("X(S, L(S, S), S)"), (1, 2, -1, 3)),
    lambda: B.PolytopeBody(3, vertices=[(1, 2, 0), (3, -1, 1), (0, 1, 4),
                                        (-1, -2, 0), (-3, 1, -1), (0, -1, -4)]),
], ids=["section", "vertices"])
def test_product_runs_one_double_description(monkeypatch, make):
    """The polar reads its facets from the vertices double description
    found for a section, and its vertices from the facets it found for a
    V-polytope."""
    from mahlerlab import exactgeom

    calls = []
    real = exactgeom.dd_vertices

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(exactgeom, "dd_vertices", counting)
    monkeypatch.setattr(B, "dd_vertices", counting)
    rep = V.mahler_product(make())
    assert len(calls) == 1
    assert rep.exact_product >= V.mahler_bound(3)


def test_reduction_bound_cube_axis_equality():
    rep = V.reduction_volume_bound(B.PolytopeBody.cube(3), (0, 0, 1))
    assert rep.lhs_exact == 8 and rep.rhs_exact == 8 and rep.equality


def test_reduction_bound_cube_diagonal():
    rep = V.reduction_volume_bound(B.PolytopeBody.cube(3), (1, 1, 1))
    assert rep.lhs_exact == 9 and rep.rhs_exact == 8 and rep.holds


def test_reduction_bound_random_tree(rng):
    body = B.hanner_body("X(S, L(S, S))")
    for _ in range(20):
        u = random_rational_normal(rng, 3)
        rep = V.reduction_volume_bound(body, u)
        assert rep.holds


def test_volume_result_validation():
    with pytest.raises(ValueError):
        V.VolumeResult(1.0, "exact", ci_halfwidth=0.1)
    with pytest.raises(ValueError):
        V.VolumeResult(1.0, "monte-carlo", samples=0)
