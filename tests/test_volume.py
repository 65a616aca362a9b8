"""Exact, closed-form, and Monte-Carlo volumes plus the volume product."""
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

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
    assert math.isclose(V.lp_ball_volume(2, 3).value, 4 * math.pi / 3, rel_tol=1e-12)
    # the l_1 and l_inf balls parse to exact cross and cube polytopes
    cross = B.parse_body({"type": "lp_ball", "p": 1, "dim": 2})
    cube = B.parse_body({"type": "lp_ball", "p": "inf", "dim": 3})
    assert V.volume_of(cross).exact == 2 and V.volume_of(cube).exact == 8


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


@pytest.mark.parametrize("make", [
    lambda: B.hanner_body("X(S, L(S, S), S)"),
    lambda: B.hyperplane_section(B.PolytopeBody.cube(4), (1, 2, -1, 3)),
    lambda: B.hyperplane_projection(B.hanner_body("L(S, X(S, S), S)"), (1, 2, -1, 3)),
], ids=["hanner", "cube-section", "projection"])
def test_product_builds_one_hull(monkeypatch, make):
    """The polar takes the body's hull with its two sides swapped, so a
    Mahler product builds one hull."""
    from mahlerlab import exactgeom

    calls = []
    real = exactgeom.ExactHull.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(exactgeom.ExactHull, "__init__", counting)
    body = make()
    rep = V.mahler_product(body)
    assert len(calls) == 1
    assert rep.exact_product >= V.mahler_bound(body.dim)


def test_reduction_bound_cube_axis_equality():
    rep = V.reduction_volume_bound(B.PolytopeBody.cube(3), (0, 0, 1))
    assert rep.lhs_exact == 8 and rep.rhs_exact == 8 and rep.equality


def test_reduction_bound_cube_diagonal():
    rep = V.reduction_volume_bound(B.PolytopeBody.cube(3), (1, 1, 1))
    assert rep.lhs_exact == 9 and rep.rhs_exact == 8 and rep.holds


def test_reduction_bound_fails_on_the_octagon():
    """At n = 2 the left side is 4 and the bound reads vol K vol K° <= 8,
    which the octagon, at 28/3, does not meet: a finding, not an error."""
    octagon = B.PolytopeBody(2, vertices=[(2, 1), (1, 2), (-1, 2), (-2, 1),
                                          (-2, -1), (-1, -2), (1, -2), (2, -1)])
    assert V.mahler_product(octagon).exact_product == Fraction(28, 3)
    for u in [(1, 0), (1, 1), (1, 2), (3, 1)]:
        rep = V.reduction_volume_bound(octagon, u)
        assert (rep.lhs_exact, rep.rhs_exact) == (4, Fraction(14, 3))
        assert rep.holds is False


def test_reduction_bound_needs_rational_normal():
    with pytest.raises(B.BodyError, match="rational normal"):
        V.reduction_volume_bound(B.PolytopeBody.cube(3), (1.0, 0.5, 0.25))


def test_reduction_bound_random_tree(rng):
    from mahlerlab.symplectic import reduce_product

    for expr in ("X(S, L(S, S))", "L(S, X(S, S), S)"):
        body = B.hanner_body(expr)
        for _ in range(10):
            u = random_rational_normal(rng, body.dim)
            rep = V.reduction_volume_bound(body, u)
            assert rep.holds
            # the polar of the projected core is the sectioned dual core
            reduced = reduce_product(B.lagrangian_product(B.hanner_body(expr)), u)
            assert rep.lhs_exact == (reduced.base.core.volume_exact()
                                     * reduced.dual.core.volume_exact())


def test_reduction_bound_runs_one_double_description(monkeypatch):
    from mahlerlab import exactgeom

    calls = []
    real = exactgeom.dd_vertices

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(exactgeom, "dd_vertices", counting)
    monkeypatch.setattr(B, "dd_vertices", counting)
    rep = V.reduction_volume_bound(B.hanner_body("X(S, L(S, S), S)"), (1, 2, -1, 3))
    assert len(calls) == 1
    assert rep.holds


def test_reduced_product_volume_is_exact():
    """(cross3 / u) x (cube3 ∩ u^perp): the frame scales s and 1/s fold."""
    from mahlerlab.symplectic import reduce_product

    S = reduce_product(B.lagrangian_product(B.PolytopeBody.cross(3)), (1, 2, 3))
    for res in (V.exact_polytope_volume(S), V.volume_of(S)):
        assert res.exact == 8 and res.value == 8.0 and res.exact_sqrt is None


def test_product_volume_multiplies_factor_volumes(monkeypatch):
    """vol(K x K°) comes from the two n-dimensional hulls, not a 2n-dimensional one."""
    from mahlerlab import exactgeom

    dims = []
    real = exactgeom.ExactHull.__init__

    def recording(self, *args, **kwargs):
        real(self, *args, **kwargs)
        dims.append(self.dim)

    monkeypatch.setattr(exactgeom.ExactHull, "__init__", recording)
    res = V.volume_of(B.lagrangian_product(B.PolytopeBody.cross(4)))
    assert res.exact == 16 * Fraction(2, 3) and res.method == "exact"
    assert dims and max(dims) <= 4
    # factors up to dimension 8 each, beyond the 2n-dimensional hull's reach
    res = V.volume_of(B.lagrangian_product(B.PolytopeBody.cube(5)))
    assert res.exact == Fraction(128, 15) and res.value == float(Fraction(128, 15))


def test_volume_product_rule():
    sq3 = V.VolumeResult(3 * math.sqrt(3), "exact", exact_sqrt=(Fraction(3), Fraction(3)))
    third = V.VolumeResult(1 / math.sqrt(3), "exact", exact_sqrt=(Fraction(1), Fraction(1, 3)))
    half = V.VolumeResult(0.5, "exact", exact=Fraction(1, 2))
    assert V.volume_product(sq3, third, None).exact == 3
    assert V.volume_product(sq3, half, None).exact_sqrt == (Fraction(3, 2), Fraction(3))
    assert V.volume_product(sq3, sq3, None).exact == 27
    zero = V.VolumeResult(0.0, "exact", exact=Fraction(0))
    assert V.volume_product(zero, sq3, None).exact == 0
    mc = V.VolumeResult(2.0, "monte-carlo", ci_halfwidth=0.1, samples=10, seed=4)
    prod = V.volume_product(half, mc, 7)
    assert prod.method == "monte-carlo" and prod.exact is None and prod.seed == 7
    assert prod.value == 1.0 and prod.ci_halfwidth == 0.5 * 0.1
    closed = V.lp_ball_volume(2.0, 2)
    prod = V.volume_product(closed, half, 7)
    assert prod.method == "closed-form" and prod.seed is None and prod.samples == 0


def test_mahler_product_float_is_the_rounded_exact_product():
    # float(vol K) * float(vol K°) is one ulp below 4^6/6! for this body
    rep = V.mahler_product(B.hanner_body("X(L(S, L(S, L(S, S))), L(S, S))"))
    assert rep.exact_ratio == 1
    assert rep.product == float(V.mahler_bound(6)) and rep.ratio == 1.0


def test_mahler_product_with_explicit_dual():
    """The polar of K x T has gauge g_T°(p) + g_K°(q), also when T != K°,
    and the free-sum volume vol T° vol K° 2!2!/4!."""
    ball = B.LpBallBody(3.0, 2)
    S = B.LagrangianProductBody(ball, ball)
    rep = V.mahler_product(S)
    vol3 = V.lp_ball_volume(3.0, 2).value
    vol15 = V.lp_ball_volume(1.5, 2).value
    want = vol3**2 * vol15**2 * 2 * 2 / 24  # vol(T° ⊕ K°) = vol T° vol K° 2!2!/4!
    assert rep.vol_polar.method == "closed-form"
    assert math.isclose(rep.product, want, rel_tol=1e-12)
    # sampled oracle of the free-sum rule: hit-or-miss on the polar's gauge
    mc = V.mc_volume(S.polar(), 200_000, seed=1)
    assert abs(mc.value - rep.vol_polar.value) <= 3 * mc.ci_halfwidth


@pytest.mark.parametrize("base, dual", [
    ("X(S, S)", "L(S, S)"), ("X(S, L(S, S))", "L(S, S, S)"), ("L(S, X(S, S))", "X(S, S, S)"),
])
def test_free_sum_volume_matches_the_hull_of_its_vertices(base, dual):
    """The free-sum rule gives the volume of the 2n-dimensional hull of
    T x 0 and 0 x K, exactly."""
    K, T = B.hanner_body(base), B.hanner_body(dual)
    S = B.L1SumBody(K, T)
    zeros = (Fraction(0),) * K.dim
    verts = [v + zeros for v in T.extreme_vertices()] + [zeros + v for v in K.extreme_vertices()]
    hull = B.PolytopeBody(2 * K.dim, vertices=verts).volume_exact()
    res = V.exact_polytope_volume(S)
    assert res.exact == hull and res.value == float(hull)
    assert V.volume_of(S) == res


def test_product_of_sections_has_an_exact_polar_volume():
    """sec x sec° of the hexagon sec = cube3 ∩ (1,1,1)^perp: vol 9, and
    the polar vol sec° vol sec 2!2!/4! = 3/2."""
    sec = B.hyperplane_section(B.PolytopeBody.cube(3), [1, 1, 1])
    rep = V.mahler_product(B.lagrangian_product(sec))
    assert rep.vol_body.exact == 9 and rep.vol_polar.exact == Fraction(3, 2)
    assert rep.exact_product == Fraction(27, 2) and rep.exact_ratio == Fraction(81, 64)


def test_volume_result_validation():
    with pytest.raises(ValueError):
        V.VolumeResult(1.0, "exact", ci_halfwidth=0.1)
    with pytest.raises(ValueError):
        V.VolumeResult(1.0, "monte-carlo", samples=0)


_FULL_FIBER_MIN = B.fiber_min_gauge


def _level_free_fiber_min(child, x0, direction, iters=48, level=None):
    """The fiber search without early settling: every row runs all steps."""
    return _FULL_FIBER_MIN(child, x0, direction, iters)


def _settles_nothing(ball, x0, u, t, level):
    """The certificate switched off: every ambiguous row goes to golden section."""
    return np.zeros(len(t), dtype=bool), np.zeros(len(t), dtype=bool)


# l_p cases by p and normal; p = 1.05 and 20 sit near the ends of the range,
# and normals with zero entries leave coordinates the fiber never moves
LP_NORMALS = {"lp1.05": (1.05, (1.0, -2.0, 3.0)), "lp1.2-aligned": (1.2, (1.0, 1.0, 0.0)),
              "lp20-aligned": (20.0, (0.0, 0.0, 1.0, 1.0))}


@pytest.mark.parametrize("case", ["lp1.5", "lp3", "lp6-n4", "polytope", *LP_NORMALS])
def test_projection_hits_match_the_full_fiber_search(case, monkeypatch):
    if case == "polytope":
        u = np.array([0.3, -1.1, 0.7])
        body = B.ImageBody(B.hanner_body("X(S, L(S, S))"), B.orthogonal_complement_basis(u).T)
    elif case in LP_NORMALS:
        p, u = LP_NORMALS[case]
        body = B.hyperplane_projection(B.LpBallBody(p, len(u)), np.array(u))
    else:
        p, n = {"lp1.5": (1.5, 3), "lp3": (3.0, 3), "lp6-n4": (6.0, 4)}[case]
        u = np.random.default_rng(n).normal(size=n)
        body = B.hyperplane_projection(B.LpBallBody(p, n), u)
    assert isinstance(body, B.ImageBody)
    settled = V.mc_volume(body, samples=150_000, seed=11)
    monkeypatch.setattr(B, "fiber_min_gauge", _level_free_fiber_min)
    assert V.mc_volume(body, samples=150_000, seed=11) == settled
    # the certificate-free reference: every ambiguous row runs the full search
    monkeypatch.setattr(B, "_certify_lp_fibers", _settles_nothing)
    assert V.mc_volume(body, samples=150_000, seed=11) == settled


# ---------------------------------------------------------------------------
# Monte Carlo streams


def test_mc_volume_stream_zero_is_pinned():
    # pinned from the sampler keyed by (seed, block) alone: stream 0 keeps that key
    res = V.mc_volume(B.LpBallBody(3.0, 3), 100_000, seed=42)
    assert res.value.hex() == "0x1.6d9a95421c044p+2"
    assert res.ci_halfwidth.hex() == "0x1.6f13f32d9649ep-6"
    assert V.mc_volume(B.LpBallBody(3.0, 3), 100_000, seed=42, stream=0) == res
    assert V.mc_volume(B.LpBallBody(3.0, 3), 100_000, seed=42, stream=1).value != res.value


def test_polar_draws_its_own_stream_of_the_callers_seed():
    sec = B.hyperplane_section(B.LpBallBody(3.0, 4), np.array([1.0, 2.0, -1.0, 0.5]))
    rep = V.mahler_product(sec, samples=20_000, seed=0)
    polar = sec.polar()
    assert rep.vol_polar.seed == 0 and rep.vol_body.seed == 0
    assert rep.vol_polar == V.mc_volume(polar, 20_000, seed=0, stream=V.POLAR_STREAM)
    assert rep.vol_body == V.mc_volume(sec, 20_000, seed=0)
    # no seed offset: the polar shares no draw with another seed's stream 0
    assert rep.vol_polar.value != V.mc_volume(polar, 20_000, seed=10**6).value


def test_volume_result_records_its_stream():
    sec = B.hyperplane_section(B.LpBallBody(3.0, 4), np.array([1.0, 2.0, -1.0, 0.5]))
    rep = V.mahler_product(sec, samples=20_000, seed=3)
    assert (rep.vol_body.stream, rep.vol_polar.stream) == (0, V.POLAR_STREAM)
    assert V.mc_volume(sec.polar(), 20_000, seed=rep.vol_polar.seed,
                       stream=rep.vol_polar.stream) == rep.vol_polar
    assert rep.as_dict()["vol_polar"]["stream"] == V.POLAR_STREAM
    # a product of two volumes was drawn on no single stream
    assert V.volume_of(B.lagrangian_product(sec), 20_000, seed=3).stream is None


def test_parts_of_one_call_draw_distinct_streams(monkeypatch):
    calls = []
    mc_volume = V.mc_volume

    def spy(body, samples, seed, *, stream=0):
        calls.append((seed, stream))
        return mc_volume(body, samples, seed, stream=stream)

    monkeypatch.setattr(V, "mc_volume", spy)
    sec = B.hyperplane_section(B.LpBallBody(3.0, 3), np.array([1.0, 2.0, 2.0]))
    product = B.lagrangian_product(sec)
    for body, parts in ((sec, 2), (product, 4), (B.lagrangian_product(product), 8)):
        calls.clear()
        rep = V.mahler_product(body, samples=2_000, seed=5)
        assert len(calls) == parts
        assert len(set(calls)) == parts and {seed for seed, _ in calls} == {5}
        assert rep.vol_body.seed == rep.vol_polar.seed == 5


def load_oracles():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def test_cube_section_products_equal_the_closed_form():
    """The whole exact chain (cut, double description, hull, volume, polar)
    against the vertex-sum and Cauchy formulas for a central section of the
    cube and its polar, the shadow of the cross-polytope."""
    cube_section_product = load_oracles().cube_section_product
    rng = np.random.default_rng(1801)
    for n in (3, 4, 5):
        cube = B.PolytopeBody.cube(n)
        for _ in range(40):
            u = random_rational_normal(rng, n, max_num=7, max_den=5)
            rep = V.mahler_product(B.hyperplane_section(cube, u))
            assert rep.exact_product == cube_section_product(u), (n, u)
