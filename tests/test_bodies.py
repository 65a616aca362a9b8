"""Body representations, duality operations, and their invariants."""
import contextlib
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mahlerlab import bodies as B
from mahlerlab import exactgeom
from mahlerlab import volume as V
from mahlerlab.exactgeom import ExactHull, fractions, point_list

from conftest import (
    hanner_counts,
    nonzero_fraction_vectors,
    random_symmetric_vpolytope,
    shadow_area_oracle,
    shoelace_area,
    support_by_vertex_scan,
    vertex_hull,
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_cube():
    body = B.parse_body({"type": "cube", "dim": 3})
    assert body.dim == 3
    assert len(body.halfspaces()) == 6


def reference_cube(n):
    """The cube built directly, not as a Hanner product: its coordinate facet
    rows, and its sign vectors as vertices up to n = 10."""
    normals = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    verts = None
    if n <= 10:
        verts = point_list(itertools.product([1, -1], repeat=n))
    body = B.PolytopeBody._of_point_lists(
        n, verts, point_list(normals), tree="X(" + ", ".join(["S"] * n) + ")" if n > 1 else "S")
    body.tag = {"type": "cube", "dim": n}
    return body


@pytest.mark.parametrize("n", range(1, 11))
def test_cube_is_the_reference_cube(n):
    ref = reference_cube(n)
    for body, expect, tag in ((B.PolytopeBody.cube(n), ref, "cube"),
                              (B.PolytopeBody.cross(n), ref.polar(), "cross")):
        assert body.dim == n
        assert body.vertices() == expect.vertices()
        assert body.halfspaces() == expect.halfspaces()
        assert body.tree == expect.tree
        assert body.describe() == {"type": tag, "dim": n}
        assert body._given == expect._given == (True, True)


def test_parse_hanner_expression():
    body = B.parse_body({"type": "hanner", "expr": "X(S, L(S, S))"})
    assert body.dim == 3
    # oracle: independently computed hull of the vertex set
    hull = vertex_hull(body.vertices())
    assert len(hull.vertex_points()) == 8
    assert len(hull.facets()) == 6
    assert (len(body.extreme_vertices()), len(body.hull().facets())) == (8, 6)


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


LP3 = {"type": "lp_ball", "p": 3, "dim": 3}
FLOAT_CUT = {"type": "section", "body": LP3, "normal": [1, 2, 3]}
# descriptions whose bodies describe themselves with every type `describe` writes
ROUNDTRIP_DESCRIPTIONS = [
    {"type": "cube", "dim": 3}, {"type": "cross", "dim": 3}, LP3,
    {"type": "hanner", "expr": "L(S, X(S, S))"},
    {"type": "vpoly", "vertices": [["1", "1"], ["-1", "-1"], ["1", "-1"], ["-1", "1"]]},
    {"type": "hpoly", "A": [[2, 0], [0, 1], [-2, 0], [0, -1]], "b": [1, 1, 1, 1]},
    {"type": "section", "body": {"type": "cube", "dim": 3}, "normal": [1, 2, 3]},
    FLOAT_CUT, {"type": "polar", "body": FLOAT_CUT},
    {"type": "projection", "body": LP3, "normal": [1, 2, 3]},
    {"type": "section", "body": {"type": "cube", "dim": 4}, "normal": [0.3, -0.7, 0.5, 0.41]},
    {"type": "linimg", "body": LP3, "matrix": [[1, 0.5, 0], [0, 2, 0], [0.1, 0, 1]]},
    {"type": "product", "body": FLOAT_CUT},
    {"type": "polar", "body": {"type": "product", "body": FLOAT_CUT}},
    {"type": "polar", "body": {"type": "product", "body": {"type": "lp_ball", "p": 3, "dim": 2}}},
    {"type": "polar", "body": {"type": "product", "body": {"type": "cross", "dim": 2},
                               "dual": {"type": "hanner", "expr": "L(S, S)"}}},
]


def test_describe_roundtrip():
    """``parse_body(body.describe())`` rebuilds every body type ``describe``
    writes, the float cuts and images included, with the same description
    and the same gauge bytes."""
    rng = np.random.default_rng(0)
    types = set()
    for d in ROUNDTRIP_DESCRIPTIONS:
        body = B.parse_body(d)
        again = B.parse_body(json.dumps(body.describe()))
        assert again.dim == body.dim and again.describe() == body.describe(), d
        x = rng.normal(size=(64, body.dim))
        assert np.asarray(again.gauge(x)).tobytes() == np.asarray(body.gauge(x)).tobytes(), d
        types |= {m.group(1) for m in re.finditer(r'"type": "(\w+)"', json.dumps(body.describe()))}
    # every type but the operations a description may ask for
    assert types == set(B._BODY_FIELDS) - {"polar", "section", "projection", "linimg"}


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
    assert float(cube3.gauge([0.5, -0.5, 0.25])) == 0.5
    cross2 = B.PolytopeBody.cross(2)
    assert math.isclose(cross2.gauge([0.3, 0.3]), 0.6)
    assert cube3.gauge([0, 0, 0]) == 0.0


def test_support_examples():
    cube3 = B.PolytopeBody.cube(3)
    cross3 = B.PolytopeBody.cross(3)
    assert cube3.support([1, 1, 1]) == 3.0
    assert cross3.support([1, 1, 1]) == 1.0
    ball = B.LpBallBody(2.0, 3)
    u = np.array([1.0, 2.0, -2.0])
    assert math.isclose(ball.support(u), 3.0)


def test_support_matches_vertex_scan_oracle():
    rng = np.random.default_rng(11)
    body = random_symmetric_vpolytope(rng, 3, 5)
    for _ in range(10):
        u = rng.normal(size=3)
        assert math.isclose(
            body.support(u), support_by_vertex_scan(body.vertices(), u),
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


def reference_support_witness(body, u):
    """Witnesses as computed on C-ordered rows throughout: the vertex rows
    taken by index, an einsum per block, and the factor blocks joined."""
    u = np.ascontiguousarray(u, dtype=float)
    if isinstance(body, B.PolytopeBody):
        V = body._floats("V")
        return V.take((u @ V.T).argmax(axis=-1), axis=0)
    if isinstance(body, B.LpBallBody):
        a = np.abs(u)
        nq = np.sum(a ** body.q, axis=-1, keepdims=True) ** (1.0 / body.q)
        safe = np.where(nq > 0, nq, 1.0)
        return np.where(nq > 0, np.sign(u) * (a / safe) ** (body.q - 1.0), 0.0)
    if isinstance(body, B.DiagonalImageBody):
        return reference_support_witness(body.core, u * body.scales) * body.scales
    if isinstance(body, B.ImageBody):
        return reference_support_witness(body.child, u @ body.M) @ body.M.T
    n = body.n
    up, uq = u[..., :n], u[..., n:]
    wp = reference_support_witness(body.dual, up)
    wq = reference_support_witness(body.base, uq)
    if isinstance(body, B.LagrangianProductBody):
        return np.concatenate([wp, wq], -1)
    in_p = (np.einsum("...i,...i->...", up, wp) >= np.einsum("...i,...i->...", uq, wq))[..., None]
    return np.concatenate([np.where(in_p, wp, 0.0), np.where(in_p, 0.0, wq)], -1)


def _layout_body(name):
    cross3 = B.PolytopeBody.cross(3)
    skew = np.array([[2.0, -1.0, 0.5], [0.0, 1.5, -2.0], [1.0, 0.0, 3.0]])
    if name == "polytope":
        return cross3
    if name == "polytope-cube4":
        return B.PolytopeBody.cube(4)
    if name.startswith("lp"):
        p, dim = name[2:].split("-")
        return B.LpBallBody(float(p), int(dim))
    if name == "diagonal":
        return B.DiagonalImageBody(cross3, (Fraction(2), Fraction(1, 3), Fraction(5)))
    if name == "image":
        return B.ImageBody(cross3, skew)
    if name == "product":
        return B.lagrangian_product(cross3)
    if name == "product-image-diagonal":
        return B.LagrangianProductBody(B.ImageBody(cross3, skew),
                                       _layout_body("diagonal"))
    if name == "product-lp":
        return B.lagrangian_product(B.LpBallBody(1.5, 2))
    if name == "l1sum":
        return B.lagrangian_product(cross3).polar()
    if name == "l1sum-lp":
        return B.lagrangian_product(B.LpBallBody(3.0, 4)).polar()
    raise ValueError(name)


@pytest.mark.parametrize("name", ["polytope", "polytope-cube4", "lp1.5-3", "lp2-4", "lp3-9",
                                  "diagonal", "image", "product", "product-image-diagonal",
                                  "product-lp", "l1sum", "l1sum-lp"])
def test_support_witness_does_not_depend_on_layout(name):
    """C-ordered rows and the row view of coordinate planes give the same
    witness bytes, those of the row-wise reference; for the planes view the
    witness's transpose is C-contiguous planes."""
    body = _layout_body(name)
    d = body.dim
    rng = np.random.default_rng(len(name))
    for starts, m in ((5, 12), (1, 4)):
        rows = rng.normal(size=(starts, m, d)) * 2.0 ** rng.integers(-20, 21, size=(starts, m, d))
        rows[:, ::3] = rng.integers(-1, 2, size=rows[:, ::3].shape)  # ties, and zero rows
        want = reference_support_witness(body, rows).tobytes()
        planes = np.ascontiguousarray(np.moveaxis(rows, -1, 0))
        view = planes.reshape(d, -1).T
        for u in (rows, rows.reshape(-1, d), np.moveaxis(planes, 0, -1), view):
            w = body.support_witness(u)
            assert w.shape == u.shape
            assert w.tobytes() == want
        assert w.T.flags.c_contiguous


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_row_dot_sums_as_einsum_on_c_rows(n):
    # the free sum compares its blocks' support values, so their bytes must
    # not follow the layout; einsum's order of addition does from n = 3
    rng = np.random.default_rng(n)
    a, b = (rng.normal(size=(40, 2 * n)) * 2.0 ** rng.integers(-30, 31, size=(40, 2 * n))
            for _ in range(2))
    want = np.einsum("...i,...i->...", a[:, :n], b[:, :n]).tobytes()
    planes_a, planes_b = np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T
    for x, y in ((a, b), (planes_a, planes_b), (a, planes_b)):
        assert B._row_dot(x[:, :n], y[:, :n]).tobytes() == want


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
    assert box.support([1, 0, 0]) == 2.0
    assert box.support([0, 1, 0]) == 1.0


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
        assert math.isclose(img.support(u), body.support(Mf.T @ u),
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


def reference_orthonormal_frame(u):
    """The float frame as an earlier release computed it, kept as an oracle
    for ``orthogonal_complement_basis`` on floats."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(u)
    if not 0 < norm < np.inf:
        raise B.BodyError("normal must be finite, nonzero, and of finite norm")
    n = len(u)
    un = u / norm
    pivot = int(np.argmax(np.abs(u)))
    cols = []
    for j in range(n):
        if j == pivot:
            continue
        v = np.zeros(n)
        v[j] = 1.0
        v = v - (v @ un) * un
        for c in cols:
            v = v - (v @ c) * c
        v = v / np.linalg.norm(v)
        cols.append(v)
    return np.stack(cols, axis=1)


def reference_rational_basis(u):
    """The rational basis as an earlier release computed it, as rows: the
    oracle for ``orthogonal_complement_basis`` on Fractions."""
    n = len(u)
    mags = [abs(x) for x in u]
    pivot = mags.index(max(mags))
    basis = []
    uu = sum(x * x for x in u)
    for j in range(n):
        if j == pivot:
            continue
        v = [Fraction(int(k == j)) for k in range(n)]
        coef = u[j] / uu
        v = [v[k] - coef * u[k] for k in range(n)]
        for b in basis:
            c = sum(v[k] * b[k] for k in range(n)) / sum(x * x for x in b)
            v = [v[k] - c * b[k] for k in range(n)]
        basis.append(tuple(v))
    return basis


def test_orthonormal_frame(rng):
    for n in (2, 3, 5):
        u = rng.normal(size=n) * 10.0 ** rng.integers(-5, 6)
        F = B.orthogonal_complement_basis(u)
        assert F.shape == (n, n - 1) and F.dtype == float
        assert np.allclose(F.T @ F, np.eye(n - 1), atol=1e-12)
        assert np.allclose(u @ F / np.linalg.norm(u), 0.0, atol=1e-12)
    # a zero normal, a non-finite entry, an overflowing |u| and an
    # underflowing |u|^2; an exact zero normal too
    for bad in ([0.0, 0.0, 0.0], [1.0, np.inf, 1.0], [np.nan, 1.0, 0.0],
                [1.0, 1e308, 1e308], [1e-200, 1e-200, 0.0]):
        with pytest.raises(B.BodyError, match="finite"):
            B.orthogonal_complement_basis(np.array(bad))
    with pytest.raises(B.BodyError, match="finite"):
        B.orthogonal_complement_basis(np.array([Fraction(0)] * 3, dtype=object))


FLOAT_NORMALS = st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-10.0, 10.0) | st.integers(-4, 4).map(float) | st.just(-0.0),
             min_size=n, max_size=n),
    st.integers(-100, 100)))


@settings(max_examples=300, deadline=None)
@given(FLOAT_NORMALS)
def test_float_frame_is_the_reference_frame_bytes(case):
    # zero entries, -0.0 and integer-valued floats are drawn on their own
    entries, exponent = case
    u = np.array(entries) * 10.0 ** exponent
    if not 0 < u @ u < np.inf:
        with pytest.raises(B.BodyError):
            B.orthogonal_complement_basis(u)
        return
    F = B.orthogonal_complement_basis(u)
    assert F.tobytes() == reference_orthonormal_frame(u).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(nonzero_fraction_vectors))
def test_rational_basis_is_the_reference_basis(u):
    cols, den, norms2 = B.orthogonal_complement_basis(np.array(u, dtype=object))
    assert len(cols) == len(u) - 1 and den > 0
    assert all(type(x) is int for c in cols for x in c)
    fracs = [tuple(Fraction(x, den) for x in c) for c in cols]
    assert fracs == reference_rational_basis(u)
    assert norms2 == [sum(x * x for x in c) for c in fracs]
    assert all(sum(x * y for x, y in zip(c, u)) == 0 for c in fracs)
    assert all(sum(x * y for x, y in zip(a, b)) == 0
               for i, a in enumerate(fracs) for b in fracs[i + 1:])


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
    body = B.PolytopeBody(2, vertices=[(1, 0), (-1, 0)])
    assert body.is_degenerate
    assert body.volume_exact() == 0


def reference_is_degenerate(body) -> bool:
    """The rank of the vertex differences, over the integers."""
    verts = body.vertices()
    diffs = [tuple(x - y for x, y in zip(p, verts[0])) for p in verts[1:]]
    return exactgeom.int_rank(exactgeom.scale_to_int(diffs)[0]) < body.dim


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_exact_volume_scales_the_vertex_list_once(dim, monkeypatch):
    """Degeneracy is read off the hull: a V-body's vertex list is put in the
    point-list format once, when the body is built, and its exact volume
    converts nothing; is_degenerate and the volume are those of the rank of
    the vertex differences and of the hull."""
    rng = np.random.default_rng(dim)
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for trial in range(12):
        # generators spanning the space, or fewer of them (degenerate)
        rank = dim if trial % 3 else dim - 1
        gens = rng.integers(-3, 4, size=(rank, dim))
        pts = rng.integers(-2, 3, size=(4, rank)) @ gens
        verts = [tuple(Fraction(int(x), 1 + trial % 2) for x in row) for row in pts]
        verts += [tuple(-x for x in v) for v in verts]
        if len(set(verts)) < 2:
            continue
        for name in ("point_list", "scale_to_int", "fractions"):
            monkeypatch.setattr(exactgeom, name, counted(name, getattr(exactgeom, name)))
            monkeypatch.setattr(B, name, counted(name, getattr(B, name)))
        calls.clear()
        body = B.PolytopeBody(dim, vertices=verts)
        assert calls == ["point_list"]
        calls.clear()
        vol = body.volume_exact()
        monkeypatch.undo()
        assert calls == []
        assert body.is_degenerate == reference_is_degenerate(body)
        want = Fraction(0) if body.is_degenerate \
            else vertex_hull(body.vertices()).volume()
        assert type(vol) is Fraction and vol == want


# ---------------------------------------------------------------------------
# Hanner bodies


def test_hanner_counts_rules():
    assert hanner_counts("X(S, S, S)") == (8, 6)
    assert hanner_counts("L(S, S, S)") == (6, 8)
    assert hanner_counts("X(S, L(S, S))") == (8, 6)


def test_hanner_counts_match_hull_up_to_six_leaves():
    rng = np.random.default_rng(19)
    from mahlerlab.verify import random_hanner_expr

    for leaves in range(2, 7):
        for _ in range(3):
            expr = random_hanner_expr(leaves, rng)
            body = B.hanner_body(expr)
            v_pred, f_pred = hanner_counts(expr)
            hull = vertex_hull(body.vertices())
            assert len(hull.vertex_points()) == v_pred
            assert len(hull.facets()) == f_pred


def test_hanner_polar_swaps_operations():
    body = B.hanner_body("X(S, L(S, S))")
    pol = body.polar()
    assert pol.tree == "L(S, X(S, S))"
    assert (len(pol.extreme_vertices()), len(pol.hull().facets())) == (6, 8)


def test_filled_lists_pass_whole_and_given_lists_are_filtered(monkeypatch):
    """A list double description filled must pass the hull's rank rule
    whole: the supporting rows (1/2, 1/2, 0) and its twin, which touch cube3
    along an edge, slipped into its filled normals, or the facet centres
    +-(1, 0, 0) into its filled vertices, raise AssertionError.  The same
    rows in a given H-list are dropped by the hull, with volume 8."""
    edge = point_list([(Fraction(1, 2), Fraction(1, 2), 0), (Fraction(-1, 2), Fraction(-1, 2), 0)])
    centres = point_list([(1, 0, 0), (-1, 0, 0)])
    real = B.dd_vertices
    cube_vertices = list(itertools.product([1, -1], repeat=3))
    cube_rows = [(a, 1) for a, _ in B.PolytopeBody.cube(3).halfspaces()]
    for extra, body in ((edge, lambda: B.PolytopeBody(3, vertices=cube_vertices)),
                        (centres, lambda: B.PolytopeBody(3, halfspaces=cube_rows))):
        monkeypatch.setattr(B, "dd_vertices",
                            lambda points, extra=extra: exactgeom.sorted_points(real(points) + extra))
        with pytest.raises(AssertionError, match="certificate"):
            body().volume_exact()
        monkeypatch.undo()
    body = B.PolytopeBody(3, halfspaces=cube_rows + [(a, 1) for a in fractions(edge)])
    assert body.volume_exact() == 8
    assert len(body.halfspaces()) == 8 and len(body.hull().facets()) == 6
    assert body.polar().volume_exact() == Fraction(4, 3)
    assert len(body.polar().extreme_vertices()) == 6


def test_halfspaces_are_stored_as_unit_offset_normals():
    """Rows (a, b) are kept as the normals a/b, sorted and without
    duplicates, which are the polar's vertices."""
    body = B.PolytopeBody(2, halfspaces=[((2, 0), 2), ((-4, 0), 4), ((0, 3), 1),
                                         ((0, -3), "1"), ((0, 6), 2)])
    normals = tuple(tuple(Fraction(x) for x in a) for a in ((-1, 0), (0, -3), (0, 3), (1, 0)))
    assert body.halfspaces() == tuple((a, 1) for a in normals)
    assert body.describe() == {"type": "hpoly", "A": [["-1", "0"], ["0", "-3"], ["0", "3"], ["1", "0"]],
                               "b": ["1"] * 4}
    assert body.polar().vertices() == normals
    assert body.vertices() == ((-1, Fraction(-1, 3)), (-1, Fraction(1, 3)),
                               (1, Fraction(-1, 3)), (1, Fraction(1, 3)))


def reference_dual_tree(expr):
    """The polar's tree by parsing, swapping X and L, and rendering."""
    def swap(t):
        return "S" if t == "S" else ({"X": "L", "L": "X"}[t[0]], [swap(c) for c in t[1]])
    return B.hanner_tree_str(swap(B.parse_hanner(expr)))


def hanner_trees(min_leaves, max_leaves):
    """Hanner trees of X and L nodes with 2 to 4 children each."""
    def leaves(t):
        return 1 if t == "S" else sum(leaves(c) for c in t[1])
    return st.recursive(
        st.just("S"),
        lambda kids: st.tuples(st.sampled_from("XL"), st.lists(kids, min_size=2, max_size=4)),
        max_leaves=max_leaves,
    ).filter(lambda t: min_leaves <= leaves(t) <= max_leaves)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hanner_trees(1, 16))
def test_dual_tree_matches_parse_and_render(tree):
    expr = B.hanner_tree_str(tree)
    assert B.dual_tree(expr) == reference_dual_tree(expr)
    assert B.dual_tree(B.dual_tree(expr)) == expr


def _point_list_bodies(tree, kind, u, M):
    """A Hanner body, a rational section or projection core, an integer
    linear image, or the V-only rebuild of the body."""
    body = B.hanner_body(B.hanner_tree_str(tree))
    if kind == "section":
        return B.hyperplane_section(body, u[:body.dim]).core
    if kind == "projection":
        return B.hyperplane_projection(body, u[:body.dim]).core
    if kind == "image":
        return body.linear_image([row[:body.dim] for row in M[:body.dim]])
    if kind == "vonly":
        return B.PolytopeBody(body.dim, vertices=body.vertices())
    return body


def _state(P):
    return (P.vertices(), P.halfspaces(), P._given, P.tree)


@contextlib.contextmanager
def _parse_calls():
    """The calls of ``PolytopeBody.__init__`` and ``rational_vector`` made
    inside the block."""
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(B.PolytopeBody, "__init__", counting("__init__", B.PolytopeBody.__init__))
        mp.setattr(B, "rational_vector", counting("rational_vector", B.rational_vector))
        yield calls


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tree=hanner_trees(2, 6),
       kind=st.sampled_from(["hanner", "section", "projection", "image", "vonly"]),
       u=nonzero_fraction_vectors(6).filter(lambda v: any(v[:2])),  # nonzero on R^2
       shift=st.integers(1, 5))
def test_polar_swaps_the_two_point_lists(tree, kind, u, shift):
    """polar() swaps the vertices with the unit-offset normals, parsing
    nothing; twice it gives the body back."""
    # 2 I plus a shift permutation, and its leading blocks: invertible, as
    # every eigenvalue of the shift part has modulus at most 1
    M = [[Fraction(2 * (i == j) + (j == (i + shift) % 6)) for j in range(6)]
         for i in range(6)]
    P = _point_list_bodies(tree, kind, u, M)
    with _parse_calls() as calls:
        before = P.describe()
        Q = P.polar()
        PP = Q.polar()
    assert calls == []
    assert Q._given == P._given[::-1]
    assert PP.describe() == before
    assert _state(PP) == _state(P)
    assert P.describe() == before
    assert Q.vertices() == tuple(a for a, _ in P.halfspaces())
    assert Q.halfspaces() == tuple((v, 1) for v in P.vertices())
    if kind == "vonly":
        hull = vertex_hull(P.vertices())
        assert tuple(a for a, _ in P.halfspaces()) == tuple(
            sorted(tuple(x / c for x in a) for a, c in hull.facets()))
    # a body whose hull is built gives the polar its hull swapped, which is
    # the hull the polar would build
    R = _point_list_bodies(tree, kind, u, M)
    R.hull()
    with _parse_calls() as calls:
        R_polar = R.polar()
    assert calls == []
    assert R_polar._vertices == Q._vertices and R_polar.vertices() == Q.vertices()
    fresh = ExactHull(R_polar._vertex_list(), R_polar._normal_list())
    assert R_polar._hull is not None and R_polar.hull() is R_polar._hull
    assert (R_polar.hull().vertices, R_polar.hull().normals) == (fresh.vertices, fresh.normals)
    assert R_polar.volume_exact() == fresh.volume() == Q.volume_exact()


@pytest.mark.parametrize("expr", ["X(S, L(S, S))", "L(S, X(S, S), S)", "X(L(S, S), L(S, S))"])
def test_describe_is_the_body_as_given(expr):
    """Sections, projections and their polars describe themselves the same
    before and after a Mahler product computed their other representation."""
    rng = np.random.default_rng(19)
    body = B.hanner_body(expr)
    for _ in range(4):
        u = tuple(Fraction(int(x)) for x in rng.integers(-5, 6, size=body.dim))
        if not any(u):
            continue
        for cut, given, swapped in ((B.hyperplane_section, "hpoly", "vpoly"),
                                    (B.hyperplane_projection, "vpoly", "hpoly")):
            for polar, kind in ((False, given), (True, swapped)):
                K = cut(body, u).polar() if polar else cut(body, u)
                before = K.describe()
                assert before["core"]["type"] == kind
                V.mahler_product(K)
                assert K.describe() == before


# ---------------------------------------------------------------------------
# the exact cuts and images against Fraction matrix products
#
# The cuts and ``linear_image`` map integer point lists (``map_points``) and
# put them in the point-list format on integer keys; these are the
# object-dtype and Fraction products, and the Fraction sort, they used before.


def object_products(points, basis):
    return [tuple(np.array(p, dtype=object) @ basis) for p in points]


def reference_basis(u):
    """The rational Gram-Schmidt basis of u-perp as an object array of
    columns."""
    return np.array(reference_rational_basis(list(B.rational_vector(u))), dtype=object).T


def reference_cut(body, u, kind):
    """The core's point list and the squared scales of an exact cut."""
    basis = reference_basis(u)
    norms2 = (basis * basis).sum(axis=0)
    if kind == "section":
        return object_products([a for a, _ in body.halfspaces()], basis), tuple(norms2)
    return object_products(body.vertices(), basis), tuple(1 / norms2)


def reference_linear_image(body, M):
    """The vertices M v and the normals a M^-1."""
    n = body.dim
    Minv = B.invert_rational_matrix(M)
    return ([tuple(sum(M[i][k] * v[k] for k in range(n)) for i in range(n))
             for v in body.vertices()],
            [tuple(sum(a[k] * Minv[k][i] for k in range(n)) for i in range(n))
             for a, _ in body.halfspaces()])


def reference_canonical(points):
    """The point-list format by hashing and sorting the Fraction tuples."""
    return tuple(sorted(set(points)))


def all_fractions(points):
    return all(type(x) is Fraction for p in points for x in p)


def primitive_pairs(points):
    return all(s > 0 and math.gcd(s, *X) == 1 for X, s in points)


def check_cuts_and_image(body, M, u):
    """The image's point lists and, on the image and on its rebuilds from
    one representation, both cuts' core point lists and squared scales equal
    the reference, Fraction for Fraction, and every stored pair is
    primitive."""
    n = body.dim
    img = body.linear_image(M)
    verts, normals = reference_linear_image(body, M)
    assert img.vertices() == reference_canonical(verts)
    assert tuple(a for a, _ in img.halfspaces()) == reference_canonical(normals)
    assert all_fractions(img.vertices()) and all_fractions(a for a, _ in img.halfspaces())
    assert primitive_pairs(img._vertices) and primitive_pairs(img._normals)
    cols, den, _ = B.orthogonal_complement_basis(np.array(B.rational_vector(u), dtype=object))
    basis = reference_basis(u)
    for P in (img, B.PolytopeBody(n, vertices=img.vertices()),
              B.PolytopeBody(n, halfspaces=img.halfspaces())):
        for kind, cut in (("section", B.hyperplane_section),
                          ("projection", B.hyperplane_projection)):
            res = cut(P, u)
            points, scales2 = reference_cut(P, u, kind)
            core = tuple(a for a, _ in res.core.halfspaces()) if kind == "section" \
                else res.core.vertices()
            assert core == reference_canonical(points) and all_fractions(core)
            stored = res.core._normals if kind == "section" else res.core._vertices
            assert primitive_pairs(stored)
            assert res.scales2 == scales2
        # the map itself, point by point and in order
        P.halfspaces()  # fills the normals when they were not given
        for pairs in (P._vertices, P._normals):
            mapped = fractions(exactgeom.map_points(pairs, cols, den))
            assert list(mapped) == object_products(fractions(pairs), basis)
            assert all_fractions(mapped)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tree=hanner_trees(2, 5), u=nonzero_fraction_vectors(5).filter(lambda v: any(v[:2])),
       dens=st.lists(st.integers(1, 7), min_size=5, max_size=5), shift=st.integers(1, 4))
def test_exact_cuts_and_images_match_the_fraction_products(tree, u, dens, shift):
    body = B.hanner_body(B.hanner_tree_str(tree))
    n = body.dim
    # 2 I plus a shift permutation, row i over dens[i]: invertible
    M = [[Fraction(2 * (i == j) + (j == (i + shift) % n), dens[i]) for j in range(n)]
         for i in range(n)]
    check_cuts_and_image(body, M, u[:n])


def test_exact_cut_with_mixed_denominators_and_a_negative_entry():
    body = B.hanner_body("X(S, L(S, S), S)")
    M = [[Fraction(1, 2), 0, Fraction(-2, 3), 0], [1, 3, 0, 0],
         [0, Fraction(5, 7), 1, 0], [0, 0, Fraction(1, 4), -1]]
    check_cuts_and_image(body, M, (Fraction(-3, 2), Fraction(2, 5), 1, Fraction(7, 3)))


# ---------------------------------------------------------------------------
# Lagrangian products


def test_lagrangian_product_membership():
    S = B.lagrangian_product(B.PolytopeBody.cross(3))
    # (p, q) in S iff |q|_1 <= 1 and |p|_inf <= 1
    z = np.concatenate([[0.9, -0.9, 0.5], [0.3, 0.3, 0.3]])
    assert bool(S.contains_batch(z))
    z_bad_q = np.concatenate([[0.0, 0.0, 0.0], [0.6, 0.6, 0.0]])
    assert not bool(S.contains_batch(z_bad_q))
    z_bad_p = np.concatenate([[1.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert not bool(S.contains_batch(z_bad_p))


def test_lagrangian_product_of_ball_is_selfdual_pair():
    S = B.lagrangian_product(B.LpBallBody(2.0, 2))
    assert isinstance(S.dual, B.LpBallBody) and S.dual.p == 2.0


def test_lagrangian_product_of_segment_is_square():
    S = B.lagrangian_product(B.PolytopeBody.cube(1))
    assert V.volume_of(S).exact == 4


def test_product_polar_is_a_free_sum_of_the_factors_polars():
    K, T = B.PolytopeBody.cross(2), B.PolytopeBody.cube(2)
    pol = B.LagrangianProductBody(K, T).polar()
    assert isinstance(pol, B.L1SumBody) and not isinstance(pol, B.LagrangianProductBody)
    # K° = cube2 in the q-block, T° = cross2 in the p-block
    assert (pol.base.tree, pol.dual.tree) == ("X(S, S)", "L(S, S)")
    again = pol.polar()
    assert isinstance(again, B.LagrangianProductBody)
    X = np.random.default_rng(23).normal(size=(40, 4))
    assert np.array_equal(again.gauge(X), B.LagrangianProductBody(K, T).gauge(X))


@pytest.mark.parametrize("make", [
    lambda: B.LagrangianProductBody(B.PolytopeBody.cross(2), B.PolytopeBody.cube(2)),
    lambda: B.lagrangian_product(B.LpBallBody(3.0, 3)),
    lambda: B.LagrangianProductBody(B.hanner_body("X(S, L(S, S))"), B.LpBallBody(1.5, 3)),
])
def test_free_sum_witness_attains_the_support(make):
    """The witness lies in the free sum (gauge <= 1) and attains its support
    value, which is the larger of the two blocks' support values."""
    pol = make().polar()
    U = np.random.default_rng(22).normal(size=(5, 40, pol.dim))
    W = pol.support_witness(U)
    assert W.shape == U.shape
    assert np.allclose(np.sum(U * W, axis=-1), pol.support(U), rtol=1e-12, atol=1e-12)
    assert np.all(pol.gauge(W) <= 1.0 + 1e-12)
    # one block of each witness is zero
    n = pol.n
    assert np.all((W[..., :n] == 0).all(axis=-1) | (W[..., n:] == 0).all(axis=-1))


def test_product_polar_gauge_identity():
    """The polar's gauge is the product's support function, also for
    explicit duals T != K°."""
    l3, cube2 = B.LpBallBody(3.0, 2), B.PolytopeBody.cube(2)
    rng = np.random.default_rng(20)
    for S in [B.lagrangian_product(B.PolytopeBody.cross(2)), B.lagrangian_product(l3),
              B.LagrangianProductBody(l3, l3), B.LagrangianProductBody(cube2, l3),
              B.LagrangianProductBody(l3, cube2)]:
        pol = S.polar()
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


def test_lp_section_box_is_the_per_axis_box_bytes():
    # SliceBody batches the axes into one polar gauge; the base class asks
    # each axis's support alone
    rng = np.random.default_rng(41)
    for p in (1.05, 1.5, 3.0, 6.0, 20.0):
        for n in (3, 4, 5):
            for _ in range(4):
                sec = B.hyperplane_section(B.LpBallBody(p, n), rng.normal(size=n))
                assert isinstance(sec, B.SliceBody)
                box = sec.bounding_halfwidths()
                assert box.tobytes() == B.ConvexBody.bounding_halfwidths(sec).tobytes()


def test_fiber_min_gauge_matches_scalar_scan():
    ball = B.LpBallBody(1.5, 3)
    rng = np.random.default_rng(22)
    x0 = rng.normal(size=(20, 3))
    direction = np.array([0.0, 0.0, 1.0])
    vals = B.fiber_min_gauge(ball, x0, direction)
    ts = np.linspace(-10, 10, 20001)
    brute = ball.gauge(x0[:, None, :] + ts[None, :, None] * direction).min(axis=1)
    assert np.all(vals <= brute + 1e-9)
    assert np.all(vals >= brute - 1e-4)


FIBER_CHILDREN = [B.LpBallBody(p, 3) for p in (1.2, 1.5, 3.0, 6.0)] + [
    B.hanner_body("X(S, L(S, S))")]


@settings(max_examples=60, deadline=None)
@given(child=st.sampled_from(FIBER_CHILDREN), iters=st.sampled_from([28, 48]),
       seed=st.integers(0, 2**32 - 1), level=st.floats(0.25, 4.0),
       rel=st.sampled_from([1e-6, 1e-10]))
def test_fiber_min_with_level_decides_like_the_full_search(child, iters, seed, level, rel):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    x0 = rng.normal(size=(300, 3))
    # half the points as drawn, half scaled to within rel of the level on
    # either side (the fiber minimum is 1-homogeneous in x0)
    full = B.fiber_min_gauge(child, x0[150:], u, iters=iters)
    x0[150:] *= (level / full * (1.0 + rel * rng.choice([-1.0, 1.0], size=150)))[:, None]
    full = B.fiber_min_gauge(child, x0, u, iters=iters)
    settled = B.fiber_min_gauge(child, x0, u, iters=iters, level=level)
    assert np.array_equal(settled <= level, full <= level)
    assert np.all(settled >= full)  # a settled row stops at an earlier best value


# ---------------------------------------------------------------------------
# the layout of gauges and membership: row-layout oracles


def reference_gauge(body, x):
    """The gauge as computed on C-ordered rows throughout: row products
    x @ M.T, sums and maxima along rows, and the fiber search on rows."""
    x = np.ascontiguousarray(x, dtype=float)
    if isinstance(body, B.PolytopeBody):
        return np.max(x @ body._floats("A").T, axis=-1)
    if isinstance(body, B.LpBallBody):
        return np.sum(B.abs_power(x, body.p), axis=-1) ** (1.0 / body.p)
    if isinstance(body, B.SliceBody):
        return reference_gauge(body.child, x @ body.basis.T)
    if isinstance(body, B.ImageBody):
        if body._kernel is None:
            return reference_gauge(body.child, x @ body._inv.T)
        return reference_fiber_min_gauge(body.child, x @ body._pinv.T, body._kernel)
    if isinstance(body, B.DiagonalImageBody):
        return reference_gauge(body.core, x / body.scales)
    n = body.n
    gp, gq = reference_gauge(body.dual, x[..., :n]), reference_gauge(body.base, x[..., n:])
    return np.maximum(gp, gq) if isinstance(body, B.LagrangianProductBody) else gp + gq


def reference_support(body, u):
    """The support function on C-ordered rows, for the bodies whose
    bounding box the layout tests read."""
    u = np.ascontiguousarray(u, dtype=float)
    if isinstance(body, B.PolytopeBody):
        return np.max(u @ body._floats("V").T, axis=-1)
    if isinstance(body, B.LpBallBody):
        return np.sum(B.abs_power(u, body.q), axis=-1) ** (1.0 / body.q)
    if isinstance(body, B.SliceBody):
        return reference_gauge(body.polar(), u)
    if isinstance(body, B.ImageBody):
        return reference_support(body.child, u @ body.M)
    if isinstance(body, B.DiagonalImageBody):
        return reference_support(body.core, u * body.scales)
    n = body.n
    sp, sq = reference_support(body.dual, u[..., :n]), reference_support(body.base, u[..., n:])
    return sp + sq if isinstance(body, B.LagrangianProductBody) else np.maximum(sp, sq)


def reference_bounding_halfwidths(body):
    """One support per axis, except an l_p section's one batched polar gauge."""
    eye = np.eye(body.dim)
    if isinstance(body, B.SliceBody) and isinstance(body.child, B.LpBallBody):
        return reference_gauge(body.polar(), eye)
    return np.array([float(reference_support(body, e)) for e in eye])


def reference_fiber_min_gauge(child, x0, direction, iters=48, level=None):
    """``fiber_min_gauge`` on C-ordered rows, each probe x0 + t * direction
    a row array."""
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    pts = np.atleast_2d(x0)
    g0 = np.asarray(reference_gauge(child, pts), dtype=float)
    gd = float(reference_gauge(child, direction))
    T = 2.0 * g0 / gd + 1e-9
    lo, hi = -T, T

    def f(t):
        return np.asarray(reference_gauge(child, pts + t[..., None] * direction), dtype=float)

    m1 = hi - B.GOLDEN * (hi - lo)
    m2 = lo + B.GOLDEN * (hi - lo)
    f1, f2 = f(m1), f(m2)
    if level is not None:
        shape = g0.shape
        pts = pts.reshape(-1, pts.shape[-1])
        g0, lo, hi, m1, m2, f1, f2 = (a.reshape(-1) for a in (g0, lo, hi, m1, m2, f1, f2))
        flo, fhi = f(lo), f(hi)
        out = np.empty_like(g0)
        rows = np.arange(len(g0))
    for step in range(iters):
        if level is not None and step % B.SETTLE_EVERY == 0:
            best = np.minimum(np.minimum(f1, f2), g0)
            floor = B._convex_floor(lo, m1, m2, hi, flo, f1, f2, fhi)
            done = (best <= level) | ((floor > level * (1.0 + B.MISS_MARGIN)) & (floor < np.inf))
            if done.any():
                out[rows[done]] = best[done]
                keep = np.flatnonzero(~done)
                rows, pts, g0, lo, hi, m1, m2, f1, f2, flo, fhi = (
                    a[keep] for a in (rows, pts, g0, lo, hi, m1, m2, f1, f2, flo, fhi))
                if not keep.size:
                    break
        take1 = f1 <= f2
        if level is not None:
            fhi = np.where(take1, f2, fhi)
            flo = np.where(take1, flo, f1)
        hi = np.where(take1, m2, hi)
        lo = np.where(take1, lo, m1)
        cand1 = hi - B.GOLDEN * (hi - lo)
        cand2 = lo + B.GOLDEN * (hi - lo)
        fresh = np.where(take1, cand1, cand2)
        fe = f(fresh)
        old_m1, old_f1 = m1, f1
        m1 = np.where(take1, cand1, m2)
        f1 = np.where(take1, fe, f2)
        m2 = np.where(take1, old_m1, cand2)
        f2 = np.where(take1, old_f1, fe)
    vals = np.minimum(np.minimum(f1, f2), g0)
    if level is not None:
        out[rows] = vals
        vals = out.reshape(shape)
    return float(vals[0]) if single else vals


def reference_contains_batch(body, x):
    """Membership on C-ordered rows: the gauge test, or for a corank-1
    image the fiber search with a level, after the l_2 sandwich and the
    certificate when the child is an l_p ball."""
    x = np.ascontiguousarray(x, dtype=float)
    level = 1.0 + B.MEMBERSHIP_TOL
    if not isinstance(body, B.ImageBody) or body._kernel is None:
        return np.asarray(reference_gauge(body, x)) <= level
    u = body._kernel
    if not isinstance(body.child, B.LpBallBody):
        return np.asarray(reference_fiber_min_gauge(body.child, x @ body._pinv.T, u,
                                                    level=level)) <= level
    single = x.ndim == 1
    p, n = body.child.p, body.child.dim
    x0 = np.atleast_2d(x) @ body._pinv.T
    t2 = -(x0 @ u)
    x2 = x0 + t2[:, None] * u
    upper = reference_gauge(body.child, x2)
    d2 = np.linalg.norm(x2, axis=-1)
    lower = d2 * (n ** (1.0 / p - 0.5)) if p > 2.0 else d2
    out = upper <= level
    ambiguous = np.flatnonzero((~out) & (lower <= level))
    if ambiguous.size:
        hit, miss = B._certify_lp_fibers(body.child, x0[ambiguous], u, t2[ambiguous], level)
        out[ambiguous[hit]] = True
        rest = ambiguous[~(hit | miss)]
        if rest.size:
            vals = reference_fiber_min_gauge(body.child, x0[rest], u, iters=28, level=level)
            out[rest] = vals <= level
    return out[0:1].reshape(()) if single else out


LAYOUT_PS = (1.2, 1.5, 2.0, 3.0, 6.0, 21.0)


def _layout_bodies(d, rng):
    """(label, body) of dimension d: l_p balls, polytopes, sections and
    projections of l_p balls and of polytopes by float normals, square
    images, a per-axis scaled section, and for even d products and free
    sums."""
    out = [(f"lp{p}", B.LpBallBody(p, d)) for p in LAYOUT_PS]
    out += [("cube", B.PolytopeBody.cube(d)), ("cross", B.PolytopeBody.cross(d))]
    u = _unit(rng.normal(size=d + 1))
    for p in (1.5, 6.0):
        out += [(f"section lp{p}", B.hyperplane_section(B.LpBallBody(p, d + 1), u)),
                (f"projection lp{p}", B.hyperplane_projection(B.LpBallBody(p, d + 1), u))]
    out += [("section cube", B.hyperplane_section(B.PolytopeBody.cube(d + 1), u)),
            ("projection cross", B.hyperplane_projection(B.PolytopeBody.cross(d + 1), u)),
            ("image lp3", B.ImageBody(B.LpBallBody(3.0, d),
                                      np.eye(d) + 0.3 * rng.normal(size=(d, d)))),
            ("scaled section", B.hyperplane_section(B.PolytopeBody.cube(d + 1),
                                                   [Fraction(k + 1, 2) for k in range(d + 1)]))]
    if d % 2 == 0:
        h = d // 2
        out += [("product lp1.5", B.lagrangian_product(B.LpBallBody(1.5, h))),
                ("product cross", B.lagrangian_product(B.PolytopeBody.cross(h))),
                ("l1sum lp3", B.lagrangian_product(B.LpBallBody(3.0, h)).polar()),
                ("l1sum cross", B.lagrangian_product(B.PolytopeBody.cross(h)).polar())]
    return out


def _layouts(X):
    """C-ordered rows X (rows, d), the row view of their planes, and a row
    view of a strided chunk of wider planes."""
    planes = np.ascontiguousarray(X.T)
    wide = np.zeros((X.shape[1], 3 * len(X) + 1))
    wide[:, len(X) + 1:2 * len(X) + 1] = planes
    return {"rows": X, "planes": planes.T, "strided": wide[:, len(X) + 1:2 * len(X) + 1].T}


def _layout_points(rng, rows, d):
    X = rng.uniform(-1.1, 1.1, size=(rows, d))
    X[::5] *= 2.0 ** rng.integers(-40, 3, size=(len(X[::5]), 1))
    X[0] = 0.0
    return X


@pytest.mark.parametrize("d", range(1, 11))
def test_gauges_and_membership_do_not_depend_on_layout(d):
    """Every layout of rows, a single point and batches of 1, 2, 7 and 8192
    rows give the gauge and membership bytes of the row-layout oracles, at
    every dimension (from 8 coordinates too: ``row_sum`` adds in NumPy's
    pairwise order)."""
    rng = np.random.default_rng(d)
    for label, body in _layout_bodies(d, rng):
        fiber = isinstance(body, B.ImageBody) and body._kernel is not None
        for rows in (1, 2, 7) if fiber and d > 4 else (1, 2, 7, 8192):
            X = _layout_points(rng, rows, d)
            want_g = reference_gauge(body, X).tobytes() if rows < 8192 or not fiber else None
            want_in = reference_contains_batch(body, X)
            for name, x in _layouts(X).items():
                if want_g is not None:
                    assert body.gauge(x).tobytes() == want_g, (label, rows, name)
                got = body.contains_batch(x)
                assert got.dtype == bool and np.array_equal(got, want_in), (label, rows, name)
            for x in X[:2]:
                assert np.asarray(body.gauge(x)).tobytes() == \
                    np.asarray(reference_gauge(body, x)).tobytes(), label
                assert body.contains_batch(x) == reference_contains_batch(body, x), label
        assert body.bounding_halfwidths().tobytes() == \
            reference_bounding_halfwidths(body).tobytes(), label


@pytest.mark.parametrize("d", [3, 8, 9, 17, 129, 300])
def test_row_sum_adds_as_numpy_sums_rows(d):
    rng = np.random.default_rng(d)
    for rows in (1, 2, 7, 100):
        X = rng.normal(size=(rows, d)) * 2.0 ** rng.integers(-30, 31, size=(rows, d))
        want = np.add.reduce(X, axis=-1).tobytes()
        planes = np.ascontiguousarray(X.T)
        assert B.row_sum(planes).tobytes() == want
        assert B.row_sum(planes.reshape(d, rows, 1))[:, 0].tobytes() == want
    assert B.row_sum(X[0]).tobytes() == np.sum(X[0]).tobytes()


def test_power_sums_that_underflow_or_overflow_are_rescaled():
    assert B.LpBallBody(1000.0, 2).gauge([0.1, 0.1]) == pytest.approx(0.1 * 2.0 ** 1e-3, rel=1e-15)
    q = 1.001 / 0.001
    assert B.LpBallBody(1.001, 2).support([0.1, 0.1]) == pytest.approx(
        0.1 * 2.0 ** (1.0 / q), rel=1e-15)
    ball = B.LpBallBody(1.01, 2)
    w = ball.support_witness([[1e-4, 3e-5]])
    assert w[0, 0] == 1.0 and w[0, 1] == pytest.approx(0.3 ** (ball.q - 1.0), rel=1e-12)
    # a zero row stays zero, and an infinite row infinite
    assert B.LpBallBody(6.0, 3).gauge(np.zeros((2, 3))).tolist() == [0.0, 0.0]
    assert B.LpBallBody(6.0, 2).gauge([np.inf, 1.0]) == np.inf
    assert B.LpBallBody(6.0, 2).gauge([1e300, -1e300]) == pytest.approx(1e300 * 2 ** (1 / 6))


@pytest.mark.filterwarnings("error")
def test_lp_norm_rescales_without_a_warning():
    """A point whose power sum overflows (1e200) or underflows (1e-200)
    warns nothing and gets the norm of its rescaled copy, bytes and all."""
    planes = np.array([[1e200, 1e-200, 3.0], [1e200, -1e-200, 4.0], [0.0, 0.0, 0.0]])
    big = np.array([1e200, 1e-200])
    rescaled = B.row_sum(B.abs_power(planes[:, :2] / big, 3.0)) ** (1.0 / 3.0) * big
    plain = B.row_sum(B.abs_power(planes[:, 2:], 3.0)) ** (1.0 / 3.0)
    assert B._lp_norm(planes, 3.0).tobytes() == np.r_[rescaled, plain].tobytes()


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1.001, 1e4), d=st.integers(1, 10), data=st.data())
def test_lp_norm_matches_high_precision_reference(p, d, data):
    mpmath = pytest.importorskip("mpmath")
    exps = data.draw(st.lists(st.floats(-300, 300), min_size=d, max_size=d))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=d, max_size=d))
    x = np.array([s * 10.0 ** e for s, e in zip(signs, exps)])
    with mpmath.workdps(60):
        want = mpmath.fsum(abs(mpmath.mpf(v)) ** p for v in x) ** (1 / mpmath.mpf(p))
        want = float(want)
    ball = B.LpBallBody(p, d)
    # the root s ** (1/p) takes a rounded exponent, which costs up to
    # |ln s| ulps: about 710 at the ends of the float range
    assert ball.gauge(x) == pytest.approx(want, rel=1e-12, abs=0.0)
    # a row rescaled or not beside another keeps the bytes it has alone
    other = np.full(d, 0.5)
    both = ball.gauge(np.stack([x, other]))
    assert both.tobytes() == np.r_[ball.gauge(x[None]), ball.gauge(other[None])].tobytes()


# ---------------------------------------------------------------------------
# the l_p membership certificate

CERT_RS = [1.05, 1.2, 1.5, 3.0, 6.0, 21.0]
LEVEL = 1.0 + B.MEMBERSHIP_TOL
# relative distance from the level within which the 28-step search may miss a
# member: it stops on a probe above a minimum it has not pinned down
NEAR_LEVEL = 1e-5


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _base_points(rng, u, rows):
    """Points of u-perp, as ImageBody.contains_batch lifts them."""
    x0 = rng.normal(size=(rows, len(u)))
    return x0 - np.outer(x0 @ u, u)


def _certified_decisions(ball, x0, u):
    """contains_batch's decision after the sandwich: certificate, then the
    settling 28-step search on the rows it leaves."""
    hit, miss = B._certify_lp_fibers(ball, x0, u, -(x0 @ u), LEVEL)
    assert not np.any(hit & miss)
    out = hit.copy()
    rest = ~(hit | miss)
    if rest.any():
        out[rest] = B.fiber_min_gauge(ball, x0[rest], u, iters=28, level=LEVEL) <= LEVEL
    return hit, miss, out


def _fiber_minimum(ball, x0, u, grid=2001):
    """The fiber minimum from a 200-step search and a dense grid over its
    bracket, whichever is lower."""
    acc = B.fiber_min_gauge(ball, x0, u, iters=200)
    T = 2.0 * ball.gauge(x0) / ball.gauge(u)
    ts = np.linspace(-1.0, 1.0, grid)[None, :] * T[:, None]
    dense = ball.gauge(x0[:, None, :] + ts[..., None] * u).min(axis=1)
    return np.minimum(acc, dense)


def _assert_decides_like_the_full_search(ball, x0, u):
    _, _, decided = _certified_decisions(ball, x0, u)
    full = B.fiber_min_gauge(ball, x0, u, iters=28)
    ref = full <= LEVEL
    assert np.all(decided[ref])  # no hit of the full search is lost
    far = np.abs(full / LEVEL - 1.0) > NEAR_LEVEL
    assert np.array_equal(decided[far], ref[far])
    # a near-level row the full search misses may be a hit: a member whose
    # minimum that search overestimates, never a point outside the body
    extra = decided & ~ref
    assert np.all(B.fiber_min_gauge(ball, x0[extra], u, iters=200) <= LEVEL)


@settings(max_examples=60, deadline=None)
@given(r=st.sampled_from(CERT_RS), n=st.sampled_from([3, 4, 5]),
       seed=st.integers(0, 2**32 - 1), rel=st.sampled_from([1e-6, 1e-10]))
def test_certificate_decides_like_the_full_search(r, n, seed, rel):
    rng = np.random.default_rng(seed)
    ball = B.LpBallBody(r, n)
    u = _unit(rng.normal(size=n))
    x0 = _base_points(rng, u, 300)
    # half the points as drawn, half scaled to within rel of the level on
    # either side (the fiber minimum is 1-homogeneous in x0)
    full = B.fiber_min_gauge(ball, x0[150:], u, iters=28)
    x0[150:] *= (LEVEL / full * (1.0 + rel * rng.choice([-1.0, 1.0], size=150)))[:, None]
    _assert_decides_like_the_full_search(ball, x0, u)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("r", CERT_RS)
def test_certified_misses_clear_the_margin(r, n):
    rng = np.random.default_rng([n, int(100 * r)])
    ball = B.LpBallBody(r, n)
    u = _unit(rng.normal(size=n))
    x0 = _base_points(rng, u, 240)
    # minima just inside the miss margin, just outside it, and well clear
    rel = np.repeat([-1e-6, 1e-10, 5e-10, 1e-8, 1e-6, 1e-3], 40)
    x0 *= (LEVEL * (1.0 + rel) / B.fiber_min_gauge(ball, x0, u, iters=200))[:, None]
    hit, miss, _ = _certified_decisions(ball, x0, u)
    fmin = _fiber_minimum(ball, x0, u)
    assert np.all(fmin[miss] > LEVEL)
    # rows whose minimum lies within the margin are left to golden section
    assert not np.any(miss & (fmin <= LEVEL * (1.0 + B.MISS_MARGIN)))
    assert np.all(fmin[hit] <= LEVEL)
    assert hit.any() and miss.any()  # the certificate does settle rows


@pytest.mark.parametrize("r", [1.2, 3.0, 21.0])
def test_certificate_on_zero_normal_entries_and_zero_coordinates(r):
    rng = np.random.default_rng(int(10 * r))
    ball = B.LpBallBody(r, 4)
    u = _unit([0.0, 0.0, 1.0, 1.0])
    x0 = _base_points(rng, u, 200)
    x0[:50, 0] = 0.0  # a coordinate that is zero along the whole fiber
    x0[50:100, 2:] = 0.0  # the fiber's coordinates both zero at the foot
    x0[100] = 0.0
    x0[101:] *= (LEVEL / B.fiber_min_gauge(ball, x0[101:], u, iters=28)
                 * (1.0 + 1e-10 * rng.choice([-1.0, 1.0], size=99)))[:, None]
    with np.errstate(all="raise"):
        hit, miss, _ = _certified_decisions(ball, x0, u)
    assert hit[100]  # x0 = 0: the foot is a hit
    _assert_decides_like_the_full_search(ball, x0, u)
    # rows whose gauge overflows decide nothing and fall back
    big = np.full((3, 4), 1e300)
    big[:, 2:] = [[1e300, -1e300], [0.0, 0.0], [5e299, -5e299]]
    with np.errstate(all="raise"):
        hit, miss = B._certify_lp_fibers(ball, big, u, -(big @ u), LEVEL)
    assert not hit.any() and not miss.any()
