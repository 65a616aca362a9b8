"""Exact hull / double description kernel against independent oracles."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull as QHull

from mahlerlab import exactgeom
from mahlerlab.exactgeom import (
    DegenerateHullError,
    ExactHull,
    bareiss_det,
    dd_vertices,
    int_rank,
)


def test_bareiss_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        M = rng.integers(-6, 7, size=(n, n))
        expect = round(float(np.linalg.det(M.astype(float))))
        assert bareiss_det(M.tolist()) == expect


def test_int_rank():
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 0, 0], [0, 1, 0], [1, 1, 0]]) == 2
    rng = np.random.default_rng(2)
    for _ in range(30):
        m, n = rng.integers(1, 6, size=2)
        M = rng.integers(-5, 6, size=(m, n))
        assert int_rank(M.tolist()) == np.linalg.matrix_rank(M.astype(float))


def test_cube_and_cross_hulls():
    cube = ExactHull(list(itertools.product([-1, 1], repeat=3)))
    assert cube.volume() == 8
    assert len(cube.facets()) == 6
    assert len(cube.vertex_points()) == 8
    cross = ExactHull(
        [tuple(s if i == j else 0 for i in range(3)) for j in range(3) for s in (1, -1)]
    )
    assert cross.volume() == Fraction(4, 3)
    assert len(cross.facets()) == 8
    assert len(cross.vertex_points()) == 6


def test_hull_ignores_interior_and_boundary_points():
    pts = list(itertools.product([-1, 1], repeat=2))
    pts += [(0, 0), (1, 0), (0, 1)]  # interior and edge midpoints
    hull = ExactHull(pts)
    assert hull.volume() == 4
    assert len(hull.vertex_points()) == 4


def test_degenerate_input_raises():
    with pytest.raises(DegenerateHullError):
        ExactHull([(0, 0, 0), (1, 1, 0), (-1, -1, 0), (2, 2, 0)])


def test_hull_volume_against_qhull_random():
    rng = np.random.default_rng(4)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 2, d + 10))
        P = rng.integers(-5, 6, size=(n, d))
        P = np.vstack([P, -P])
        try:
            eh = ExactHull([tuple(int(x) for x in row) for row in P])
        except DegenerateHullError:
            continue
        qh = QHull(P.astype(float))
        assert abs(float(eh.volume()) - qh.volume) < 1e-9


def test_hull_rational_coordinates():
    pts = [
        (Fraction(1, 2), Fraction(0)),
        (Fraction(-1, 2), Fraction(0)),
        (Fraction(0), Fraction(1, 3)),
        (Fraction(0), Fraction(-1, 3)),
    ]
    hull = ExactHull(pts)
    assert hull.volume() == Fraction(1, 3)


def test_dd_cube_cross():
    A = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    verts = dd_vertices(A, [1] * 6)
    assert len(verts) == 8
    assert all(all(abs(x) == 1 for x in v) for v in verts)
    A2 = [list(s) for s in itertools.product([-1, 1], repeat=3)]
    verts2 = dd_vertices(A2, [1] * 8)
    assert sorted(verts2) == sorted(
        tuple(Fraction(s if i == j else 0) for i in range(3))
        for j in range(3)
        for s in (1, -1)
    )


def test_dd_vertices_satisfy_constraints_tightly():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(d, d + 5))
        rows = rng.integers(-4, 5, size=(k, d))
        rows = [r for r in rows.tolist() if any(r)]
        A = rows + [[-x for x in r] for r in rows]
        # box rows keep it bounded
        for i in range(d):
            e = [0] * d
            e[i] = 1
            A += [e[:], [-x for x in e]]
        b = [1] * len(A)
        verts = dd_vertices(A, b)
        Af = np.array(A, dtype=float)
        for v in verts:
            vf = np.array([float(x) for x in v])
            vals = Af @ vf
            assert np.all(vals <= 1 + 1e-12)
            tight = [i for i, r in enumerate(A)
                     if sum(Fraction(c) * x for c, x in zip(r, v)) == 1]
            assert int_rank([A[i] for i in tight]) == d


def test_dd_unbounded_rejected():
    with pytest.raises(ValueError):
        dd_vertices([[1, 0], [-1, 0]], [1, 1])  # a slab


def test_dd_hull_roundtrip_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        P = rng.integers(-4, 5, size=(d + 3, d))
        P = np.vstack([P, -P])
        try:
            hull = ExactHull([tuple(int(x) for x in r) for r in P])
        except DegenerateHullError:
            continue
        facets = hull.facets()
        A = [list(a) for a, _ in facets]
        b = [c for _, c in facets]
        if any(c <= 0 for c in b):
            continue  # origin not interior; roundtrip needs b > 0
        verts = set(dd_vertices(A, b))
        assert verts == set(hull.vertex_points())


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=3,
        max_size=8,
    )
)
def test_hull_2d_volume_matches_qhull(pts):
    sym = pts + [(-x, -y) for x, y in pts]
    arr = np.array(sym, dtype=float)
    try:
        eh = ExactHull(sym)
    except DegenerateHullError:
        return
    qh = QHull(arr)
    assert math.isclose(float(eh.volume()), qh.volume, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# the kernel's two inputs: points alone, or points with an H-representation


def _cube_rows(n):
    return [(tuple(s if j == i else 0 for j in range(n)), Fraction(1))
            for i in range(n) for s in (1, -1)]


@pytest.mark.parametrize("n", [3, 6])
def test_certificate_rejects_tightened_facet(n):
    pts = list(itertools.product([-1, 1], repeat=n))
    rows = _cube_rows(n)
    assert ExactHull(pts, rows, extreme=True).volume() == 2**n
    for k in (0, len(rows) - 1):
        tightened = list(rows)
        tightened[k] = (rows[k][0], Fraction(1, 2))
        with pytest.raises(AssertionError, match="certificate"):
            ExactHull(pts, tightened, extreme=True)
        with pytest.raises(AssertionError, match="certificate"):
            ExactHull(pts, tightened)


def test_cube6_from_points_alone():
    pts = list(itertools.product([-1, 1], repeat=6))
    hull = ExactHull(pts)
    assert hull.volume() == 64
    assert hull.facets() == sorted(
        (tuple(Fraction(x) for x in a), Fraction(1)) for a, _ in _cube_rows(6))
    assert hull.vertex_points() == sorted(tuple(Fraction(x) for x in p) for p in pts)
    # pulling triangulation of one 5-cube of each +- pair: 5! simplices each
    assert len(hull.facet_simplices) == 6 * 120


def test_known_halfspaces_skip_double_description(monkeypatch):
    def no_dd(*args, **kwargs):
        raise AssertionError("double description called")

    monkeypatch.setattr(exactgeom, "dd_vertices", no_dd)
    pts = list(itertools.product([-1, 1], repeat=4))
    hull = ExactHull(pts, _cube_rows(4), extreme=True)
    assert hull.volume() == 16
    assert len(hull.facets()) == 8


def test_halfspaces_and_points_alone_agree(rng):
    """Redundant rows (loosened copies, supporting hyperplanes through a
    vertex only) are dropped, non-vertex points are dropped, and the result
    matches the double-description path bit for bit."""
    for _ in range(12):
        d = int(rng.integers(2, 5))
        P = rng.integers(-4, 5, size=(d + 3, d))
        P = np.vstack([P, -P, np.zeros((1, d), dtype=int)])
        pts = [tuple(Fraction(int(x)) for x in row) for row in P]
        try:
            ref = ExactHull(pts)
        except DegenerateHullError:
            continue
        rows = list(ref.facets())
        rows += [(a, 2 * c) for a, c in rows]
        # the sum of the facets through a vertex touches the polytope there only
        v = ref.vertex_points()[0]
        through = [(a, c) for a, c in ref.facets() if sum(x * y for x, y in zip(a, v)) == c]
        rows.append((tuple(sum(col) for col in zip(*(a for a, _ in through))),
                     sum(c for _, c in through)))
        hull = ExactHull(pts, rows)
        assert hull.facets() == ref.facets()
        assert hull.vertex_points() == ref.vertex_points()
        assert hull.volume() == ref.volume()
        qh = QHull(P.astype(float))
        assert abs(float(hull.volume()) - qh.volume) < 1e-9
        assert len(hull.vertex_points()) == len(qh.vertices)


def test_hull_off_centre_and_asymmetric():
    """Points whose centroid is not the origin, symmetric about it or not."""
    shift = (Fraction(1, 3), Fraction(-2), Fraction(5, 7))
    cube = [tuple(x + s for x, s in zip(p, shift))
            for p in itertools.product([-1, 1], repeat=3)]
    hull = ExactHull(cube)
    assert hull.volume() == 8
    assert len(hull.facets()) == 6
    assert ExactHull(cube, [((1, 0, 0), Fraction(4, 3)), ((-1, 0, 0), Fraction(2, 3)),
                            ((0, 1, 0), Fraction(-1)), ((0, -1, 0), Fraction(3)),
                            ((0, 0, 1), Fraction(12, 7)), ((0, 0, -1), Fraction(2, 7))],
                     extreme=True).volume() == 8
    for d in range(1, 6):
        simplex = [tuple(int(i == j) for j in range(d)) for i in range(d)] + [(0,) * d]
        hull = ExactHull(simplex + [tuple(Fraction(1, d + 1) for _ in range(d))])
        assert hull.volume() == Fraction(1, math.factorial(d))
        assert len(hull.vertex_points()) == d + 1
        assert len(hull.facets()) == d + 1
