"""Exact hull / double description kernel against independent oracles."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull as QHull

from mahlerlab import bodies as B
from mahlerlab import exactgeom
from mahlerlab.exactgeom import (
    DegenerateHullError,
    ExactHull,
    bareiss_det,
    dd_vertices,
    fractions,
    int_rank,
    point_list,
)


def hull_of(points, normals=None):
    """The kernel on rational points and rational normals at offset 1; with
    no normals, the hull of a body given the points, whose normals double
    description finds (and which refuses a set not closed under negation)."""
    if normals is None:
        return B.PolytopeBody(len(points[0]), vertices=points).hull()
    return ExactHull(point_list(points), point_list(normals))


def unit_normals(rows):
    """The normals a / b of rows (a, b), b > 0."""
    return [tuple(Fraction(x) / b for x in a) for a, b in rows]


def dd_of(A, b):
    """``dd_vertices`` of the rows <a, x> <= b, b > 0, as Fraction points."""
    return list(fractions(dd_vertices(point_list(unit_normals(zip(A, b))))))


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
    cube = hull_of(list(itertools.product([-1, 1], repeat=3)))
    assert cube.volume() == 8
    assert len(cube.facets()) == 6
    assert len(cube.vertex_points()) == 8
    cross = hull_of(
        [tuple(s if i == j else 0 for i in range(3)) for j in range(3) for s in (1, -1)]
    )
    assert cross.volume() == Fraction(4, 3)
    assert len(cross.facets()) == 8
    assert len(cross.vertex_points()) == 6


def test_hull_ignores_interior_and_boundary_points():
    pts = list(itertools.product([-1, 1], repeat=2))
    pts += [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]  # interior and edge midpoints
    hull = hull_of(pts)
    assert hull.volume() == 4
    assert len(hull.vertex_points()) == 4


def test_degenerate_input_raises():
    with pytest.raises(DegenerateHullError):
        hull_of([(0, 0, 0), (1, 1, 0), (-1, -1, 0), (2, 2, 0), (-2, -2, 0)])


def test_hull_volume_against_qhull_random():
    rng = np.random.default_rng(4)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 2, d + 10))
        P = rng.integers(-5, 6, size=(n, d))
        P = np.vstack([P, -P])
        try:
            eh = hull_of([tuple(int(x) for x in row) for row in P])
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
    hull = hull_of(pts)
    assert hull.volume() == Fraction(1, 3)


def test_dd_cube_cross():
    A = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    verts = dd_of(A, [1] * 6)
    assert len(verts) == 8
    assert all(all(abs(x) == 1 for x in v) for v in verts)
    A2 = [list(s) for s in itertools.product([-1, 1], repeat=3)]
    verts2 = dd_of(A2, [1] * 8)
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
        verts = dd_of(A, b)
        Af = np.array(A, dtype=float)
        for v in verts:
            vf = np.array([float(x) for x in v])
            vals = Af @ vf
            assert np.all(vals <= 1 + 1e-12)
            tight = [i for i, r in enumerate(A)
                     if sum(Fraction(c) * x for c, x in zip(r, v)) == 1]
            assert int_rank([A[i] for i in tight]) == d


def test_dd_unbounded_rejected():
    with pytest.raises(DegenerateHullError, match="rank 1 < dim 2"):
        dd_of([[1, 0], [-1, 0]], [1, 1])  # a slab: its normals are flat


def test_dd_hull_roundtrip_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        P = rng.integers(-4, 5, size=(d + 3, d))
        P = np.vstack([P, -P])
        try:
            hull = hull_of([tuple(int(x) for x in r) for r in P])
        except DegenerateHullError:
            continue
        facets = hull.facets()
        A = [list(a) for a, _ in facets]
        b = [c for _, c in facets]
        if any(c <= 0 for c in b):
            continue  # origin not interior; roundtrip needs b > 0
        verts = set(dd_of(A, b))
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
        eh = hull_of(sym)
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
    assert hull_of(pts, unit_normals(rows)).volume() == 2**n
    for k in (0, len(rows) - 1):
        # a row and its twin k ^ 1 (the normal lists are closed under negation)
        tightened = list(rows)
        for j in (k, k ^ 1):
            tightened[j] = (rows[j][0], Fraction(1, 2))
        with pytest.raises(AssertionError, match="certificate"):
            hull_of(pts, unit_normals(tightened))


def test_cube6_from_points_alone():
    pts = list(itertools.product([-1, 1], repeat=6))
    hull = hull_of(pts)
    assert hull.volume() == 64
    assert hull.facets() == sorted(
        (tuple(Fraction(x) for x in a), Fraction(1)) for a, _ in _cube_rows(6))
    assert hull.vertex_points() == sorted(tuple(Fraction(x) for x in p) for p in pts)
    # pulling triangulation of one 5-cube of each +- pair: 5! simplices each
    assert len(hull.facet_simplices) == 6 * 120


def test_known_halfspaces_skip_double_description(monkeypatch):
    """The hull converts nothing, and a body given both lists (a Hanner
    body) runs no double description for its volume or its polar's."""
    def no_dd(*args, **kwargs):
        raise AssertionError("double description called")

    monkeypatch.setattr(exactgeom, "dd_vertices", no_dd)
    monkeypatch.setattr(B, "dd_vertices", no_dd)
    pts = list(itertools.product([-1, 1], repeat=4))
    hull = hull_of(pts, unit_normals(_cube_rows(4)))
    assert hull.volume() == 16
    assert len(hull.facets()) == 8
    body = B.hanner_body("X(S, L(S, S), S)")
    assert body.volume_exact() * body.polar().volume_exact() == Fraction(4**4, 24)


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
            ref = hull_of(pts)
        except DegenerateHullError:
            continue
        rows = list(ref.facets())
        rows += [(a, 2 * c) for a, c in rows]
        # the sum of the facets through a vertex touches the polytope there only
        v = ref.vertex_points()[0]
        through = [(a, c) for a, c in ref.facets() if sum(x * y for x, y in zip(a, v)) == c]
        a = tuple(sum(col) for col in zip(*(a for a, _ in through)))
        c = sum(c for _, c in through)
        rows += [(a, c), (tuple(-x for x in a), c)]  # and its twin, through -v
        hull = hull_of(pts, unit_normals(rows))
        assert hull.facets() == ref.facets()
        assert hull.vertex_points() == ref.vertex_points()
        assert hull.volume() == ref.volume()
        qh = QHull(P.astype(float))
        assert abs(float(hull.volume()) - qh.volume) < 1e-9
        assert len(hull.vertex_points()) == len(qh.vertices)


def test_hull_off_centre_and_asymmetric():
    """Points whose centroid is not the origin, symmetric about it or not:
    the general reference hull takes them, and the kernel, which serves
    bodies symmetric about the origin, refuses them rather than give a
    wrong volume."""
    shift = (Fraction(1, 3), Fraction(-2), Fraction(5, 7))
    cube = [tuple(x + s for x, s in zip(p, shift))
            for p in itertools.product([-1, 1], repeat=3)]
    assert reference_hull(cube)["volume"] == 8
    assert len(reference_hull(cube)["facets"]) == 6
    assert reference_hull(cube, [((1, 0, 0), Fraction(4, 3)), ((-1, 0, 0), Fraction(2, 3)),
                                 ((0, 1, 0), Fraction(-1)), ((0, -1, 0), Fraction(3)),
                                 ((0, 0, 1), Fraction(12, 7)), ((0, 0, -1), Fraction(2, 7))]
                          )["volume"] == 8
    with pytest.raises(ValueError, match="closed under negation"):
        hull_of(cube)
    for d in range(1, 6):
        simplex = [tuple(int(i == j) for j in range(d)) for i in range(d)] + [(0,) * d]
        points = simplex + [tuple(Fraction(1, d + 1) for _ in range(d))]
        ref = reference_hull(points)
        assert ref["volume"] == Fraction(1, math.factorial(d))
        assert len(ref["vertex_points"]) == d + 1
        assert len(ref["facets"]) == d + 1
        with pytest.raises(ValueError, match="closed under negation"):
            hull_of(points)


# ---------------------------------------------------------------------------
# the elimination kernel against independent oracles
#
# The greedy choice of independent rows (one rank per candidate row), the
# starting rays of a simplicial cone by Cramer's rule (D^2 + 1 determinants)
# and a Gauss-Jordan inverse over Fractions, on top of a Leibniz determinant
# and a Fraction rank; none of them calls the kernel.


def reference_det(M):
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(M[i][perm[i]] for i in range(n))
    return total


def reference_rank(M):
    m = [[Fraction(x) for x in row] for row in M]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def reference_greedy_rows(rows, target):
    chosen = []
    for i, _ in enumerate(rows):
        if len(chosen) == target:
            break
        cand = chosen + [i]
        if reference_rank([rows[k] for k in cand]) == len(cand):
            chosen.append(i)
    if len(chosen) < target:
        raise ValueError("halfspace system is rank deficient (unbounded body?)")
    return chosen


def reference_cramer_rays(mat):
    """Columns r_j with M r_j = -|det M| e_j, via Cramer's rule."""
    n = len(mat)
    det = reference_det(mat)
    if det == 0:
        raise ValueError("singular initialization matrix")
    sgn = 1 if det > 0 else -1
    rays = []
    for j in range(n):
        col = []
        for i in range(n):
            replaced = [
                list(mat[r][:i]) + [1 if r == j else 0] + list(mat[r][i + 1:])
                for r in range(n)
            ]
            col.append(reference_det(replaced))
        rays.append(exactgeom.gcd_reduce([-sgn * x for x in col]))
    return rays


def reference_invert_rational_matrix(M):
    n = len(M)
    aug = [
        [Fraction(M[i][j]) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise exactgeom.BodyError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@st.composite
def integer_matrices(draw, square=False):
    """Small integer matrices, about one row in four an integer combination of
    earlier rows (so leading rows can be dependent and square ones singular).
    Half the square ones get a multiple of I added, which makes most of them
    invertible: in the 300 derandomized draws of the test below, 152 are
    singular and 54 are 1x1."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    entry = st.integers(-5, 5)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for i in range(1, nrows):
        if draw(st.integers(0, 3)) == 0:
            j = draw(st.integers(0, i - 1))
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[i - 1])]
    if square and draw(st.booleans()):
        shift = draw(st.integers(0, 12))
        for i in range(nrows):
            rows[i][i] += shift
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_matrices())
def test_eliminate_rank_and_pivot_rows_match_the_references(M):
    rank = reference_rank(M)
    m, pivots, sign = exactgeom._eliminate(M)
    assert len(pivots) == rank == int_rank(M)
    assert sign in (1, -1)
    # row echelon: each pivot row starts at its pivot column
    for r, col in enumerate(pivots):
        assert m[r][col] != 0 and not any(m[r][:col])
    assert not any(any(row) for row in m[rank:])
    # the first independent rows are the pivot columns of the transpose
    assert exactgeom._eliminate(list(zip(*M)))[1] == reference_greedy_rows(M, rank)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_matrices(square=True),
       st.lists(st.integers(1, 6), min_size=12, max_size=12))
def test_eliminate_det_adjugate_and_inverse_match_the_references(M, dens):
    n = len(M)
    det = reference_det(M)
    assert bareiss_det(M) == det
    m, pivots, sign = exactgeom._eliminate(M)
    assert (sign * m[-1][-1] if len(pivots) == n else 0) == det
    d, inv = exactgeom._scaled_inverse(M)
    # rows and columns scaled by 1/dens: singular exactly when M is
    Mq = [[Fraction(x, dens[i] * dens[6 + j]) for j, x in enumerate(row)]
          for i, row in enumerate(M)]
    if det == 0:
        assert d == 0
        with pytest.raises(exactgeom.BodyError, match="singular matrix"):
            exactgeom.invert_rational_matrix(Mq)
        with pytest.raises(exactgeom.BodyError, match="singular matrix"):
            reference_invert_rational_matrix(Mq)
        return
    # the Gauss-Jordan pass ends as [d I | d M^-1], d = +-det M
    assert abs(d) == abs(det)
    m, _, _ = exactgeom._eliminate(
        [row + [int(i == j) for j in range(n)] for i, row in enumerate(M)], jordan=True)
    assert [row[:n] for row in m] == [[d * (i == j) for j in range(n)] for i in range(n)]
    assert inv == [[d * x for x in row] for row in reference_invert_rational_matrix(M)]
    sgn = 1 if d > 0 else -1
    assert [exactgeom.gcd_reduce([-sgn * row[j] for row in inv]) for j in range(n)] \
        == reference_cramer_rays(M)
    assert exactgeom.invert_rational_matrix(Mq) == reference_invert_rational_matrix(Mq)


@pytest.mark.parametrize("M", [[[0]], [[3]], [[-7]], [[0, 0], [0, 0]], [[2, 4], [1, 2]]])
def test_eliminate_one_by_one_and_singular(M):
    det = reference_det(M)
    assert bareiss_det(M) == det
    assert int_rank(M) == reference_rank(M)
    Mq = [[Fraction(x) for x in row] for row in M]
    if det:
        assert exactgeom.invert_rational_matrix(Mq) == [[Fraction(1, det)]]
    else:
        with pytest.raises(exactgeom.BodyError, match="singular matrix"):
            exactgeom.invert_rational_matrix(Mq)


@pytest.mark.parametrize("lead", [
    # -x <= 1, -y <= 1 and their sum -x - y <= 2: the normals sort to the
    # front of the list, and their homogenized rows are dependent
    [([-1, 0, 0], 1), ([0, -1, 0], 1), ([-1, -1, 0], 2)],
    # the same row twice, and one a multiple of it: one normal
    [([-1, 0, 0], 1), ([-1, 0, 0], 1), ([-2, 0, 0], 2), ([0, 0, -1], 1)],
])
def test_dd_dependent_leading_rows(lead):
    A = [a for a, _ in lead] + [list(a) for a, _ in _cube_rows(3)]
    b = [c for _, c in lead] + [c for _, c in _cube_rows(3)]
    normals = point_list(unit_normals(zip(A, b)))
    rows = [X + (-t,) for X, t in normals]
    assert int_rank(rows[:3]) < 3 or len(normals) == 6
    verts = dd_of(A, b)
    assert verts == sorted(tuple(Fraction(x) for x in p)
                           for p in itertools.product([-1, 1], repeat=3))
    assert verts == dd_of(A[len(lead):], b[len(lead):])


# ---------------------------------------------------------------------------
# the hull's integer canonical form against the Fraction one
#
# ``reference_hull`` is the general hull the kernel grew out of, kept here as
# its oracle: it takes any rational points, symmetric or not, centred at
# their centroid or not, canonicalizes them as sorted, unique Fraction
# tuples, scales the point list by one common denominator and each given
# row on its own, checks the rank of every row and reads facets and
# vertices off the Fraction points.  It shares the double description, the
# rank, the pulling triangulation and the determinants with the kernel,
# each of which is checked against its own oracles above.


def reference_scale(v):
    """A rational vector times the lcm of its denominators."""
    v = [Fraction(x) for x in v]
    lcm = math.lcm(*(x.denominator for x in v))
    return tuple(int(x * lcm) for x in v)


def reference_hull(points, halfspaces=None):
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    d = len(pts[0])
    lcm = math.lcm(*(x.denominator for p in pts for x in p))
    ints = [tuple(int(x * lcm) for x in p) for p in pts]
    n = len(ints)
    shift = tuple(sum(p[j] for p in ints) for j in range(d))
    if any(shift):
        ints = [tuple(n * x - s for x, s in zip(p, shift)) for p in ints]
    scale = n * lcm if any(shift) else lcm
    if int_rank(ints) < d:
        raise DegenerateHullError(int_rank(ints), d)
    if halfspaces is None:
        nonzero = [p for p in ints if any(p)]
        rows = [exactgeom.gcd_reduce(reference_scale(y + (1,)))
                for y in fractions(dd_vertices(point_list(nonzero)))]
    else:
        rows = []
        for a, b in halfspaces:
            a = tuple(Fraction(x) for x in a)
            rhs = scale * Fraction(b) - sum(x * s for x, s in zip(a, shift))
            rows.append(exactgeom.gcd_reduce(reference_scale(a + (rhs,))))
        rows = sorted(set(rows))
    tight = []
    for a, rhs in ((r[:-1], r[-1]) for r in rows):
        vals = [sum(x * y for x, y in zip(a, p)) for p in ints]
        assert max(vals) <= rhs
        tight.append(sum(1 << i for i, v in enumerate(vals) if v == rhs))
    vertex_ids = [i for i in range(n)
                  if int_rank([r[:-1] for r, m in zip(rows, tight) if m >> i & 1]) == d]
    vmask = sum(1 << i for i in vertex_ids)
    kept = [(r, m & vmask) for r, m in zip(rows, tight)
            if int_rank([ints[i] for i in exactgeom._bits(m & vmask)]) == d]
    vset = {ints[i] for i in vertex_ids}
    symmetric = all(tuple(-x for x in v) in vset for v in vset)
    masks = [m for _, m in kept]
    memo: dict = {}
    simplices = [s for r, m in kept
                 if not symmetric or r[:-1] > tuple(-x for x in r[:-1])
                 for s in exactgeom._pulling(m, d - 1, masks, memo)]
    total = sum(abs(bareiss_det([ints[i] for i in s])) for s in simplices)
    facets = []
    for r, m in kept:
        a = exactgeom.gcd_reduce(r[:-1])
        v = pts[(m & -m).bit_length() - 1]
        facets.append((tuple(Fraction(x) for x in a), sum(x * y for x, y in zip(a, v))))
    return {"masks": sorted(masks),
            "vertex_points": [pts[i] for i in vertex_ids], "facets": sorted(facets),
            "volume": Fraction(total * (2 if symmetric else 1), math.factorial(d) * scale**d)}


def hull_state(hull):
    return {"masks": sorted(hull._masks), "vertex_points": hull.vertex_points(),
            "facets": hull.facets(), "volume": hull.volume()}


def closed_under_negation(points):
    pset = {tuple(Fraction(x) for x in p) for p in points}
    return all(tuple(-x for x in p) in pset for p in pset)


COORDINATES = st.one_of(st.integers(-4, 4),
                        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def hull_inputs(draw):
    """Rational point lists, int and Fraction entries mixed, symmetric about
    a centroid or not, off the origin or not, with repeated points, in any
    order; and how the rows are given: not at all, as facets times positive
    rationals (offsets other than 1) with redundant rows, or as those rows
    with the vertices alone for the points."""
    d = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[COORDINATES] * d), min_size=d + 1, max_size=d + 5))
    if draw(st.booleans()):
        pts += [tuple(-x for x in p) for p in pts]
    if draw(st.booleans()):
        shift = draw(st.tuples(*[COORDINATES] * d))
        pts = [tuple(x + s for x, s in zip(p, shift)) for p in pts]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    pts = draw(st.permutations(pts))
    rows = draw(st.sampled_from(["points", "rows", "vertices"]))
    factors = draw(st.lists(st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
                            min_size=1, max_size=12))
    return pts, rows, factors


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hull_inputs())
def test_hull_matches_the_fraction_reference(case):
    """On point sets closed under negation the kernel is the reference hull;
    any other set it refuses."""
    points, rows, factors = case
    if not closed_under_negation(points):
        with pytest.raises(ValueError, match="closed under negation"):
            hull_of(points)
        return
    try:
        ref = reference_hull(points)
    except DegenerateHullError:
        with pytest.raises(DegenerateHullError):
            hull_of(points)
        return
    assert hull_state(hull_of(points)) == ref
    if rows == "points":
        return
    if rows == "vertices":
        points = ref["vertex_points"] + ref["vertex_points"][:2]
    # every facet times a positive rational, a loosened copy of each, and a
    # supporting hyperplane through one vertex only with its twin, out of
    # sorted order
    halfspaces = [(tuple(k * x for x in a), k * c)
                  for (a, c), k in zip(ref["facets"], itertools.cycle(factors))]
    halfspaces += [(a, c + 1) for a, c in ref["facets"]]
    v = ref["vertex_points"][0]
    through = [(a, c) for a, c in ref["facets"] if sum(x * y for x, y in zip(a, v)) == c]
    a = tuple(sum(col) for col in zip(*(a for a, _ in through)))
    c = sum(c for _, c in through)
    halfspaces += [(a, c), (tuple(-x for x in a), c)]  # and its twin, through -v
    halfspaces.sort(key=lambda row: hash(row) % 7)
    ref_rows = reference_hull(points, halfspaces)
    assert hull_state(hull_of(points, unit_normals(halfspaces))) == ref_rows
    assert ref_rows["facets"] == ref["facets"]
    assert ref_rows["volume"] == ref["volume"]


def test_pm_rank_sharing_needs_a_symmetric_vertex_set():
    """A wedge: the unit square at z = -1 and four collinear points on an
    edge at z = 1, centroid at z = 0.  The bottom facet -z <= 1 and its
    opposite z <= 1 are a +- pair of rows in the centred integers, but the
    vertex set is not closed under negation, and the opposite row touches
    only the top edge: the reference hull gives it its own rank check and
    drops it.  The kernel shares one rank check between the rows of every
    +- pair, so it refuses the set."""
    square = [(x, y, -1) for x in (0, 1) for y in (0, 1)]
    edge = [(Fraction(k, 3), 0, 1) for k in range(4)]
    points = square + edge
    ref = reference_hull(points)
    bottom = ((Fraction(0), Fraction(0), Fraction(-1)), Fraction(1))
    assert bottom in ref["facets"] and len(ref["facets"]) == 5
    halfspaces = ref["facets"] + [((0, 0, 1), 1)]
    assert reference_hull(points, halfspaces) == ref
    assert ref["volume"] == 1
    with pytest.raises(ValueError, match="closed under negation"):
        hull_of(points, unit_normals([(a, c) for a, c in halfspaces if c > 0]))


# ---------------------------------------------------------------------------
# point lists: one primitive pair per rational point


def assert_primitive(points):
    for X, s in points:
        assert s > 0 and math.gcd(s, *X) == 1, (X, s)


RATIONALS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


def written_otherwise(p, k):
    """The point p with each entry written as the string of k num / k den."""
    return tuple(f"{k * x.numerator}/{k * x.denominator}" for x in p)


@st.composite
def symmetric_point_sets(draw):
    """Points closed under negation with denominators up to 10^6, one of
    them written a second time in another form ("2/4" for 1/2), a point x
    with 2x beside it on its ray, and sometimes the zero vector."""
    d = draw(st.integers(2, 4))
    gens = draw(st.lists(st.tuples(*[RATIONALS] * d), min_size=d, max_size=d + 3))
    gens.append(tuple(2 * x for x in gens[0]))
    pts = gens + [tuple(-x for x in p) for p in gens]
    pts.append(written_otherwise(gens[-2], draw(st.integers(2, 9))))
    if draw(st.booleans()):
        pts.append((0,) * d)
    return draw(st.permutations(pts))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(symmetric_point_sets())
def test_point_lists_and_hull_against_the_reference(points):
    """A point list holds one primitive pair per rational point, in the
    order of the rationals; the hull's vertex_points, facets and volume are
    the reference hull's, Fraction for Fraction; and the set without the
    negative of one of its points is refused."""
    values = sorted({tuple(Fraction(x) for x in p) for p in points})
    plist = point_list(points)
    assert_primitive(plist)
    assert fractions(plist) == tuple(values)
    try:
        ref = reference_hull(points)
    except DegenerateHullError:
        with pytest.raises(DegenerateHullError):
            hull_of(points)
        return
    hull = hull_of(points)
    assert hull.points == plist
    assert hull.vertex_points() == ref["vertex_points"]
    assert hull.facets() == ref["facets"]
    assert hull.volume() == ref["volume"]
    assert_primitive(hull.vertices)
    assert_primitive(hull.normals)
    assert all(type(x) is Fraction for p in hull.vertex_points() for x in p)
    lone = next(p for p in values if any(p))
    asymmetric = [p for p in values if p != tuple(-x for x in lone)]
    with pytest.raises(ValueError, match="closed under negation"):
        hull_of(asymmetric)
    with pytest.raises(ValueError, match="closed under negation"):
        ExactHull(point_list(asymmetric), hull.normals)
    with pytest.raises(ValueError, match="closed under negation"):
        ExactHull(plist, hull.normals[1:])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(symmetric_point_sets())
def test_swapped_hull_is_the_hull_of_the_polar(points):
    """``polar`` swaps the two lists, their incidence and their rank tests:
    a hull built afresh on the swapped lists has the same vertices, normals,
    facet masks, facets, triangulation and volume, which are those of the
    reference hull of the polar's vertices; swapped twice, it is the hull
    again."""
    try:
        hull = hull_of(points)
    except DegenerateHullError:
        return
    polar = hull.polar()
    fresh = ExactHull(hull.rows, hull.points)
    for name in ("points", "rows", "vertices", "normals", "_masks", "facet_simplices"):
        assert getattr(polar, name) == getattr(fresh, name), name
    assert (polar.facets(), polar.volume()) == (fresh.facets(), fresh.volume())
    ref = reference_hull(fractions(hull.normals))
    assert (polar.vertex_points(), polar.facets(), polar.volume()) == \
        (ref["vertex_points"], ref["facets"], ref["volume"])
    again = polar.polar()
    assert (again.vertices, again.normals, again._masks) == (hull.vertices, hull.normals, hull._masks)
    assert again.volume() == hull.volume()


def test_hull_integers_stay_near_the_point_size():
    """Each point keeps its own scale, so no integer the hulls of a rational
    sphere polytope and of its polar store has more than 4 times the bits of
    the largest entry of the vertex pairs.  One common denominator for the
    normals would have thousands of bits."""
    from mahlerlab import bodies as B
    from conftest import rational_sphere

    body = B.PolytopeBody(3, vertices=rational_sphere(32))
    polar = body.polar()
    assert len(body.vertices()) == 64
    assert body.volume_exact() > 0 and polar.volume_exact() > 0

    def bits(points):
        return max(abs(x).bit_length() for X, s in points for x in X + (s,))

    limit = 4 * bits(body._vertices)
    for hull in (body.hull(), polar.hull()):
        assert_primitive(hull.normals)
        assert max(bits(hull.points), bits(hull.vertices), bits(hull.normals)) <= limit
    assert math.lcm(*(s for _, s in polar._vertices)).bit_length() > 1000 > limit
