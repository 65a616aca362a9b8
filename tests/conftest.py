"""Shared oracles and strategies for the test suite."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from mahlerlab import bodies as B
from mahlerlab.exactgeom import ExactHull, dd_vertices, point_list


# ---------------------------------------------------------------------------
# independent oracles


def vertex_hull(vertices) -> ExactHull:
    """The hull of a rational point set closed under negation, its normals
    the vertices of the polar: ``dd_vertices`` of the nonzero points."""
    points = point_list(vertices)
    return ExactHull(points, dd_vertices([p for p in points if any(p[0])]))


def shoelace_area(points) -> Fraction:
    """Exact area of a convex polygon given by unordered rational vertices:
    sort by angle (float), accumulate the cross products in Fractions."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    pts = sorted(set(pts), key=lambda p: math.atan2(float(p[1]), float(p[0])))
    area = Fraction(0)
    for i, a in enumerate(pts):
        b = pts[(i + 1) % len(pts)]
        area += a[0] * b[1] - b[0] * a[1]
    return abs(area) / 2


def support_by_vertex_scan(vertices, u) -> float:
    """Brute-force support value: max <u, v> over an explicit vertex list."""
    return max(float(sum(Fraction(a) * Fraction(b) for a, b in zip(v, u)))
               for v in vertices)


def shadow_area_oracle(body: B.PolytopeBody, u) -> float:
    """Projection (shadow) area of a 3-polytope: half the sum over facets of
    facet area times |cos| of the angle to the projection direction."""
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    hull = vertex_hull(body.vertices())
    verts = [np.array([float(x) for x in v]) for v in body.vertices()]
    total = 0.0
    for a, c in hull.facets():
        af = np.array([float(x) for x in a])
        on_facet = [v for v in verts if abs(af @ v - float(c)) < 1e-12]
        pts = np.array(on_facet)
        nrm = af / np.linalg.norm(af)
        # facet area via fan triangulation in the facet plane
        p0 = pts[0]
        area = 0.0
        for i in range(1, len(pts) - 1):
            cr = np.cross(pts[i] - p0, pts[i + 1] - p0)
            area += 0.5 * abs(cr @ nrm)
        total += area * abs(nrm @ u)
    return total / 2.0


def hanner_volume(tree) -> tuple[Fraction, int]:
    """Exact volume and dimension of a Hanner polytope from its tree alone
    ('S' or (op, children)): vol(K x L) = vol K vol L and, for the l1 sum
    of a k- and an l-dimensional body, vol(K + L) = vol K vol L k! l! / (k+l)!."""
    if tree == "S":
        return Fraction(2), 1
    op, children = tree
    vol, dim = hanner_volume(children[0])
    for child in children[1:]:
        v, k = hanner_volume(child)
        vol *= v
        if op == "L":
            vol *= Fraction(math.factorial(dim) * math.factorial(k), math.factorial(dim + k))
        dim += k
    return vol, dim


def hanner_counts(tree) -> tuple[int, int]:
    """(vertex count, facet count) of a Hanner polytope from its expression
    or tree alone: vertices multiply under X and add under L, facets do the
    opposite."""
    if isinstance(tree, str):
        tree = B.parse_hanner(tree)
    if tree == "S":
        return (2, 2)
    op, children = tree
    v = 1 if op == "X" else 0
    f = 0 if op == "X" else 1
    for cv, cf in (hanner_counts(c) for c in children):
        if op == "X":
            v *= cv
            f += cf
        else:
            v += cv
            f *= cf
    return (v, f)


def random_symmetric_vpolytope(rng, dim, pairs, span=4) -> B.PolytopeBody:
    while True:
        pts = rng.integers(-span, span + 1, size=(pairs, dim))
        verts = [tuple(Fraction(int(x)) for x in row) for row in pts]
        verts += [tuple(-x for x in v) for v in verts]
        try:
            body = B.PolytopeBody(dim, vertices=verts)
            if not body.is_degenerate:
                return body
        except B.BodyError:
            continue


def random_symmetric_hpolytope(rng, dim, pairs) -> B.PolytopeBody:
    while True:
        rows = rng.integers(-4, 5, size=(pairs, dim))
        halfspaces = []
        ok = True
        for r in rows:
            if not np.any(r):
                ok = False
                break
            a = tuple(Fraction(int(x)) for x in r)
            halfspaces.append((a, Fraction(1)))
            halfspaces.append((tuple(-x for x in a), Fraction(1)))
        if not ok:
            continue
        # bounded iff the rows span all directions; add the unit box to be safe
        for i in range(dim):
            e = tuple(Fraction(3 if j == i else 0) for j in range(dim))
            halfspaces.append((e, Fraction(1)))
            halfspaces.append((tuple(-x for x in e), Fraction(1)))
        return B.PolytopeBody(dim, halfspaces=halfspaces)


def rational_sphere(count, seed=2024):
    """``2 count`` points on the unit sphere of R^3: ``count`` inverse
    stereographic images ``(2a, 2b, a^2 + b^2 - 1) / (a^2 + b^2 + 1)`` of
    rationals a and b (numerator in [-400, 400], denominator in [1, 97],
    drawn for a and then for b), none the negative of another, and their
    negatives."""
    rng = np.random.default_rng(seed)
    pts: set = set()
    while len(pts) < count:
        a, b = (Fraction(int(rng.integers(-400, 401)), int(rng.integers(1, 98)))
                for _ in range(2))
        q = a * a + b * b + 1
        p = (2 * a / q, 2 * b / q, (a * a + b * b - 1) / q)
        if p not in pts and tuple(-x for x in p) not in pts:
            pts.add(p)
    pts = sorted(pts)
    return pts + [tuple(-x for x in p) for p in pts]


# ---------------------------------------------------------------------------
# hypothesis strategies


def small_fractions(max_num=6, max_den=4):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def nonzero_fraction_vectors(dim, max_num=6, max_den=4):
    return st.lists(
        small_fractions(max_num, max_den), min_size=dim, max_size=dim
    ).filter(lambda v: any(x != 0 for x in v)).map(tuple)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
