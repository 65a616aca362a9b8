"""Exact rational polytope machinery, in integers from input to output.

Every point, and every facet normal at offset 1, is a pair ``(X, s)``: an
integer vector X and an integer scale s > 0 with gcd(X, s) = 1, for the
rational point X / s.  Equal rationals give equal pairs, so sets and dicts
dedupe points as they are.  A *point list* is a tuple of such pairs, unique
and sorted by rational value (``point_list`` from rationals,
``sorted_points`` from pairs).  The kernels read and write point lists, so
predicates reduce to signs of integer dot products, ranks and determinants
of the X rows (a row times a positive scale keeps its rank), with no
floating point and no Fraction arithmetic.  Fractions are built only for
outputs (``fractions``): ``ExactHull.vertex_points``, ``facets`` and
``volume``, and the body-level outputs on top of them.

Provides:

* ``_eliminate`` -- the one elimination kernel: fraction-free (Bareiss)
  row echelon form, or with ``jordan`` the reduced form, every division
  exact.  ``bareiss_det`` and ``int_rank`` read its last pivot and its pivot
  count; ``invert_rational_matrix`` reads ``d M^-1`` off one pass over
  ``[M | I]``; the double description takes its first independent rows
  from the pivot columns of the transpose and its starting rays from the
  same inverse; a simple hull's volume reads ``+-det M`` and
  ``+-det M M^-T C`` off one pass over ``[M^T | C]``.
* ``dd_vertices`` -- the one conversion: the vertices of the bounded
  polytope ``{x : <a, x> <= 1}`` of a list of normals, by the double
  description method on the homogenization cone, each ray's incidence
  bitmask carried from step to step (Fukuda and Prodon, *Double description
  method revisited*, 1996); its primitive integer rays ``(X, t)`` are the
  vertices.  Of a vertex list, the same call gives the facet normals.
* ``ExactHull`` -- certificate and volume of a polytope given both lists,
  each closed under negation: one incidence pass, ``<A, X> == t s`` for the
  normal ``(A, t)`` and the point ``(X, s)``, one rank rule for vertices and
  facets alike, and ``polar`` swapping the two sides.  The exact volume
  takes one of two routes, read off the incidence (Bueler, Enge and Fukuda,
  *Exact volume computation for polytopes: a practical study*, 2000).  A
  simple hull, every vertex on d facets, and the polar of one, every facet
  with d vertices, share one pass of Lawrence's formula that gives both
  volumes: one Gauss-Jordan elimination per +- pair of vertices.  Any other
  hull cones from the origin over a pulling triangulation of one facet of
  each +- pair, built on the incidence bitmasks: the sum of
  ``|det X_sigma| / (d! prod s_sigma)``, doubled.
* ``map_points`` -- the exact image of a point list under integer columns
  over a common denominator: one integer dot product per entry.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence


class BodyError(ValueError):
    """Malformed or inconsistent body description, a singular matrix
    included."""


# ---------------------------------------------------------------------------
# integer linear algebra


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def gcd_reduce(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = math.gcd(*v)
    return tuple(v) if g in (0, 1) else tuple(x // g for x in v)


def _eliminate(rows: Iterable[Sequence[int]], jordan: bool = False,
               stop: int | None = None) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix.

    Pivots on the columns in order, the first ``stop`` of them (all by
    default), taking the first nonzero entry at or below the current row.
    A step with pivot ``p`` replaces each other row ``r`` by
    ``(p * r - r[col] * pivot_row) / p_prev``, an exact division
    (Sylvester's identity; Bareiss, Math. Comp. 22, 1968).  Rows below the
    pivot are reduced, so the result is a row echelon form whose last pivot
    is +- a minor; with ``jordan`` the rows above are reduced too, and a
    square invertible left block ends as ``p I``, ``p`` the last pivot.

    Returns ``(matrix, pivot_columns, swap_sign)``; ``swap_sign`` is the
    sign of the row permutation.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    k = 0  # the current row
    for col in range(ncols if stop is None else stop):
        if not m[k][col]:
            for i in range(k + 1, nrows):
                if m[i][col]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                continue
        prow = m[k]
        p = prow[col]
        for i in range(k + 1, nrows):  # zero before col in both rows
            row = m[i]
            f = row[col]
            row[col] = 0
            for j in range(col + 1, ncols):
                row[j] = (row[j] * p - f * prow[j]) // prev
        if jordan:
            for i in range(k):
                f = m[i][col]
                m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], prow)]
        pivots.append(col)
        prev = p
        k += 1
        if k == nrows:
            break
    return m, pivots, sign


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free elimination."""
    if not rows:
        return 1
    m, pivots, sign = _eliminate(rows)
    return sign * m[-1][-1] if len(pivots) == len(m) else 0


def int_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix (fraction-free row echelon)."""
    return len(_eliminate(rows)[1])


def scale_to_int(vectors: Sequence[Sequence[Fraction]]) -> tuple[list[tuple[int, ...]], int]:
    """Scale the rows of a rational matrix by one common denominator;
    returns (ints, lcm)."""
    fracs = [[x if type(x) in (int, Fraction) else Fraction(x) for x in v] for v in vectors]
    lcm = math.lcm(*{x.denominator for v in fracs for x in v})
    return [tuple(x.numerator * (lcm // x.denominator) for x in v) for v in fracs], lcm


# ---------------------------------------------------------------------------
# point lists: primitive integer vectors with their own scales

Point = tuple[tuple[int, ...], int]


def _primitive(X: Sequence[int], s: int) -> Point:
    """The pair of the rational point X / s, s > 0."""
    g = math.gcd(s, *X)
    if g == 1:
        return tuple(X), s
    return tuple(x // g for x in X), s // g


def sorted_points(pairs) -> tuple[Point, ...]:
    """Pairs as a point list: unique, and sorted by rational value.  Under one
    scale the order of the X is that of the rationals; under several, the X
    are compared over the common denominator."""
    unique = set(pairs)
    scales = {s for _, s in unique}
    if len(scales) <= 1:
        return tuple(sorted(unique))
    lcm = math.lcm(*scales)
    return tuple(sorted(unique, key=lambda p: tuple(x * (lcm // p[1]) for x in p[0])))


def point_list(points) -> tuple[Point, ...]:
    """Rational points (ints or Fractions) as a point list.  A point's scale
    is the lcm of its denominators, which makes its pair primitive."""
    pairs = []
    for p in points:
        p = [x if type(x) in (int, Fraction) else Fraction(x) for x in p]
        s = math.lcm(*(x.denominator for x in p))
        pairs.append((tuple(x.numerator * (s // x.denominator) for x in p), s))
    return sorted_points(pairs)


def fractions(points: Sequence[Point]) -> tuple[tuple[Fraction, ...], ...]:
    """The points of a point list as Fraction tuples, in its order."""
    return tuple(tuple(Fraction(x, s) for x in X) for X, s in points)


def map_points(points: Sequence[Point], columns: Sequence[Sequence[int]],
               den: int) -> list[Point]:
    """The images ``(<X, c_1>, ..., <X, c_k>) / (s den)`` of the points
    ``(X, s)`` under integer columns ``c_j`` over one common denominator
    ``den > 0`` (the pair ``scale_to_int`` returns): one integer dot product
    per entry.  The pairs are primitive and in the order of the points."""
    return [_primitive([_dot(X, c) for c in columns], s * den) for X, s in points]


def _scaled_inverse(mat: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """``(d, d M^-1)`` for a square integer matrix ``M``, ``d = +-det M``: one
    Gauss-Jordan pass over ``[M | I]`` ends as ``[d I | d M^-1]``.  ``d`` is 0
    when ``M`` is singular."""
    n = len(mat)
    m, pivots, _ = _eliminate(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(mat)],
        jordan=True, stop=n)
    if len(pivots) < n:
        return 0, []
    return m[-1][n - 1], [r[n:] for r in m]


def invert_rational_matrix(M: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix.  With ``L`` the common
    denominator, ``M^-1 = L (d A^-1) / d`` for the integer matrix
    ``A = L M``."""
    ints, lcm = scale_to_int(M)
    d, inv = _scaled_inverse(ints)
    if d == 0:
        raise BodyError("singular matrix")
    return [[Fraction(lcm * x, d) for x in row] for row in inv]


# ---------------------------------------------------------------------------
# incidence certificate and exact volume


class DegenerateHullError(ValueError):
    """Input points do not span the ambient dimension."""

    def __init__(self, rank: int, dim: int):
        super().__init__(f"points span rank {rank} < dim {dim}")
        self.rank = rank


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _pulling(face: int, k: int, candidates, memo: dict) -> list[tuple[int, ...]]:
    """Pulling triangulation of the k-face with vertex bitmask ``face``.

    The cone from the face's lowest vertex over the triangulations of its
    facets that miss that vertex.  The facets of a face are the
    inclusion-maximal sets among its proper intersections ``face & m`` with
    the ``candidates`` (the polytope's facet masks, or the intersections of
    a face that contains this one).  A face's triangulation depends on the
    face alone, so ``memo`` shares it between the faces that contain it.
    """
    out = memo.get(face)
    if out is not None:
        return out
    verts = _bits(face)
    if len(verts) == k + 1:
        out = [tuple(verts)]
    else:
        subs = {face & m for m in candidates} - {0, face}
        maximal: list[int] = []
        for s in sorted(subs, key=int.bit_count, reverse=True):
            if all(s & t != s for t in maximal):
                maximal.append(s)
        apex = verts[0]
        out = [
            (apex,) + simplex
            for s in maximal
            if not s >> apex & 1
            for simplex in _pulling(s, k - 1, subs, memo)
        ]
    memo[face] = out
    return out


def _twins(points: Sequence[Point]) -> list[int]:
    """The index of each point's negation; ``ValueError`` if one is missing."""
    index = {p: i for i, p in enumerate(points)}
    try:
        return [index[tuple(-x for x in X), s] for X, s in points]
    except KeyError:
        raise ValueError("hull needs point lists closed under negation") from None


def _full_rank(rows: Sequence[Point], masks: Sequence[int], twins: Sequence[int],
               d: int) -> list[int]:
    """The indices whose mask selects rows of rank d.  An index's twin
    selects the negated rows, so one check serves both."""
    full: list[bool | None] = [None] * len(masks)
    for i, m in enumerate(masks):
        if full[i] is None:
            full[i] = full[twins[i]] = (
                m.bit_count() >= d and int_rank([rows[j][0] for j in _bits(m)]) == d)
    return [i for i, f in enumerate(full) if f]


class ExactHull:
    """Vertices, facets and exact volume of a polytope given both lists.

    ``points`` and ``normals`` are point lists, each closed under negation:
    the points, which must span the space (``DegenerateHullError``
    otherwise), and the facet normals ``(A, t)`` of ``<A, x> <= t``.  Either
    may hold points that are not vertices or normals that are not facets.
    The hull converts nothing; it certifies and measures.

    One pass builds the incidence ``<A, X> == t s`` both ways, as bitmasks
    of the tight points of each normal and the tight normals of each point;
    a point outside a halfspace raises ``AssertionError``.  One rank rule
    runs on both sides: a point is a vertex when its tight normals have
    rank ``dim``, and a normal is a facet when its tight points do.  The
    twins ``(X, s)`` and ``(-X, s)`` have opposite dot products and negated
    tight sets, so one of each pair is dotted and ranked.  The incidence is
    symmetric in the two lists, so ``polar`` swaps them.

    ``points`` and ``rows`` are the two lists as given, ``vertices`` and
    ``normals`` the ones that pass, in order; ``vertex_points`` and
    ``facets`` are the last two as Fractions.  ``volume`` reads the
    incidence of the vertices and the passing normals.  When every vertex
    lies on exactly ``dim`` facets (a simple hull), or every facet holds
    exactly ``dim`` vertices (the polar of a simple hull), one pass of
    Lawrence's formula over the simple side fills the volumes of the hull
    and of its polar, which ``polar`` shares.  Any other hull cones from the
    origin over a pulling triangulation of one facet of each +- pair
    (``facet_simplices``, tuples of point indices) and doubles the sum.
    """

    def __init__(self, points: Sequence[Point], normals: Sequence[Point]):
        if not points or not normals:
            raise ValueError("hull needs points and normals")
        point_twins, normal_twins = _twins(points), _twins(normals)
        d = len(points[0][0])
        rank = int_rank([X for X, _ in points])
        if rank < d:
            raise DegenerateHullError(rank, d)
        half = [(i, X, s, twin) for i, ((X, s), twin) in enumerate(zip(points, point_twins))
                if i <= twin]
        point_masks = [0] * len(points)
        normal_masks = []
        for j, (A, t) in enumerate(normals):
            mask = 0
            for i, X, s, twin in half:
                v = _dot(A, X)
                if abs(v) >= t * s:
                    if abs(v) > t * s:
                        raise AssertionError("hull certificate failed: a point violates a facet")
                    k = i if v > 0 else twin
                    mask |= 1 << k
                    point_masks[k] |= 1 << j
            normal_masks.append(mask)
        self._set(points, normals, (point_masks, normal_masks),
                  (_full_rank(normals, point_masks, point_twins, d),
                   _full_rank(points, normal_masks, normal_twins, d)), [None, None], 0)

    def _set(self, points, rows, incidence, ids, volumes, side) -> None:
        """The lists, incidence masks and passing indices, each as a pair
        (points, normals); the triangulation's masks keep the vertices.
        ``volumes`` is the list of the two volumes that the hull and its
        polar share, and ``side`` the hull's place in it."""
        self.dim = len(points[0][0])
        self.points, self.rows, self._incidence, self._ids = points, rows, incidence, ids
        self.vertices = tuple(points[i] for i in ids[0])
        self.normals = tuple(rows[j] for j in ids[1])
        vmask = sum(1 << i for i in ids[0])
        self._masks = [incidence[1][j] & vmask for j in ids[1]]
        self._simplices = None
        self._volumes, self._side = volumes, side

    def polar(self) -> "ExactHull":
        """The polar's hull: the lists, incidence and indices swapped, and
        the volumes shared."""
        hull = ExactHull.__new__(ExactHull)
        hull._set(self.rows, self.points, self._incidence[::-1], self._ids[::-1],
                  self._volumes, 1 - self._side)
        return hull

    @property
    def facet_simplices(self) -> list[tuple[int, ...]]:
        """The simplices of one facet of each +- pair: the facets whose
        normal's first nonzero entry is positive."""
        if self._simplices is None:
            memo: dict = {}
            self._simplices = [
                simplex
                for (A, _), m in zip(self.normals, self._masks)
                if A > tuple(-x for x in A)
                for simplex in _pulling(m, self.dim - 1, self._masks, memo)
            ]
        return self._simplices

    def facets(self) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        """Supporting hyperplanes ``<a, x> <= c``, ``a`` a primitive integer
        vector, sorted: the normal ``(A, t)`` over ``g = gcd(A)`` is
        ``a = A / g`` and ``c = t / g``."""
        rows = []
        for A, t in self.normals:
            g = math.gcd(*A)
            rows.append((tuple(x // g for x in A), t, g))
        rows.sort()  # facets of one polytope have distinct normals a
        return [(tuple(map(Fraction, a)), Fraction(t, g)) for a, t, g in rows]

    def vertex_points(self) -> list[tuple[Fraction, ...]]:
        return list(fractions(self.vertices))

    def volume(self) -> Fraction:
        """The exact volume.  A simple hull, or the polar of one, fills its
        own volume and its polar's by Lawrence's formula (``_simple_volumes``);
        any other hull sums ``2 |det X_sigma| / (d! prod s_sigma)`` over its
        simplices, in integers per denominator ``prod s_sigma`` and put over
        their lcm once."""
        volumes, side = self._volumes, self._side
        if volumes[side] is None:
            inc, ids = self._incidence, self._ids
            if own := _simple_volumes(self.points, self.rows, inc[0], ids):
                volumes[side], volumes[1 - side] = own
            elif polar := _simple_volumes(self.rows, self.points, inc[1], ids[::-1]):
                volumes[1 - side], volumes[side] = polar
            else:
                pts = self.points
                sums: dict[int, int] = {}
                for simplex in self.facet_simplices:
                    det = abs(bareiss_det([pts[i][0] for i in simplex]))
                    den = math.prod(pts[i][1] for i in simplex)
                    sums[den] = sums.get(den, 0) + det
                volumes[side] = _over_lcm(sums, math.factorial(self.dim))
        return volumes[side]


def _over_lcm(sums: dict[int, int], factorial: int) -> Fraction:
    """``2 / factorial`` times the sum of ``v / k`` over the items ``k: v``:
    the ``v`` put over the lcm of the ``|k|`` in integers, one Fraction
    built."""
    lcm = math.lcm(*sums)
    return Fraction(2 * sum(v * (lcm // k) for k, v in sums.items()), factorial * lcm)


def _simple_volumes(points: Sequence[Point], rows: Sequence[Point],
                    point_masks: Sequence[int], ids) -> tuple[Fraction, Fraction] | None:
    """The volumes of a simple hull P and of its polar, or None when some
    vertex lies on more than d facets.

    Lawrence, *Polytope volume computation* (Math. Comp. 57, 1991): with M
    the integer normals of the d facets at the vertex ``(X, s)`` and
    ``M^T gamma = C`` for a C orthogonal to no edge,
    ``vol P = (1/d!) sum <C, X / s>^d / (|det M| prod gamma)``.  One
    Gauss-Jordan pass over ``[M^T | C]`` ends as ``[p I | y]``, ``p = +-det
    M`` and ``y = p gamma``, so a vertex's term is
    ``<C, X>^d p^d / (|p| prod y s^d)``; a vertex and its twin give equal
    terms, so one of each +- pair is summed and the sum doubled.  C runs
    along the moment curve ``(1, t, t^2, ...)`` from t = 2 until no ``y_i``
    is 0, which each edge allows for at most d - 1 values of t.  P° is
    simplicial, with one facet ``conv(A_j / t_j)`` per vertex of P, so the
    same ``|p|`` give ``vol P° = (2/d!) sum |p| / prod t_j``.
    """
    d = len(points[0][0])
    fmask = sum(1 << j for j in ids[1])
    cones = []  # (X, s, the columns of M, prod t_j)
    for i in ids[0]:
        tight = point_masks[i] & fmask
        if tight.bit_count() != d:
            return None
        X, s = points[i]
        if X > tuple(-x for x in X):
            normals = [rows[j] for j in _bits(tight)]
            cones.append((X, s, list(zip(*(A for A, _ in normals))),
                          math.prod(offset for _, offset in normals)))
    t = 2
    while True:
        C = [t**k for k in range(d)]
        sums: dict[int, int] = {}
        polar: dict[int, int] = {}
        for X, s, columns, offsets in cones:
            m = _eliminate([col + (c,) for col, c in zip(columns, C)], jordan=True, stop=d)[0]
            p, prod_y = m[-1][d - 1], math.prod(r[d] for r in m)
            if not prod_y:
                break
            den = abs(p) * prod_y * s**d
            sums[den] = sums.get(den, 0) + (_dot(C, X) * p) ** d
            polar[offsets] = polar.get(offsets, 0) + abs(p)
        else:
            return _over_lcm(sums, math.factorial(d)), _over_lcm(polar, math.factorial(d))
        t += 1


# ---------------------------------------------------------------------------
# double description (vertex enumeration from halfspaces)


def dd_vertices(normals: Sequence[Point]) -> tuple[Point, ...]:
    """Vertices of the bounded polytope ``{x : <a, x> <= 1 for a in normals}``
    as a point list, for a point list of normals ``(A, t)`` (``a = A / t``).

    Double description on the homogenization cone ``{(x, w) : <A, x> - t w
    <= 0}`` with the combinatorial adjacency test.  Each row ``(A, -t)`` is
    primitive as it is, and each ray is kept primitive, so a ray ``(X, w)``
    with ``w > 0`` is the vertex's pair; a zero normal, the row ``0 <= 1``,
    is skipped.  Raises ``DegenerateHullError`` when the normals are flat
    (the body is unbounded, the polar of a flat body) and ``ValueError``
    when the body is otherwise unbounded.
    """
    if len(normals) == 0:
        raise ValueError("empty halfspace system")
    d = len(normals[0][0])
    rows = [A + (-t,) for A, t in normals if any(A)]
    D = d + 1
    # the first D independent rows: the pivot columns of the transpose
    init = _eliminate(list(zip(*rows)))[1]
    if len(init) < D:
        rank = int_rank([A for A, _ in normals])
        if rank < d:
            raise DegenerateHullError(rank, d)
        raise ValueError("halfspace system is rank deficient (unbounded body?)")
    order = init + sorted(set(range(len(rows))) - set(init))
    # the cone {y : My <= 0} has the rays r_j with M r_j = -|det M| e_j, the
    # columns of -sgn(det) adj M; ray j is tight on every starting row but j
    det, inv = _scaled_inverse([rows[i] for i in init])
    sgn = 1 if det > 0 else -1
    rays = [gcd_reduce([-sgn * row[j] for row in inv]) for j in range(D)]
    masks = [((1 << D) - 1) ^ (1 << j) for j in range(D)]

    for step in range(D, len(order)):
        row = rows[order[step]]
        bit = 1 << step
        vals = [_dot(row, r) for r in rays]
        keep_idx = [i for i, v in enumerate(vals) if v <= 0]
        pos_idx = [i for i, v in enumerate(vals) if v > 0]
        neg_idx = [i for i, v in enumerate(vals) if v < 0]
        new_rays: list[tuple[int, ...]] = []
        new_masks: list[int] = []
        seen_new: set[tuple[int, ...]] = set()
        for ip in pos_idx:
            for im in neg_idx:
                common = masks[ip] & masks[im]
                if common.bit_count() < D - 2:
                    continue
                adjacent = True
                for k, mk in enumerate(masks):
                    if k in (ip, im):
                        continue
                    if mk & common == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                vp, vm = vals[ip], vals[im]
                combo = gcd_reduce(
                    tuple(vp * rays[im][j] - vm * rays[ip][j] for j in range(D))
                )
                if combo not in seen_new:
                    seen_new.add(combo)
                    new_rays.append(combo)
                    # both parents satisfy every earlier row, with positive
                    # weights: the combination is tight where both are
                    new_masks.append(common | bit)
        rays = [rays[i] for i in keep_idx] + new_rays
        masks = [masks[i] | (bit if vals[i] == 0 else 0) for i in keep_idx] + new_masks

    verts = set()
    for r in rays:
        if r[-1] <= 0:
            raise ValueError("polytope is unbounded (recession ray found)")
        verts.add((r[:-1], r[-1]))
    return sorted_points(verts)
