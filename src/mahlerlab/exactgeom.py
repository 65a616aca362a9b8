"""Exact rational polytope machinery.

Everything here works over the rationals.  Input coordinates are
`fractions.Fraction` (or ints); each point list and each H-list is scaled to
integers once, by one common denominator (``scale_to_int``), so that
predicates reduce to signs of integer dot products, ranks and determinants
(no floating point anywhere), and Fractions are built again only for the
outputs.

Provides:

* ``_eliminate`` -- the one elimination kernel: fraction-free (Bareiss)
  row echelon form, or with ``jordan`` the reduced form, every division
  exact.  ``bareiss_det`` and ``int_rank`` read its last pivot and its pivot
  count; ``invert_rational_matrix`` reads ``d M^-1`` off one pass over
  ``[M | I]``; the double description takes its first independent rows
  from the pivot columns of the transpose and its starting rays from the
  same inverse.
* ``ExactHull`` -- the one V <-> H and volume kernel.  With the points
  centred at their centroid, the facets are the vertices of the polar (double
  description) unless an H-representation is passed in; vertices, redundant
  rows and an always-on certificate follow from vertex-facet incidence.  The
  exact volume cones from the centroid over a pulling triangulation of the
  facets, built on the incidence bitmasks (Bueler, Enge and Fukuda, *Exact
  volume computation for polytopes: a practical study*, 2000).  When the
  vertex set is symmetric about its centroid, the two rows of a +- facet
  pair share one rank check.
* ``map_points`` -- the exact image of a point list under integer columns
  over a common denominator: one integer dot product per entry.
* ``dd_vertices`` -- vertex enumeration for a bounded H-polytope
  ``{x : Ax <= b}`` by the double description method on the homogenization
  cone, each ray's incidence bitmask carried from step to step (Fukuda and
  Prodon, *Double description method revisited*, 1996).
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
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    if g in (0, 1):
        return tuple(v)
    return tuple(x // g for x in v)


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
    """Scale rational vectors by a common denominator; returns (ints, lcm)."""
    fracs = [[x if type(x) in (int, Fraction) else Fraction(x) for x in v] for v in vectors]
    lcm = math.lcm(*{x.denominator for v in fracs for x in v})
    return [tuple(x.numerator * (lcm // x.denominator) for x in v) for v in fracs], lcm


def map_points(points: Sequence[Sequence[Fraction]], columns: Sequence[Sequence[int]],
               den: int) -> list[tuple[Fraction, ...]]:
    """The exact images ``(<p, c_1>, ..., <p, c_k>) / den`` of rational
    points ``p``, for integer columns ``c_j`` over one common denominator
    ``den`` (the pair ``scale_to_int`` returns).  The points are scaled to
    integers once as well, so each entry is one integer dot product."""
    ints, lcm = scale_to_int(points)
    den *= lcm
    return [tuple(Fraction(_dot(p, c), den) for c in columns) for p in ints]


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
# V <-> H conversion and exact volume


class DegenerateHullError(ValueError):
    """Input points do not span the ambient dimension."""


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


class ExactHull:
    """Facets, vertices and exact volume of the convex hull of rational points.

    The points, and the rows of ``halfspaces``, are each scaled to integers
    once by one common denominator; the integer points are sorted and
    deduped (a positive scale keeps the lexicographic order of the
    rationals, so point indices are those of the sorted rational points),
    and ``vertex_points`` and ``facets`` build Fractions again only for
    their outputs.

    The points are centred at their centroid, an interior point.  The
    facets are the rows of ``halfspaces`` (pairs ``(a, b)`` meaning
    ``<a, x> <= b``, redundant rows allowed) when an H-representation is
    known; otherwise they are the vertices of the polar of the centred
    points, found by double description.  A point is a vertex when the
    normals of the facets through it have rank ``dim``; ``extreme=True``
    says that every point is one.  A row is kept when its incident vertices
    have rank ``dim``; when the vertex set is closed under negation, the
    rows ``(a, c)`` and ``(-a, c)`` meet it in negated sets, and one rank
    check serves both.

    The certificate is always checked, and a failure raises
    ``AssertionError``: every point satisfies every row, and every kept
    facet passes through ``dim`` linearly independent centred vertices.

    ``volume`` cones from the centroid over a pulling triangulation of the
    facets (``facet_simplices``, tuples of point indices).  When the
    vertices are symmetric about the centroid it takes one facet of each
    +- pair and doubles the sum.
    """

    def __init__(self, points: Sequence[Sequence[Fraction]],
                 halfspaces: Sequence[tuple[Sequence[Fraction], Fraction]] | None = None,
                 extreme: bool = False):
        # one common denominator: a positive scale keeps the lexicographic
        # order, so the sorted integer points index as the sorted rationals
        raw, lcm = scale_to_int(points)
        raw = sorted(set(raw))
        if not raw:
            raise ValueError("no points")
        d = self.dim = len(raw[0])
        self._raw, self._lcm = raw, lcm
        n = len(raw)
        # centred integer coordinates x = scale * p - shift
        shift = tuple(map(sum, zip(*raw)))
        ints = raw
        if any(shift):
            ints = [tuple(n * x - s for x, s in zip(p, shift)) for p in raw]
        self._ints = ints
        self._scale = n * lcm if any(shift) else lcm
        rank = int_rank(ints)
        if rank < d:
            raise DegenerateHullError(f"points span affine rank {rank} < dim {d}")

        if halfspaces is None:
            nonzero = [p for p in ints if any(p)]
            polar = dd_vertices(nonzero, [1] * len(nonzero))
            rows = [gcd_reduce(r) for r in scale_to_int([y + (1,) for y in polar])[0]]
        else:
            # the rows (L a, L b) of one common denominator L; the centred
            # offset of <a, x> <= b is L (scale b - <a, shift>)
            scaled, _ = scale_to_int([tuple(a) + (b,) for a, b in halfspaces])
            rows = sorted({gcd_reduce(r[:-1] + (self._scale * r[-1] - _dot(r[:-1], shift),))
                           for r in scaled})

        tight = []
        for row in rows:
            a, rhs = row[:-1], row[-1]
            mask = 0
            for i, p in enumerate(ints):
                v = _dot(a, p)
                if v > rhs:
                    raise AssertionError("hull certificate failed: a point violates a facet")
                if v == rhs:
                    mask |= 1 << i
            tight.append(mask)
        if extreme:
            vertex_ids = list(range(n))
        else:
            vertex_ids = [
                i for i in range(n)
                if int_rank([r[:-1] for r, m in zip(rows, tight) if m >> i & 1]) == d
            ]
        self._vertex_ids = vertex_ids
        vset = {ints[i] for i in vertex_ids}
        self._symmetric = all(tuple(-x for x in v) in vset for v in vset)
        vmask = sum(1 << i for i in vertex_ids)
        self._rows = []
        self._masks = []
        # a vertex set closed under negation meets the rows (a, c) and
        # (-a, c) in negated sets of equal rank: one check serves both
        full: dict[tuple[int, ...], bool] = {}
        for row, m in zip(rows, tight):
            m &= vmask
            twin = tuple(-x for x in row[:-1]) + row[-1:] if self._symmetric else None
            full[row] = full[twin] if twin in full else \
                int_rank([ints[i] for i in _bits(m)]) == d
            if full[row]:
                self._rows.append(row)
                self._masks.append(m)
            elif halfspaces is None:
                raise AssertionError(
                    "hull certificate failed: a facet has fewer than dim independent vertices")
        self._simplices = None
        self._volume = None

    @property
    def facet_simplices(self) -> list[tuple[int, ...]]:
        if self._simplices is None:
            memo: dict = {}
            self._simplices = [
                simplex
                for row, m in zip(self._rows, self._masks)
                if not self._symmetric or row[:-1] > tuple(-x for x in row[:-1])
                for simplex in _pulling(m, self.dim - 1, self._masks, memo)
            ]
        return self._simplices

    def facets(self) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        """Supporting hyperplanes ``<a, x> <= c`` in the input coordinates,
        with ``a`` a primitive integer vector."""
        out = []
        for row, m in zip(self._rows, self._masks):
            a = gcd_reduce(row[:-1])
            v = self._raw[(m & -m).bit_length() - 1]
            out.append((tuple(map(Fraction, a)), Fraction(_dot(a, v), self._lcm)))
        return sorted(out)

    def vertex_points(self) -> list[tuple[Fraction, ...]]:
        lcm = self._lcm
        return [tuple(Fraction(x, lcm) for x in self._raw[i]) for i in self._vertex_ids]

    def volume(self) -> Fraction:
        if self._volume is None:
            pts = self._ints
            total = sum(abs(bareiss_det([pts[i] for i in s])) for s in self.facet_simplices)
            if self._symmetric:
                total *= 2
            d = self.dim
            self._volume = Fraction(total, math.factorial(d) * self._scale**d)
        return self._volume


# ---------------------------------------------------------------------------
# double description (vertex enumeration from halfspaces)


def dd_vertices(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[tuple[Fraction, ...]]:
    """Vertices of the bounded polytope ``{x : Ax <= b}``.

    Double description on the homogenization cone ``{(x, t) : Ax - tb <= 0}``
    with the combinatorial adjacency test.  Raises ``ValueError`` if the
    polytope is unbounded or the system is rank deficient.
    """
    if len(A) == 0:
        raise ValueError("empty halfspace system")
    d = len(A[0])
    scaled, _ = scale_to_int([tuple(row) + (bi,) for row, bi in zip(A, b)])
    rows = []
    seen = set()
    for r in scaled:
        r = gcd_reduce(r[:-1] + (-r[-1],))
        if r not in seen:
            seen.add(r)
            rows.append(r)
    D = d + 1
    # the first D independent rows: the pivot columns of the transpose
    init = _eliminate(list(zip(*rows)))[1]
    if len(init) < D:
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

    verts = []
    seen_v: set[tuple[Fraction, ...]] = set()
    for r in rays:
        t = r[-1]
        if t <= 0:
            raise ValueError("polytope is unbounded (recession ray found)")
        v = tuple(Fraction(x, t) for x in r[:-1])
        if v not in seen_v:
            seen_v.add(v)
            verts.append(v)
    return sorted(verts)
