"""Exact rational polytope machinery.

Everything here works over the rationals.  Input coordinates are
`fractions.Fraction`; internally all computations are scaled to integers so
that predicates reduce to signs of integer dot products, ranks and
determinants (Bareiss elimination, no floating point anywhere).

Provides:

* ``ExactHull`` -- the one V <-> H and volume kernel.  With the points
  centred at their centroid, the facets are the vertices of the polar (double
  description) unless an H-representation is passed in; vertices, redundant
  rows and an always-on certificate follow from vertex-facet incidence.  The
  exact volume cones from the centroid over a pulling triangulation of the
  facets, built on the incidence bitmasks (Bueler, Enge and Fukuda, *Exact
  volume computation for polytopes: a practical study*, 2000).
* ``dd_vertices`` -- vertex enumeration for a bounded H-polytope
  ``{x : Ax <= b}`` by the double description method on the homogenization
  cone.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


# ---------------------------------------------------------------------------
# integer linear algebra


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    s = 0
    for x, y in zip(a, b):
        s += x * y
    return s


def gcd_reduce(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    if g in (0, 1):
        return tuple(v)
    return tuple(x // g for x in v)


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def int_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix (fraction-free row echelon)."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, len(m)):
            mic = m[i][col]
            for j in range(col, ncols):
                m[i][j] = (m[i][j] * pivot - mic * m[rank][j]) // prev
        prev = pivot
        rank += 1
        if rank == len(m):
            break
    return rank


def scale_to_int(vectors: Sequence[Sequence[Fraction]]) -> tuple[list[tuple[int, ...]], int]:
    """Scale rational vectors by a common denominator; returns (ints, lcm)."""
    fracs = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
             for v in vectors]
    lcm = math.lcm(*{x.denominator for v in fracs for x in v})
    return [tuple(x.numerator * (lcm // x.denominator) for x in v) for v in fracs], lcm


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

    The points are centred at their centroid, an interior point.  The facets
    are the rows of ``halfspaces`` (pairs ``(a, b)`` meaning ``<a, x> <= b``,
    redundant rows allowed) when an H-representation is known; otherwise
    they are the vertices of the polar of the centred points, found by
    double description.  A point is a vertex when the normals of the facets
    through it have rank ``dim``; ``extreme=True`` says that every point is
    one.  A row is kept when its incident vertices have rank ``dim``.

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
        pts = sorted({tuple(Fraction(x) for x in p) for p in points})
        if not pts:
            raise ValueError("no points")
        d = self.dim = len(pts[0])
        self._frac_points = pts
        ints, lcm = scale_to_int(pts)
        n = len(ints)
        # centred integer coordinates x = scale * p - shift
        shift = tuple(sum(p[j] for p in ints) for j in range(d))
        if any(shift):
            ints = [tuple(n * x - s for x, s in zip(p, shift)) for p in ints]
        self._ints = ints
        self._scale = n * lcm if any(shift) else lcm
        rank = int_rank(ints)
        if rank < d:
            raise DegenerateHullError(f"points span affine rank {rank} < dim {d}")

        if halfspaces is None:
            nonzero = [p for p in ints if any(p)]
            polar = dd_vertices(nonzero, [1] * len(nonzero))
            rows = [gcd_reduce(scale_to_int([y + (Fraction(1),)])[0][0]) for y in polar]
        else:
            rows = []
            for a, b in halfspaces:
                a = tuple(Fraction(x) for x in a)
                rhs = self._scale * Fraction(b) - sum(x * s for x, s in zip(a, shift))
                rows.append(gcd_reduce(scale_to_int([a + (rhs,)])[0][0]))
            rows = sorted(set(rows))

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
        vmask = sum(1 << i for i in vertex_ids)
        self._rows = []
        self._masks = []
        for row, m in zip(rows, tight):
            m &= vmask
            if int_rank([ints[i] for i in _bits(m)]) == d:
                self._rows.append(row)
                self._masks.append(m)
            elif halfspaces is None:
                raise AssertionError(
                    "hull certificate failed: a facet has fewer than dim independent vertices")
        vset = {ints[i] for i in vertex_ids}
        self._symmetric = all(tuple(-x for x in v) in vset for v in vset)
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
            v = self._frac_points[(m & -m).bit_length() - 1]
            out.append((tuple(Fraction(x) for x in a), sum(x * y for x, y in zip(a, v))))
        return sorted(out)

    def vertex_points(self) -> list[tuple[Fraction, ...]]:
        return [self._frac_points[i] for i in self._vertex_ids]

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


def _greedy_independent_rows(rows: list[tuple[int, ...]], target: int) -> list[int]:
    chosen: list[int] = []
    for i, _ in enumerate(rows):
        if len(chosen) == target:
            break
        cand = chosen + [i]
        if int_rank([rows[k] for k in cand]) == len(cand):
            chosen.append(i)
    if len(chosen) < target:
        raise ValueError("halfspace system is rank deficient (unbounded body?)")
    return chosen


def _cramer_column_rays(mat: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of the simplicial cone {y : My <= 0} for invertible M.

    Columns r_j with M r_j = -|det M| e_j, via Cramer's rule.
    """
    n = len(mat)
    det = bareiss_det(mat)
    if det == 0:
        raise ValueError("singular initialization matrix")
    sgn = 1 if det > 0 else -1
    rays = []
    for j in range(n):
        col = []
        for i in range(n):
            replaced = [
                list(mat[r][:i]) + [1 if r == j else 0] + list(mat[r][i + 1 :])
                for r in range(n)
            ]
            col.append(bareiss_det(replaced))
        rays.append(gcd_reduce([-sgn * x for x in col]))
    return rays


def dd_vertices(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[tuple[Fraction, ...]]:
    """Vertices of the bounded polytope ``{x : Ax <= b}``.

    Double description on the homogenization cone ``{(x, t) : Ax - tb <= 0}``
    with the combinatorial adjacency test.  Raises ``ValueError`` if the
    polytope is unbounded or the system is rank deficient.
    """
    arows = [tuple(Fraction(x) for x in row) for row in A]
    brow = [Fraction(x) for x in b]
    if not arows:
        raise ValueError("empty halfspace system")
    d = len(arows[0])
    scaled, _ = scale_to_int([row + (-bi,) for row, bi in zip(arows, brow)])
    rows = []
    seen = set()
    for r in scaled:
        r = gcd_reduce(r)
        if r not in seen:
            seen.add(r)
            rows.append(r)
    D = d + 1
    init = _greedy_independent_rows(rows, D)
    order = init + [i for i in range(len(rows)) if i not in set(init)]
    rays = _cramer_column_rays([rows[i] for i in init])

    def zero_mask(ray: tuple[int, ...], upto: int) -> int:
        mask = 0
        for k in range(upto):
            if _dot(rows[order[k]], ray) == 0:
                mask |= 1 << k
        return mask

    masks = [zero_mask(r, D) for r in rays]

    for step in range(D, len(order)):
        row = rows[order[step]]
        vals = [_dot(row, r) for r in rays]
        keep_idx = [i for i, v in enumerate(vals) if v <= 0]
        pos_idx = [i for i, v in enumerate(vals) if v > 0]
        neg_idx = [i for i, v in enumerate(vals) if v < 0]
        new_rays: list[tuple[int, ...]] = []
        seen_new: set[tuple[int, ...]] = set()
        for ip in pos_idx:
            for im in neg_idx:
                common = masks[ip] & masks[im]
                if bin(common).count("1") < D - 2:
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
        rays = [rays[i] for i in keep_idx] + new_rays
        upto = step + 1
        masks = [zero_mask(r, upto) for r in rays]

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
