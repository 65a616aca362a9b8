"""Centrally symmetric convex bodies and their duality operations.

Representations:

* ``PolytopeBody`` -- exact rational vertex and facet-normal lists, each an
  ``exactgeom`` point list; one double description fills the list not
  given, in either direction, and ``ExactHull`` certifies the pair and
  measures it.  Polarity swaps the two lists and a hull built on them.
* ``LpBallBody`` -- unit ball of an l_p norm, 1 < p < inf, in double
  precision.  p = 1 and p = inf are represented as exact cross/cube polytopes
  instead (see ``parse_body``).
* ``SliceBody`` / ``ImageBody`` -- hyperplane sections and linear images of
  functional bodies; membership on image fibers is a one-dimensional convex
  minimization.
* ``DiagonalImageBody`` -- a rational polytope core scaled by per-axis
  algebraic factors sqrt(s_i), s_i rational.  Central hyperplane sections and
  projections of rational polytopes land here: the core keeps the arithmetic
  exact while the presented coordinates form an orthonormal frame of the
  subspace.
* ``LagrangianProductBody`` -- K x T in R^{2n} (T = K° for K x K°),
  coordinates ordered (p_1..p_n, q_1..q_n) with K occupying the q-block.
* ``L1SumBody`` -- the free sum conv(T x 0, 0 x K) in the same blocks, the
  polar of a product.

All bodies are immutable after construction; every operation returns a fresh
body, so values are safe to share across threads.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactgeom import (
    BodyError,
    DegenerateHullError,
    ExactHull,
    Point,
    dd_vertices,
    fractions,
    invert_rational_matrix,
    map_points,
    point_list,
    scale_to_int,
    sorted_points,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# membership: a point lies in a body when its gauge is at most 1 + MEMBERSHIP_TOL
MEMBERSHIP_TOL = 1e-12


# ---------------------------------------------------------------------------
# rational helpers


def parse_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise BodyError(f"cannot parse rational from {x!r}") from e
    if isinstance(x, float):
        if not x.is_integer():
            raise BodyError(f"non-integer float {x!r} is not an exact rational")
        return Fraction(int(x))
    raise BodyError(f"cannot parse rational from {x!r}")


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_vector(seq) -> tuple[Fraction, ...]:
    return tuple(parse_rational(x) for x in seq)


def orthogonal_complement_basis(u):
    """Basis of u-perp: Gram-Schmidt on u and the coordinate vectors, each
    e_j, the coordinate of largest |u_i| (first such index) left out and the
    rest in increasing index order, less its projections on u and on the
    columns before it.

    Floats give orthonormal columns, the (n, n-1) array, projecting on
    u/|u|, so u need not be normalized.  Exact entries (an object array of
    Fractions or ints) give the exact orthogonal columns, not normalized, in
    integers (``_integer_complement``): ``(columns, den, norms2)``, the
    columns as integer tuples over one common denominator ``den`` and their
    squared norms as Fractions.  A zero normal, a non-finite entry, or a
    |u|^2 that overflows or underflows raises BodyError.
    """
    u = np.asarray(u)
    if u.dtype == object:
        return _integer_complement(u)
    u = u.astype(float)
    with np.errstate(over="ignore"):
        uu = u @ u
    if not 0 < uu < np.inf:
        raise BodyError("normal must be finite, nonzero, and of finite norm")
    pivot = int(np.argmax(np.abs(u)))
    u = u / np.sqrt(uu)  # a unit vector, whose squared norm is taken as exactly 1
    cols = []
    for j in range(len(u)):
        if j == pivot:
            continue
        v = np.eye(len(u), dtype=u.dtype)[j] - u[j] * u
        for b in cols:
            v = v - (v @ b) * b
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


def _integer_complement(u) -> tuple[list[tuple[int, ...]], int, list[Fraction]]:
    """The exact Gram-Schmidt of ``orthogonal_complement_basis`` in integers.

    The previous columns b_k are orthogonal to u and to each other, so
    column j is ``e_j - sum_k b_k[j] b_k / |b_k|^2`` over u and them, a sum
    that does not change when a b_k is scaled.  So each is held as a
    primitive integer vector C_k with N_k = |C_k|^2, and column j is
    ``V / L`` with ``L = lcm(N_k)`` and ``V = L e_j - sum_k (L / N_k) C_k[j]
    C_k``.  The last column's norm goes into no later column and is not
    formed."""
    X, _ = point_list([u])[0]  # u over the lcm of its denominators
    if not any(X):
        raise BodyError("normal must be finite, nonzero, and of finite norm")
    n = len(X)
    mags = [abs(x) for x in X]
    pivot = mags.index(max(mags))
    done = [(X, sum(x * x for x in X))]  # (C, |C|^2) for u and the columns so far
    cols = []  # pairs (V, L) for the columns V / L
    for j in range(n):
        if j == pivot:
            continue
        lcm = math.lcm(*(N for _, N in done))
        V = [0] * n
        V[j] = lcm
        for C, N in done:
            f = lcm // N * C[j]
            if f:
                V = [v - f * c for v, c in zip(V, C)]
        g = math.gcd(*V)
        if len(cols) < n - 2:
            C = [v // g for v in V]
            done.append((C, sum(c * c for c in C)))
        h = math.gcd(g, lcm)
        cols.append(([v // h for v in V], lcm // h))
    den = math.lcm(*(s for _, s in cols))
    return ([tuple(v * (den // s) for v in V) for V, s in cols], den,
            [Fraction(sum(v * v for v in V), s * s) for V, s in cols])


# ---------------------------------------------------------------------------
# one-dimensional fiber minimization (vectorized golden section)


# golden steps between two settling passes of a fiber search with a level
SETTLE_EVERY = 2
# relative margin by which a miss's convexity bound must clear the level: far
# beyond the rounding of the few gauge values the bound extrapolates
MISS_MARGIN = 1e-9
# Newton/secant steps an l_p fiber takes after its Euclidean foot to settle
# membership by a certificate (``_certify_lp_fibers``) before golden section
CERTIFY_STEPS = 8


def fiber_min_gauge(child: "ConvexBody", x0: np.ndarray, direction: np.ndarray,
                    iters: int = 48, level: float | None = None) -> np.ndarray:
    """min_t child.gauge(x0 + t * direction) for a batch of base points.

    ``x0`` has shape (..., dim), rows as ``gauge`` takes them; the search
    holds them as coordinate planes and hands ``child.gauge`` a row view of
    the planes of each probe.  The function of t is convex, so golden
    section on a bracket derived from homogeneity is reliable: for a
    symmetric body |t*| <= 2 gauge(x0) / gauge(direction).

    With ``level`` set only the side of ``level`` is wanted, and a row stops
    as soon as it is settled, returning a value on the same side of
    ``level`` as the full search's.  Every ``SETTLE_EVERY`` steps a row is
    a hit once min(f1, f2, gauge(x0)) <= level, exactly, since golden
    section never raises min(f1, f2); it is a miss once the convexity bound
    of f over the bracket (``_convex_floor``) clears level * (1 +
    MISS_MARGIN), since every later probe lies inside the bracket.  The
    trajectory of an unsettled row does not change.
    """
    x0 = np.asarray(x0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    single = x0.ndim == 1
    pts = _planes(np.atleast_2d(x0))
    g0 = np.asarray(child.gauge(_as_rows(pts)), dtype=float)
    gd = float(child.gauge(direction))
    if gd <= 0:
        raise BodyError("unbounded fiber: direction has zero gauge")
    T = 2.0 * g0 / gd + 1e-9
    lo, hi = -T, T
    u = direction.reshape((-1,) + (1,) * (pts.ndim - 1))  # a column against the planes

    def f(t):
        return np.asarray(child.gauge(_as_rows(pts + u * t)), dtype=float)

    m1 = hi - GOLDEN * (hi - lo)
    m2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(m1), f(m2)
    if level is not None:
        shape = g0.shape
        pts = pts.reshape(len(pts), -1)
        u = u.reshape(-1, 1)
        g0, lo, hi, m1, m2, f1, f2 = (a.reshape(-1) for a in (g0, lo, hi, m1, m2, f1, f2))
        flo, fhi = f(lo), f(hi)
        out = np.empty_like(g0)
        rows = np.arange(len(g0))
    for step in range(iters):
        if level is not None and step % SETTLE_EVERY == 0:
            best = np.minimum(np.minimum(f1, f2), g0)
            floor = _convex_floor(lo, m1, m2, hi, flo, f1, f2, fhi)
            done = (best <= level) | ((floor > level * (1.0 + MISS_MARGIN)) & (floor < np.inf))
            if done.any():
                out[rows[done]] = best[done]
                keep = np.flatnonzero(~done)
                rows, g0, lo, hi, m1, m2, f1, f2, flo, fhi = (
                    a[keep] for a in (rows, g0, lo, hi, m1, m2, f1, f2, flo, fhi))
                pts = pts[:, keep]
                if not keep.size:
                    break
        take1 = f1 <= f2
        if level is not None:
            fhi = np.where(take1, f2, fhi)
            flo = np.where(take1, flo, f1)
        hi = np.where(take1, m2, hi)
        lo = np.where(take1, lo, m1)
        cand1 = hi - GOLDEN * (hi - lo)
        cand2 = lo + GOLDEN * (hi - lo)
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


def _certify_lp_fibers(ball: "LpBallBody", x0: np.ndarray, u: np.ndarray, t: np.ndarray,
                       level: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``x0`` whose side of ``level`` a primal-dual certificate
    settles for min_t ||x0 + t u||_r, r = ball.p and u a unit vector: two
    masks, (hit, miss).  A row in neither is left to golden section.

    ``x0`` is rows (rows, n); a row view of coordinate planes, as
    ``ImageBody.contains_batch`` passes, is read without a copy.  A probe
    y = x0 + t u is a hit when ball.gauge(y) <= level, the test golden
    section applies (``row_sum`` gives the gauge's bytes, and the same
    side of the level where the power sum underflows or overflows).  With
    s = sign(y)|y|^(r-1) and w = s - <s,u> u, so that w is orthogonal to
    u, Hölder's inequality gives ||x0 + t'u||_r >= <x0, w> / ||w||_{r*}
    for every t'; the probe is a miss when that bound clears level * (1 +
    MISS_MARGIN), the margin of ``_convex_floor``, and is finite.  The first probe is at ``t`` (the
    Euclidean foot); up to CERTIFY_STEPS more close in on the root of
    phi(t) = <u, s>, which is nondecreasing and vanishes at the fiber's
    minimizer: a Newton step while the root is bracketed from one side
    only, and Illinois regula falsi once both sides are known.  When r < 2
    the first Newton step is scaled by r - 1, which makes it exact where
    one coordinate's sign(y_i)|y_i|^(r-1) dominates phi; a full step
    would overshoot there by a factor 1/(r - 1).  A row whose next probe is not finite drops out, so a NaN or an
    inf decides nothing.
    """
    r = ball.p
    rows = np.arange(len(t))
    hit = np.zeros(len(t), dtype=bool)
    miss = np.zeros(len(t), dtype=bool)
    x = np.ascontiguousarray(x0.T)  # coordinate planes (n, rows)
    lo, hi = np.full(len(t), -np.inf), np.full(len(t), np.inf)  # brackets the root
    phi_lo, phi_hi = np.zeros(len(t)), np.zeros(len(t))  # phi at lo and hi
    last = np.zeros(len(t))  # end replaced last: -1 lo, +1 hi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(CERTIFY_STEPS + 1):
            y = x + u[:, None] * t
            pw = abs_power(y, r)
            s = np.divide(pw, y, out=np.zeros_like(y), where=y != 0)
            phi = u @ s
            w = s - u[:, None] * phi
            bound = coordinate_sum(x * w) / coordinate_sum(abs_power(w, ball.q)) ** (1.0 / ball.q)
            settled_hit = row_sum(pw) ** (1.0 / r) <= level
            settled_miss = (bound > level * (1.0 + MISS_MARGIN)) & (bound < np.inf)
            hit[rows[settled_hit]] = True
            miss[rows[settled_miss]] = True
            if step == CERTIFY_STEPS:
                break
            # phi' = (r - 1) sum u_i^2 |y_i|^(r-2), a zero coordinate counting 0
            dphi = (r - 1.0) * ((u * u) @ np.divide(s, y, out=np.zeros_like(y), where=y != 0))
            up = phi > 0  # the root lies below t
            # Illinois: an end kept twice in a row has its value halved
            phi_lo = np.where(up & (last == 1), 0.5 * phi_lo, np.where(up, phi_lo, phi))
            phi_hi = np.where(~up & (last == -1), 0.5 * phi_hi, np.where(up, phi, phi_hi))
            lo, hi = np.where(up, lo, t), np.where(up, t, hi)
            last = np.where(up, 1.0, -1.0)
            newton = t - (min(1.0, r - 1.0) if step == 0 else 1.0) * phi / dphi
            secant = lo + (hi - lo) * phi_lo / (phi_lo - phi_hi)
            t = np.where((lo > -np.inf) & (hi < np.inf), secant, newton)
            keep = np.flatnonzero(~(settled_hit | settled_miss) & np.isfinite(t))
            if not keep.size:
                break
            rows, t, lo, hi, phi_lo, phi_hi, last = (
                a[keep] for a in (rows, t, lo, hi, phi_lo, phi_hi, last))
            x = x.take(keep, axis=1)
    return hit, miss


def _convex_floor(lo, m1, m2, hi, flo, f1, f2, fhi):
    """Lower bound of a convex f over [lo, hi] from its values at
    lo < m1 < m2 < hi.  On [lo, m1] and [m2, hi] the chord through m1 and m2
    extended outward bounds f; on [m1, m2] the larger of the outer chords,
    through (lo, m1) and through (m2, hi), extended inward does, and the
    minimum of that maximum lies at an end or where the two cross.  Ties of
    the four points give NaN or an infinite bound, and the caller settles
    neither."""
    with np.errstate(divide="ignore", invalid="ignore"):
        w = m2 - m1
        s = (f2 - f1) / w
        outer = np.minimum(np.minimum(f1, f1 + s * (lo - m1)),
                           np.minimum(f2, f2 + s * (hi - m2)))
        a2 = f1 + (f1 - flo) / (m1 - lo) * w   # chord (lo, m1) at m2
        b1 = f2 - (fhi - f2) / (hi - m2) * w   # chord (m2, hi) at m1
        d1, d2 = f1 - b1, a2 - f2
        inner = np.minimum(np.maximum(f1, b1), np.maximum(a2, f2))
        cross = f1 + d1 / (d1 - d2) * (a2 - f1)
        inner = np.where((d1 < 0) != (d2 < 0), np.minimum(inner, cross), inner)
    return np.minimum(outer, inner)


# ---------------------------------------------------------------------------
# body classes


def abs_power(x: np.ndarray, p: float) -> np.ndarray:
    """Elementwise |x|^p with multiplication fast paths for small integer and
    half-integer exponents (np.power with a float exponent is ~10x slower)."""
    a = np.abs(x)
    if p == 1.0:
        return a
    if p == 2.0:
        return a * a
    if float(p).is_integer() and 1 <= p <= 8:
        out = a.copy()
        for _ in range(int(p) - 1):
            out *= a
        return out
    if (2 * p) == int(2 * p) and 1 <= p <= 8:
        out = np.sqrt(a)
        for _ in range(int(p - 0.5)):
            out *= a
        return out
    return a**p


def coordinate_sum(planes: np.ndarray) -> np.ndarray:
    """Sum of the coordinate planes (d, ...), added in order from the first.

    NumPy reduces along an outer axis one whole plane at a time, so this is
    the in-order sum whenever each plane holds more than one element (a
    reduction over a single-element plane runs along a contiguous axis,
    pairwise from 8 terms).  Below 8 terms the in-order sum is the order
    np.add.reduce takes along a contiguous last axis, so for d < 8 it gives
    the bytes of summing rows (..., d)."""
    return np.add.reduce(planes, axis=0)


def row_sum(planes: np.ndarray) -> np.ndarray:
    """Sum of the coordinate planes (d, ...) in the order NumPy sums a
    contiguous row of d terms, so the bytes are those of summing rows at
    every d.  Below 8 terms that is the in-order sum (``coordinate_sum``);
    up to 128 terms, eight running sums r_k over the planes 8j + k, joined
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the planes
    past the last multiple of 8 in order; past 128 terms, the same for two
    halves, the first a multiple of 8 (NumPy's pairwise summation)."""
    d = len(planes)
    if d < 8:
        return coordinate_sum(planes)
    if d > 128:
        half = d // 2 - d // 2 % 8
        return row_sum(planes[:half]) + row_sum(planes[half:])
    full = d - d % 8
    r = coordinate_sum(planes[:full].reshape((full // 8, 8) + planes.shape[1:]))
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for plane in planes[full:]:
        out = out + plane
    return out


_TINY = np.finfo(float).tiny


def _lp_norm(planes: np.ndarray, p: float, power=abs_power) -> np.ndarray:
    """||x||_p of each point of coordinate planes (d, ...):
    ``row_sum(power(x, p)) ** (1/p)``, with ``power`` abs_power, or np.power
    on planes that are already |x|.

    A nonzero point whose power sum falls below the smallest normal float
    (its |x_i|^p underflow), or a finite one whose sum overflows, is
    divided by its largest |x_i| first and the norm scaled back; every
    other point keeps the bytes of the plain sum."""
    s = row_sum(power(planes, p))
    out = s ** (1.0 / p)
    redo = (s < _TINY) | (s == np.inf)
    if redo.any():
        out = np.array(out)
        flat = planes.reshape(len(planes), -1)
        rows = np.flatnonzero(redo)
        big = np.maximum.reduce(np.abs(flat[:, rows]), axis=0)
        ok = (big > 0) & (big < np.inf)
        rows, big = rows[ok], big[ok]
        out.reshape(-1)[rows] = row_sum(power(flat[:, rows] / big, p)) ** (1.0 / p) * big
        out = out[()]
    return out


def _planes(x: np.ndarray) -> np.ndarray:
    """Rows (..., d) as C-contiguous coordinate planes (d, ...).  A row view
    of such planes is read as it is, and so is a single point (d,); other
    rows are copied."""
    return np.ascontiguousarray(x.transpose((x.ndim - 1, *range(x.ndim - 1))))


def _as_rows(planes: np.ndarray) -> np.ndarray:
    """Coordinate planes (d, ...) as a view of rows (..., d)."""
    return planes.transpose((*range(1, planes.ndim), 0))


def _product(M: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """The planes of the rows x @ M.T, as one product M @ planes, which
    rounds each entry as the row product does when M has two or more rows.
    A single point (d,) keeps its one-row product."""
    if planes.ndim == 1:
        return planes @ M.T
    out = M @ planes.reshape(len(planes), -1)
    return out.reshape((len(M),) + planes.shape[1:])


class ConvexBody:
    dim: int

    def contains_batch(self, x) -> np.ndarray:
        """Vectorized membership, rows (..., d) -> (...), under the layout
        contract of ``gauge``; bodies may override with a cheaper test than
        a full gauge evaluation."""
        return np.asarray(self.gauge(x)) <= 1.0 + MEMBERSHIP_TOL

    def gauge(self, x):
        """The gauge of each row, (..., d) -> (...).

        Bodies compute on coordinate planes (d, ...): sums and maxima run
        over planes and linear maps are one product ``M @ planes``.  Rows
        that are a view of C-contiguous planes, ``planes.T`` (as
        ``volume.mc_volume`` passes them), are read without a copy; other
        rows are copied into planes once.  The values do not depend on the
        layout of x, and are the bytes of the same sums and products taken
        on C-ordered rows.
        """
        raise NotImplementedError

    def support(self, u):
        raise NotImplementedError

    def support_witness(self, u):
        """Point(s) of the body attaining the support value in direction u,
        rows (..., d) -> (..., d).

        The values do not depend on the memory layout of u.  Rows that are a
        view of coordinate planes, ``planes.reshape(d, -1).T``, give a
        result whose transpose is C-contiguous planes again, so a caller
        that holds planes reads the witnesses as ``w.T.reshape(planes.shape)``
        and copies nothing.
        """
        raise BodyError(f"{type(self).__name__} has no support witness")

    def polar(self) -> "ConvexBody":
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def bounding_halfwidths(self) -> np.ndarray:
        h = np.empty(self.dim)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            h[i] = float(self.support(e))
        return h


class PolytopeBody(ConvexBody):
    """Centrally symmetric rational polytope with origin in the interior.

    Both representations are point lists (``exactgeom.point_list``: pairs
    ``(X, s)`` of a primitive integer vector and its scale, unique and
    sorted by rational value): the vertices, and the facet normals scaled to
    offset 1, the ``a`` of ``{x : <a, x> <= 1}``.  The normals are the
    polar's vertices, so ``dd_vertices`` of either list fills the other
    when it was not given.  The hull drops points and normals of a given
    list that are not vertices or facets; a filled list must pass whole.
    ``polar`` swaps the two lists (and which were given, the Hanner tree and
    a hull already built) and parses nothing; ``describe`` presents the
    body as it was given.  ``vertices``, ``halfspaces`` and
    ``extreme_vertices`` build Fractions, in the lists' order; the floats of
    ``_floats`` divide each X by its s.
    """

    def __init__(self, dim, vertices=None, halfspaces=None):
        if (vertices is None) == (halfspaces is None):
            raise BodyError("a polytope takes vertices or halfspaces, exactly one of them")
        dim = int(dim)
        vs = ns = None
        if vertices is not None:
            vs = point_list(rational_vector(v) for v in vertices)
            if any(len(X) != dim for X, _ in vs):
                raise BodyError("vertex dimension mismatch")
            if not _closed_under_negation(vs):
                raise BodyError("vertex set not closed under negation")
        else:
            normals = []
            for a, b in halfspaces:
                a = rational_vector(a)
                b = parse_rational(b)
                if len(a) != dim:
                    raise BodyError("halfspace dimension mismatch")
                if b <= 0:
                    raise BodyError("halfspace offsets must be positive (origin interior)")
                normals.append(a if b == 1 else tuple(x / b for x in a))
            ns = point_list(normals)
            if not _closed_under_negation(ns):
                raise BodyError("halfspace set not symmetric")
        self._set(dim, vs, ns, None)

    @classmethod
    def _of_point_lists(cls, dim, vertices, normals, tree=None) -> "PolytopeBody":
        """A body from point lists already in the format (either may be
        None), closed under negation by construction: nothing is parsed."""
        body = cls.__new__(cls)
        body._set(dim, vertices, normals, tree)
        return body

    def _set(self, dim, vertices, normals, tree):
        self.dim = dim
        self._vertices = vertices
        self._normals = normals
        self._given = (vertices is not None, normals is not None)
        self._hull = None
        self._degenerate = None
        self.tree = tree
        self.tag = None
        self._float_cache: dict[str, np.ndarray] = {}

    # -- constructions

    @staticmethod
    def cube(n: int) -> "PolytopeBody":
        body = hanner_body("X(" + ", ".join(["S"] * n) + ")" if n > 1 else "S")
        body.tag = {"type": "cube", "dim": n}
        return body

    @staticmethod
    def cross(n: int) -> "PolytopeBody":
        body = PolytopeBody.cube(n).polar()
        body.tag = {"type": "cross", "dim": n}
        return body

    # -- exact representations

    def _vertex_list(self) -> tuple[Point, ...]:
        """The vertex point list, filled from the normals when it was not
        given."""
        if self._vertices is None:
            try:
                self._vertices = dd_vertices(self._normals)
            except DegenerateHullError as e:
                raise BodyError(
                    f"the polar of a flat body (its facet normals span rank {e.rank} < dim "
                    f"{self.dim}) is unbounded and has no vertices; a volume or a Mahler "
                    "product needs a full-dimensional body with a bounded polar") from e
        return self._vertices

    def _normal_list(self) -> tuple[Point, ...]:
        """The normal point list, filled from the vertices when it was not
        given."""
        if self._normals is None:
            try:
                self._normals = dd_vertices(self._vertices)
            except DegenerateHullError as e:
                raise BodyError(
                    f"flat body: its vertices span rank {e.rank} < dim {self.dim}, so it has "
                    "no facets; sections, gauges and the polar's vertices need the facets of "
                    "a full-dimensional body") from e
        return self._normals

    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        return fractions(self._vertex_list())

    def hull(self) -> ExactHull:
        """The hull of the two lists, which raises ``DegenerateHullError``
        for a flat vertex list; a filled list must pass it whole."""
        if self._hull is None:
            vertices = self._vertex_list()
            if self._normals is None:
                self._normals = dd_vertices(vertices)
            hull = ExactHull(vertices, self._normals)
            lost = len(hull.vertices) < len(vertices), len(hull.normals) < len(self._normals)
            if any(lose and not given for lose, given in zip(lost, self._given)):
                raise AssertionError(
                    "hull certificate failed: a list filled by double description holds a "
                    "point that is not a vertex or a normal that is not a facet")
            self._hull = hull
        return self._hull

    def extreme_vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """The actual vertex set, read off the hull (stored points that are
        not extreme, e.g. from projecting a vertex list, are dropped); a
        flat body keeps its list."""
        return fractions(self._vertex_list() if self.is_degenerate else self.hull().vertices)

    def halfspaces(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        """The facet rows ``(a, 1)``, from the normal list (filled if not given)."""
        one = Fraction(1)
        return tuple((a, one) for a in fractions(self._normal_list()))

    @property
    def is_degenerate(self) -> bool:
        """Whether the vertices span less than the full dimension, read off
        the hull: the conversion to normals and the hull's rank check raise
        ``DegenerateHullError`` when they are flat."""
        if self._degenerate is None:
            try:
                self.hull()
                self._degenerate = False
            except DegenerateHullError:
                self._degenerate = True
        return self._degenerate

    def volume_exact(self) -> Fraction:
        return Fraction(0) if self.is_degenerate else self.hull().volume()

    # -- numerics

    def _floats(self, key: str) -> np.ndarray:
        """The vertices ("V"), their coordinate planes ("VT") or the facet
        normals ("A") in floats, cached.  Each entry is ``x / s``, Python's
        correctly rounded int division, which is ``float(Fraction(x, s))``."""
        if key not in self._float_cache:
            if key == "VT":
                out = np.ascontiguousarray(self._floats("V").T)
            elif key in ("V", "A"):
                points = self._vertex_list() if key == "V" else self._normal_list()
                out = np.array([[x / s for x in X] for X, s in points])
            else:
                raise KeyError(key)
            self._float_cache[key] = out
        return self._float_cache[key]

    def gauge(self, x):
        planes = _planes(np.asarray(x, dtype=float))
        return np.maximum.reduce(_product(self._floats("A"), planes), axis=0)

    def support(self, u):
        planes = _planes(np.asarray(u, dtype=float))
        return np.maximum.reduce(_product(self._floats("V"), planes), axis=0)

    def support_witness(self, u):
        """The first maximizing vertex (rows sorted lexicographically: ties
        break low), taken from the vertex planes, so the result is a row
        view of witness planes."""
        u = np.asarray(u, dtype=float)
        k = (u @ self._floats("V").T).argmax(axis=-1)
        return _as_rows(self._floats("VT").take(k, axis=1))

    def polar(self) -> "PolytopeBody":
        """The two point lists swapped, in a copy without degeneracy, tag or
        float caches; a hull already built goes over swapped."""
        polar = PolytopeBody._of_point_lists(self.dim, self._normals, self._vertices,
                                             dual_tree(self.tree) if self.tree else None)
        polar._given = self._given[::-1]
        polar._hull = None if self._hull is None else self._hull.polar()
        return polar

    def linear_image(self, M: Sequence[Sequence[Fraction]]) -> "PolytopeBody":
        M = [rational_vector(row) for row in M]
        Minv = invert_rational_matrix(M)  # raises on singular
        verts = rows = None
        if self._vertices is not None:  # v -> Mv: the rows of M as columns
            verts = sorted_points(map_points(self._vertices, *scale_to_int(M)))
        if self._normals is not None:  # a -> a M^-1
            rows = sorted_points(map_points(self._normals, *scale_to_int(list(zip(*Minv)))))
        return PolytopeBody._of_point_lists(self.dim, verts, rows)

    def describe(self) -> dict:
        if self.tag:
            return dict(self.tag)
        if self.tree is not None:
            return {"type": "hanner", "expr": self.tree}
        if self._given[0]:
            return {
                "type": "vpoly",
                "vertices": [[format_rational(x) for x in v] for v in fractions(self._vertices)],
            }
        return {
            "type": "hpoly",
            "A": [[format_rational(x) for x in a] for a in fractions(self._normals)],
            "b": ["1"] * len(self._normals),
        }


def _closed_under_negation(points) -> bool:
    pset = set(points)
    return all((tuple(-x for x in X), s) in pset for X, s in points)


class LpBallBody(ConvexBody):
    """Unit ball of the l_p norm, 1 < p < inf."""

    def __init__(self, p: float, dim: int):
        p = float(p)
        if not (p > 1.0) or math.isinf(p):
            raise BodyError("LpBallBody needs 1 < p < inf; use cube/cross for the limits")
        self.p = p
        self.dim = int(dim)
        self.q = p / (p - 1.0)

    def gauge(self, x):
        return _lp_norm(_planes(np.asarray(x, dtype=float)), self.p)

    def support(self, u):
        return _lp_norm(_planes(np.asarray(u, dtype=float)), self.q)

    def support_witness(self, u):
        """sign(u) (|u| / ||u||_q)^(q-1), formed on the planes of u, so the
        result is a row view of planes."""
        planes = _planes(np.asarray(u, dtype=float))
        a = np.abs(planes)
        nq = _lp_norm(a, self.q, np.power)
        safe = np.where(nq > 0, nq, 1.0)
        w = np.sign(planes) * (a / safe) ** (self.q - 1.0)
        return _as_rows(np.where(nq > 0, w, 0.0))

    def polar(self) -> "LpBallBody":
        return LpBallBody(self.q, self.dim)

    def describe(self) -> dict:
        return {"type": "lp_ball", "p": self.p, "dim": self.dim}


class SliceBody(ConvexBody):
    """K intersected with a subspace, in an orthonormal basis B of it."""

    def __init__(self, child: ConvexBody, basis: np.ndarray):
        self.child = child
        self.basis = np.asarray(basis, dtype=float)  # (child.dim, k), ON columns
        self.dim = self.basis.shape[1]

    def gauge(self, x):
        planes = _planes(np.asarray(x, dtype=float))
        return self.child.gauge(_as_rows(_product(self.basis, planes)))

    def support(self, u):
        return self.polar().gauge(u)

    def polar(self) -> "ImageBody":
        return ImageBody(self.child.polar(), self.basis.T)

    def bounding_halfwidths(self) -> np.ndarray:
        """For an l_p child, one batched gauge of the polar, whose rows are
        each the bytes of ``support`` alone; a polytope's gauge is a matrix
        product that rounds by the batch shape, so it keeps the loop."""
        if not isinstance(self.child, LpBallBody):
            return super().bounding_halfwidths()
        return self.polar().gauge(np.eye(self.dim))

    def describe(self) -> dict:
        return {
            "type": "slice_numeric",
            "body": self.child.describe(),
            "basis": self.basis.tolist(),
        }


class ImageBody(ConvexBody):
    """Image of K under a full-row-rank matrix M (k x n, n - k <= 1)."""

    def __init__(self, child: ConvexBody, M: np.ndarray):
        self.child = child
        self.M = np.asarray(M, dtype=float)
        k, n = self.M.shape
        if n != child.dim:
            raise BodyError("matrix column count must match child dimension")
        if n - k not in (0, 1):
            raise BodyError("only square or corank-1 images are supported")
        self.dim = k
        self._pinv = np.linalg.pinv(self.M)
        if n > k:
            # unit kernel direction of M
            _, _, vt = np.linalg.svd(self.M)
            self._kernel = vt[-1]
        else:
            self._kernel = None
            self._inv = np.linalg.inv(self.M)

    def gauge(self, x):
        planes = _planes(np.asarray(x, dtype=float))
        if self._kernel is None:
            return self.child.gauge(_as_rows(_product(self._inv, planes)))
        return fiber_min_gauge(self.child, _as_rows(_product(self._pinv, planes)),
                               self._kernel)

    def contains_batch(self, x) -> np.ndarray:
        """Membership, min_t child.gauge(x0 + t u) <= 1 + MEMBERSHIP_TOL on
        the fiber x0 + R u over each point.

        For an l_p child, an l_2 sandwich decides most points first.  With
        d the distance from x0 to the fiber line, the gauge at the
        Euclidean minimizer is an upper bound, and c * d a lower bound,
        where ||y||_p >= c ||y||_2 with c = 1 for p <= 2 and
        c = n^(1/p - 1/2) for p > 2.  A point the sandwich cannot decide is
        settled by a primal-dual certificate (``_certify_lp_fibers``): a
        fiber point that passes the gauge test is a hit, and a Hölder lower
        bound on the whole fiber that clears the level by MISS_MARGIN is a
        miss.  The few points left run the golden-section minimization (28
        steps; 48 for other children), which stops each as soon as its side
        of the level is settled (``fiber_min_gauge`` with ``level``).  So a
        point is a hit exactly when the full search makes it one, except
        when its fiber minimum lies below the level by less than that
        search's resolution, where a certificate hit is the truer answer.

        The base points x0, the foot and the bounds are coordinate planes;
        the certificate and the search read row views of the planes of the
        points they take.
        """
        x = np.asarray(x, dtype=float)
        level = 1.0 + MEMBERSHIP_TOL
        if self._kernel is None:
            return np.asarray(self.gauge(x)) <= level
        if not isinstance(self.child, LpBallBody):
            x0 = _product(self._pinv, _planes(x))
            vals = fiber_min_gauge(self.child, _as_rows(x0), self._kernel, level=level)
            return np.asarray(vals) <= level
        single = x.ndim == 1
        p = self.child.p
        n = self.child.dim
        x0 = self._pinv @ _planes(np.atleast_2d(x))  # planes (n, rows)
        u = self._kernel
        # the foot is a matrix-vector product on rows: no product on planes
        # rounds as it does
        t2 = -(np.ascontiguousarray(x0.T) @ u)
        x2 = x0 + u[:, None] * t2
        upper = np.asarray(self.child.gauge(_as_rows(x2)), dtype=float)
        d2 = np.sqrt(row_sum(x2 * x2))
        lower = d2 * (n ** (1.0 / p - 0.5)) if p > 2.0 else d2
        out = upper <= level
        ambiguous = np.flatnonzero((~out) & (lower <= level))
        if ambiguous.size:
            hit, miss = _certify_lp_fibers(self.child, _as_rows(x0[:, ambiguous]), u,
                                           t2[ambiguous], level)
            out[ambiguous[hit]] = True
            rest = ambiguous[~(hit | miss)]
            if rest.size:
                vals = fiber_min_gauge(self.child, _as_rows(x0[:, rest]), u, iters=28,
                                       level=level)
                out[rest] = vals <= level
        return out[0:1].reshape(()) if single else out

    def support(self, u):
        u = np.asarray(u, dtype=float)
        return self.child.support(u @ self.M)

    def support_witness(self, u):
        """M times the child's witnesses, one product M @ (witness planes),
        so the result is a row view of planes."""
        u = np.asarray(u, dtype=float)
        w = self.child.support_witness(u @ self.M)
        planes = self.M @ w.reshape(-1, w.shape[-1]).T
        return planes.T.reshape(w.shape[:-1] + (self.dim,))

    def polar(self) -> SliceBody:
        return SliceBody(self.child.polar(), self.M.T)

    def describe(self) -> dict:
        return {
            "type": "image_numeric",
            "body": self.child.describe(),
            "matrix": self.M.tolist(),
        }


class DiagonalImageBody(ConvexBody):
    """diag(sqrt(s_1), ..., sqrt(s_k)) times a rational polytope core.

    The squared scales s_i are exact rationals, so volumes of the body are
    exact elements of Q * sqrt(Q) while coordinates stay floating point.
    """

    def __init__(self, core: PolytopeBody, scales2: Sequence[Fraction]):
        self.core = core
        self.scales2 = tuple(Fraction(s) for s in scales2)
        if len(self.scales2) != core.dim:
            raise BodyError("scale count mismatch")
        if any(s <= 0 for s in self.scales2):
            raise BodyError("scales must be positive")
        self.dim = core.dim
        self.scales = np.array([math.sqrt(float(s)) for s in self.scales2])

    def gauge(self, x):
        x = np.asarray(x, dtype=float)
        return self.core.gauge(x / self.scales)

    def support(self, u):
        u = np.asarray(u, dtype=float)
        return self.core.support(u * self.scales)

    def support_witness(self, u):
        u = np.asarray(u, dtype=float)
        return self.core.support_witness(u * self.scales) * self.scales

    def polar(self) -> "DiagonalImageBody":
        return DiagonalImageBody(self.core.polar(), tuple(1 / s for s in self.scales2))

    def volume_scale2(self) -> Fraction:
        out = Fraction(1)
        for s in self.scales2:
            out *= s
        return out

    def describe(self) -> dict:
        return {
            "type": "scaled",
            "core": self.core.describe(),
            "scales2": [format_rational(s) for s in self.scales2],
        }


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> per row, summed as np.einsum sums C-ordered rows, whatever the
    layout of a and b (einsum's order of addition follows the layout)."""
    return np.einsum("...i,...i->...", np.ascontiguousarray(a), np.ascontiguousarray(b))


class TwoBlockBody(ConvexBody):
    """A body in R^{2n} built from two bodies of R^n in complementary
    coordinate blocks: ``dual`` in the p-block (p_1..p_n), ``base`` in the
    q-block (q_1..q_n)."""

    kind: str  # the body type of the JSON description

    def __init__(self, base: ConvexBody, dual: ConvexBody):
        if base.dim != dual.dim:
            raise BodyError("factor dimensions differ")
        self.base = base
        self.dual = dual
        self.n = base.dim
        self.dim = 2 * base.dim

    def _split(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., : self.n], x[..., self.n :]

    def _witness_rows(self, rows_shape) -> np.ndarray:
        """A zeroed witness buffer of coordinate planes (dim, ...), as its
        row view (..., dim): the form ``support_witness`` returns."""
        return _as_rows(np.zeros((self.dim,) + tuple(rows_shape)))

    def describe(self) -> dict:
        return {"type": self.kind, "body": self.base.describe(), "dual": self.dual.describe()}


class LagrangianProductBody(TwoBlockBody):
    """S = K x T in R^{2n}, K = base in the q-block and T = dual in the
    p-block; the Lagrangian product K x K° has T = K°."""

    kind = "product"

    def gauge(self, x):
        p, q = self._split(x)
        return np.maximum(self.dual.gauge(p), self.base.gauge(q))

    def support(self, u):
        up, uq = self._split(u)
        return self.dual.support(up) + self.base.support(uq)

    def support_witness(self, u):
        up, uq = self._split(u)
        w = self._witness_rows(up.shape[:-1])
        w[..., : self.n] = self.dual.support_witness(up)
        w[..., self.n :] = self.base.support_witness(uq)
        return w

    def polar(self) -> "L1SumBody":
        """The free sum conv(T° x 0, 0 x K°), of gauge g_T°(p) + g_K°(q)."""
        return L1SumBody(self.base.polar(), self.dual.polar())


class L1SumBody(TwoBlockBody):
    """The free sum conv(T x 0, 0 x K) in R^{2n}, K = base in the q-block and
    T = dual in the p-block, of gauge g_T(p) + g_K(q): the polar of
    K° x T°."""

    kind = "l1sum"

    def gauge(self, x):
        p, q = self._split(x)
        return self.dual.gauge(p) + self.base.gauge(q)

    def support(self, u):
        up, uq = self._split(u)
        return np.maximum(self.dual.support(up), self.base.support(uq))

    def support_witness(self, u):
        """The witness of the block with the larger support value, zeros in
        the other block."""
        up, uq = self._split(u)
        wp, wq = self.dual.support_witness(up), self.base.support_witness(uq)
        hp, hq = _row_dot(up, wp), _row_dot(uq, wq)
        in_p = (hp >= hq)[..., None]
        w = self._witness_rows(up.shape[:-1])
        np.copyto(w[..., : self.n], wp, where=in_p)
        np.copyto(w[..., self.n :], wq, where=~in_p)
        return w

    def polar(self) -> LagrangianProductBody:
        return LagrangianProductBody(self.base.polar(), self.dual.polar())


# ---------------------------------------------------------------------------
# Hanner trees


_HANNER_TOKEN = re.compile(r"\s*([SXL(),])\s*")
# A Hanner body stores both representations in full, and one of them grows
# exponentially with the leaf count (2^n vertices for the n-cube)
MAX_HANNER_LEAVES = 16
_DUAL_OPS = str.maketrans("XL", "LX")


def parse_hanner(expr: str):
    """Parse an expression over S (segment), X(...) (product), L(...) (l1 sum).

    Returns a nested tuple tree: 'S' or ('X'|'L', [children]).  The parser
    keeps its own stack, so deep nesting ends in a ``BodyError``, not in
    Python's recursion limit.
    """
    tokens = _HANNER_TOKEN.findall(expr)
    if "".join(_HANNER_TOKEN.sub("", expr).split()):
        raise BodyError(f"bad Hanner expression {expr!r}")
    stack: list[tuple[str, list]] = []  # operators whose ')' is still open
    pos = 0
    leaves = 0
    while True:
        if pos >= len(tokens):
            raise BodyError("truncated Hanner expression")
        t = tokens[pos]
        pos += 1
        if t in ("X", "L"):
            if pos >= len(tokens) or tokens[pos] != "(":
                raise BodyError("expected '(' in Hanner expression")
            pos += 1
            stack.append((t, []))
            continue
        if t != "S":
            raise BodyError(f"unexpected token {t!r}")
        leaves += 1
        node = "S"
        # attach the finished node; each ')' finishes its operator in turn
        while stack:
            stack[-1][1].append(node)
            if pos < len(tokens) and tokens[pos] == ",":
                pos += 1
                break
            if pos >= len(tokens) or tokens[pos] != ")":
                raise BodyError("expected ')' in Hanner expression")
            pos += 1
            op, children = stack.pop()
            if len(children) < 2:
                raise BodyError("X/L need at least two operands")
            node = (op, children)
        else:
            break
    if pos != len(tokens):
        raise BodyError("trailing tokens in Hanner expression")
    if leaves > MAX_HANNER_LEAVES:
        raise BodyError(f"Hanner expression has {leaves} leaves; at most "
                        f"{MAX_HANNER_LEAVES} are supported")
    return node


def hanner_tree_str(tree) -> str:
    if tree == "S":
        return "S"
    op, children = tree
    return f"{op}(" + ", ".join(hanner_tree_str(c) for c in children) + ")"


def dual_tree(expr: str) -> str:
    """The tree of the polar: X and L swapped in a canonical tree string,
    one written by ``hanner_tree_str``."""
    return expr.translate(_DUAL_OPS)


def hanner_body(expr: str) -> PolytopeBody:
    tree = parse_hanner(expr)

    def build(t) -> tuple[list, list, int]:
        """(vertices, normals, dim) of a subtree.  X takes the product of
        its parts' vertices and the union of their padded normals; L, the
        polar of X, the same with the two lists swapped."""
        if t == "S":
            segment = [(1,), (-1,)]
            return segment, segment, 1
        op, children = t
        parts = [build(c) for c in children]
        if op == "L":
            parts = [(normals, verts, d) for verts, normals, d in parts]
        total = sum(d for _, _, d in parts)
        products = [()]
        for points, _, _ in parts:
            products = [v + w for v in products for w in points]
        padded = []
        off = 0
        for _, points, d in parts:
            pre = (0,) * off
            post = (0,) * (total - off - d)
            padded += [pre + a + post for a in points]
            off += d
        return (products, padded, total) if op == "X" else (padded, products, total)

    # every vertex and normal is a sign vector padded with zeros: scale 1
    verts, normals, total = build(tree)
    return PolytopeBody._of_point_lists(
        total, sorted_points((v, 1) for v in verts), sorted_points((a, 1) for a in normals),
        tree=hanner_tree_str(tree))


# ---------------------------------------------------------------------------
# operations


def linear_image(body: ConvexBody, M) -> ConvexBody:
    """The image of ``body`` under an invertible ``dim x dim`` matrix.  The
    image is exact when ``body`` is a rational polytope and every entry
    parses as a rational, as a cut's normal is; else it is an ``ImageBody``
    in floats."""
    shape = [len(row) for row in M]
    if shape != [body.dim] * body.dim:
        raise BodyError(f"linear image of a body of dimension {body.dim} needs a "
                        f"{body.dim} x {body.dim} matrix, got rows of {shape} entries")
    try:
        Mr = [rational_vector(row) for row in M]
    except BodyError:
        Mr = None
    if Mr is not None and isinstance(body, PolytopeBody):
        return body.linear_image(Mr)
    try:
        Mf = np.array(M if Mr is None else Mr, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise BodyError(f"linear image matrix entries must be numbers: {e}") from e
    if not (np.isfinite(Mf).all() and abs(np.linalg.det(Mf)) >= 1e-12):
        raise BodyError("singular or non-finite matrix")
    return ImageBody(body, Mf)


def _open_cut(name: str, body: ConvexBody, u):
    """The checks that open both cuts, and their l_p shortcut.  The normal
    is exact when ``body`` is a rational polytope and every entry parses as
    a rational, else floats.  Returns its ``orthogonal_complement_basis``
    (an array of orthonormal columns, or the exact ``(columns, den,
    norms2)``) and, when the cut of an l_p ball is the l_p ball of one
    dimension less (a coordinate normal, or p = 2), that ball; else None."""
    if body.dim < 2:
        raise BodyError(f"{name} needs dim >= 2")
    exact = isinstance(body, PolytopeBody)
    try:
        u = np.array(rational_vector(u), dtype=object if exact else float)
    except (BodyError, TypeError):
        u = np.asarray(u, dtype=float)
    except OverflowError as e:  # a rational entry beyond the float range
        raise BodyError("normal must be finite, nonzero, and of finite norm") from e
    if u.shape != (body.dim,):
        raise BodyError("normal must be a nonzero finite vector of matching dimension")
    basis = orthogonal_complement_basis(u)
    if isinstance(body, LpBallBody) and (np.count_nonzero(u) == 1 or body.p == 2.0):
        return basis, LpBallBody(body.p, body.dim - 1)
    return basis, None


def hyperplane_section(body: ConvexBody, u) -> ConvexBody:
    """body ∩ u^perp in an orthonormal frame of u^perp.

    Rational polytopes return an exact core scaled per-axis: the core's
    normals are the body's normals mapped by the integer columns of the
    rational Gram-Schmidt basis, and the scales are the columns' squared
    norms; functional bodies restrict their gauge to the subspace.
    """
    basis, ball = _open_cut("hyperplane_section", body, u)
    if ball is not None:
        return ball
    if isinstance(basis, np.ndarray):
        return SliceBody(body, basis)
    cols, den, norms2 = basis
    normals = sorted_points(map_points(body._normal_list(), cols, den))
    return DiagonalImageBody(PolytopeBody._of_point_lists(body.dim - 1, None, normals), norms2)


def hyperplane_projection(body: ConvexBody, u) -> ConvexBody:
    """body / span(u), i.e. the shadow on u^perp, same frame as the section."""
    basis, ball = _open_cut("hyperplane_projection", body, u)
    if ball is not None:
        return ball
    if isinstance(basis, np.ndarray):
        return ImageBody(body, basis.T)
    cols, den, norms2 = basis
    verts = sorted_points(map_points(body._vertex_list(), cols, den))
    return DiagonalImageBody(PolytopeBody._of_point_lists(body.dim - 1, verts, None),
                             [1 / s for s in norms2])


def lagrangian_product(body: ConvexBody) -> LagrangianProductBody:
    return LagrangianProductBody(body, body.polar())


# ---------------------------------------------------------------------------
# parsing


_BODY_FIELDS = {
    "cube": ("dim",), "cross": ("dim",), "lp_ball": ("p", "dim"),
    "hpoly": ("A", "b"), "vpoly": ("vertices",), "hanner": ("expr",),
    "polar": ("body",), "section": ("body", "normal"),
    "projection": ("body", "normal"), "linimg": ("body", "matrix"),
    "product": ("body",), "l1sum": ("body", "dual"), "scaled": ("core", "scales2"),
    "slice_numeric": ("body", "basis"), "image_numeric": ("body", "matrix"),
}


def _vector_field(t: str, name: str, value, length: int | None = None) -> list:
    """A non-empty list of numbers or rational strings (of a given length)."""
    if not isinstance(value, list) or not value:
        raise BodyError(f"{t!r} field {name!r} must be a non-empty list of numbers")
    for x in value:
        if isinstance(x, bool) or not isinstance(x, (int, float, str)):
            raise BodyError(f"{t!r} field {name!r} has a non-numeric entry {x!r}")
    if length is not None and len(value) != length:
        raise BodyError(f"{t!r} field {name!r} has {len(value)} entries, expected {length}")
    return value


def _matrix_field(t: str, name: str, value) -> list:
    """A non-empty rectangular list of rows of numbers."""
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise BodyError(f"{t!r} field {name!r} must be a non-empty list of rows")
    width = len(value[0])
    for row in value:
        if len(row) != width:
            raise BodyError(f"{t!r} field {name!r} is not rectangular: "
                            f"rows of {width} and {len(row)} entries")
        _vector_field(t, name, row)
    return value


def _float_matrix_field(t: str, name: str, value) -> np.ndarray:
    """A `_matrix_field` of finite floats."""
    try:
        M = np.array(_matrix_field(t, name, value), dtype=float)
    except (ValueError, OverflowError) as e:
        raise BodyError(f"{t!r} field {name!r} entries must be numbers: {e}") from e
    if not np.isfinite(M).all():
        raise BodyError(f"{t!r} field {name!r} entries must be finite")
    return M


def _dim_field(t: str, value) -> int:
    dim = parse_rational(_vector_field(t, "dim", [value])[0])
    if dim.denominator != 1 or dim < 1:
        raise BodyError(f"{t!r} field 'dim' must be a positive integer")
    return int(dim)


def parse_body(description) -> ConvexBody:
    """Build a body from a JSON description (dict or JSON text)."""
    if isinstance(description, str):
        try:
            description = json.loads(description)
        except json.JSONDecodeError as e:
            raise BodyError(f"bad JSON: {e}") from e
    if not isinstance(description, dict) or "type" not in description:
        raise BodyError("body description must be an object with a 'type' field")
    t = description["type"]
    missing = [k for k in _BODY_FIELDS.get(t, ()) if k not in description]
    if missing:
        raise BodyError(f"{t!r} body description lacks field(s) {', '.join(missing)}")
    if t == "cube":
        return PolytopeBody.cube(_dim_field(t, description["dim"]))
    if t == "cross":
        return PolytopeBody.cross(_dim_field(t, description["dim"]))
    if t == "lp_ball":
        p = _vector_field(t, "p", [description["p"]])[0]
        if isinstance(p, str) and p not in ("inf", "Infinity"):
            p = float(parse_rational(p))
        dim = _dim_field(t, description["dim"])
        if p in ("inf", "Infinity") or (isinstance(p, float) and math.isinf(p)):
            return PolytopeBody.cube(dim)
        p = float(p)
        if p < 1:
            raise BodyError("p must be >= 1")
        if p == 1.0:
            return PolytopeBody.cross(dim)
        return LpBallBody(p, dim)
    if t == "hpoly":
        A = _matrix_field(t, "A", description["A"])
        b = _vector_field(t, "b", description["b"], len(A))
        return PolytopeBody(len(A[0]), halfspaces=list(zip(A, b)))
    if t == "vpoly":
        verts = _matrix_field(t, "vertices", description["vertices"])
        return PolytopeBody(len(verts[0]), vertices=verts)
    if t == "hanner":
        if not isinstance(description["expr"], str):
            raise BodyError("'hanner' field 'expr' must be a string")
        return hanner_body(description["expr"])
    if t == "polar":
        return parse_body(description["body"]).polar()
    if t in ("section", "projection"):
        cut = hyperplane_section if t == "section" else hyperplane_projection
        return cut(parse_body(description["body"]),
                   _vector_field(t, "normal", description["normal"]))
    if t == "linimg":
        return linear_image(parse_body(description["body"]),
                            _matrix_field(t, "matrix", description["matrix"]))
    if t == "product":
        base = parse_body(description["body"])
        if "dual" in description:
            return LagrangianProductBody(base, parse_body(description["dual"]))
        return lagrangian_product(base)
    if t == "l1sum":
        return L1SumBody(parse_body(description["body"]), parse_body(description["dual"]))
    if t == "scaled":
        core = parse_body(description["core"])
        if not isinstance(core, PolytopeBody):
            raise BodyError("'scaled' core must be an exact polytope")
        scales2 = _vector_field(t, "scales2", description["scales2"])
        return DiagonalImageBody(core, [parse_rational(s) for s in scales2])
    if t in ("slice_numeric", "image_numeric"):
        # the float cuts and images ``describe`` writes; a slice's basis is
        # the transpose of the matrix of its polar, an image
        child = parse_body(description["body"])
        name, body = ("basis", SliceBody) if t == "slice_numeric" else ("matrix", ImageBody)
        M = _float_matrix_field(t, name, description[name])
        n = child.dim
        shapes = ((n, n - 1), (n, n)) if t == "slice_numeric" else ((n - 1, n), (n, n))
        if M.shape not in shapes or np.linalg.matrix_rank(M) < min(M.shape):
            raise BodyError(f"{t!r} field {name!r} of a body of dimension {n} must be a "
                            f"full-rank {shapes[0][0]} x {shapes[0][1]} or {n} x {n} matrix, "
                            f"got {M.shape[0]} x {M.shape[1]}")
        return body(child, M)
    raise BodyError(f"unknown body type {t!r}")


def canonical_description(body_or_desc) -> str:
    desc = body_or_desc.describe() if isinstance(body_or_desc, ConvexBody) else body_or_desc
    return json.dumps(desc, sort_keys=True, separators=(",", ":"))
