"""Centrally symmetric convex bodies and their duality operations.

Representations:

* ``PolytopeBody`` -- exact rational H- and/or V-representation; conversions
  go through the double description method (H -> V, and V -> H on the polar
  inside ``ExactHull``).  Polarity swaps the two representations exactly.
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
* ``LagrangianProductBody`` -- K x K° in R^{2n}, coordinates ordered
  (p_1..p_n, q_1..q_n) with K occupying the q-block.

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

from .exactgeom import ExactHull, dd_vertices, int_rank, scale_to_int

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class BodyError(ValueError):
    """Malformed or inconsistent body description."""


# ---------------------------------------------------------------------------
# rational helpers


def parse_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
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


def orthogonal_complement_basis(
    u: Sequence[Fraction], reverse: bool = False
) -> list[tuple[Fraction, ...]]:
    """Rational orthogonal (not normalized) basis of u-perp.

    Gram-Schmidt over Q, seeded with coordinate vectors in a fixed pivot
    order: the coordinate of largest |u_i| (first such index) is dropped,
    the rest are taken in increasing index order.  ``reverse`` flips both
    choices, giving a second deterministic basis for independence checks.
    """
    u = rational_vector(u)
    n = len(u)
    if all(x == 0 for x in u):
        raise BodyError("zero normal vector")
    mags = [abs(x) for x in u]
    m = max(mags)
    pivots = [i for i, v in enumerate(mags) if v == m]
    pivot = pivots[-1] if reverse else pivots[0]
    order = [j for j in range(n) if j != pivot]
    if reverse:
        order = order[::-1]
    basis: list[tuple[Fraction, ...]] = []
    uu = sum(x * x for x in u)
    for j in order:
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        coef = u[j] / uu
        v = [v[k] - coef * u[k] for k in range(n)]
        for b in basis:
            bb = sum(x * x for x in b)
            c = sum(v[k] * b[k] for k in range(n)) / bb
            v = [v[k] - c * b[k] for k in range(n)]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# one-dimensional fiber minimization (vectorized golden section)


def fiber_min_gauge(child: "ConvexBody", x0: np.ndarray, direction: np.ndarray,
                    iters: int = 48) -> np.ndarray:
    """min_t child.gauge(x0 + t * direction) for a batch of base points.

    ``x0`` has shape (..., dim).  The function of t is convex, so golden
    section on a bracket derived from homogeneity is reliable: for a
    symmetric body |t*| <= 2 gauge(x0) / gauge(direction).
    """
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    pts = np.atleast_2d(x0)
    g0 = np.asarray(child.gauge(pts), dtype=float)
    gd = float(child.gauge(direction))
    if gd <= 0:
        raise BodyError("unbounded fiber: direction has zero gauge")
    T = 2.0 * g0 / gd + 1e-9
    lo, hi = -T, T

    def f(t):
        return np.asarray(child.gauge(pts + t[..., None] * direction), dtype=float)

    m1 = hi - GOLDEN * (hi - lo)
    m2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(m1), f(m2)
    for _ in range(iters):
        take1 = f1 <= f2
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
    return float(vals[0]) if single else vals


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


def pnorm(x: np.ndarray, p: float, axis: int = -1) -> np.ndarray:
    return np.sum(abs_power(x, p), axis=axis) ** (1.0 / p)


class ConvexBody:
    dim: int

    def contains_batch(self, x, tol: float = 1e-12) -> np.ndarray:
        """Vectorized membership; bodies may override with a cheaper test
        than a full gauge evaluation."""
        return np.asarray(self.gauge(x)) <= 1.0 + tol

    def gauge(self, x):
        raise NotImplementedError

    def support(self, u):
        raise NotImplementedError

    def support_witness(self, u):
        """Point(s) of the body attaining the support value in direction u."""
        raise NotImplementedError(f"{type(self).__name__} has no support witness")

    def polar(self) -> "ConvexBody":
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def contains(self, x, tol: float = 1e-12):
        return self.gauge(x) <= 1.0 + tol

    def bounding_halfwidths(self) -> np.ndarray:
        h = np.empty(self.dim)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            h[i] = float(self.support(e))
        return h

    @property
    def is_degenerate(self) -> bool:
        return False


class PolytopeBody(ConvexBody):
    """Centrally symmetric rational polytope with origin in the interior."""

    def __init__(self, dim, vertices=None, halfspaces=None, tree=None, tag=None,
                 check_symmetry=True, vertices_extreme=False,
                 halfspaces_irredundant=False):
        if vertices is None and halfspaces is None:
            raise BodyError("polytope needs vertices or halfspaces")
        self.dim = int(dim)
        self._vertices = None
        self._hrep = None
        self._vertices_extreme = bool(vertices_extreme)
        self._hrep_irredundant = bool(halfspaces_irredundant)
        self._hull = None
        self._degenerate = None
        self.tree = tree
        self.tag = tag
        if vertices is not None:
            vs = sorted({rational_vector(v) for v in vertices})
            if any(len(v) != self.dim for v in vs):
                raise BodyError("vertex dimension mismatch")
            self._vertices = tuple(vs)
            if check_symmetry:
                vset = set(vs)
                for v in vs:
                    if tuple(-x for x in v) not in vset:
                        raise BodyError("vertex set not closed under negation")
        if halfspaces is not None:
            rows = []
            for a, b in halfspaces:
                a = rational_vector(a)
                b = parse_rational(b)
                if len(a) != self.dim:
                    raise BodyError("halfspace dimension mismatch")
                if b <= 0:
                    raise BodyError("halfspace offsets must be positive (origin interior)")
                rows.append((tuple(x / b for x in a), Fraction(1)))
            canon = sorted(set(rows))
            if check_symmetry:
                rset = {r[0] for r in canon}
                for a in rset:
                    if tuple(-x for x in a) not in rset:
                        raise BodyError("halfspace set not symmetric")
            self._hrep = tuple(canon)
        self._float_cache: dict[str, np.ndarray] = {}

    # -- constructions

    @staticmethod
    def cube(n: int) -> "PolytopeBody":
        rows = []
        for i in range(n):
            for s in (1, -1):
                a = [Fraction(0)] * n
                a[i] = Fraction(s)
                rows.append((a, Fraction(1)))
        verts = None
        if n <= 10:
            import itertools

            verts = [
                tuple(Fraction(s) for s in t)
                for t in itertools.product([1, -1], repeat=n)
            ]
        return PolytopeBody(n, vertices=verts, halfspaces=rows,
                            tree="X(" + ", ".join(["S"] * n) + ")" if n > 1 else "S",
                            tag={"type": "cube", "dim": n},
                            vertices_extreme=True, halfspaces_irredundant=True)

    @staticmethod
    def cross(n: int) -> "PolytopeBody":
        return PolytopeBody.cube(n).polar_with_tag({"type": "cross", "dim": n})

    def polar_with_tag(self, tag) -> "PolytopeBody":
        p = self.polar()
        p.tag = tag
        return p

    # -- exact representations

    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._vertices is None:
            A = [r[0] for r in self._hrep]
            b = [r[1] for r in self._hrep]
            self._vertices = tuple(dd_vertices(A, b))
            self._vertices_extreme = True
        return self._vertices

    def hull(self) -> ExactHull:
        if self._hull is None:
            verts = self.vertices()  # first: DD here marks the vertices extreme
            self._hull = ExactHull(verts, self._hrep, extreme=self._vertices_extreme)
        return self._hull

    def extreme_vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """The actual vertex set (stored points that are not extreme, e.g.
        from projecting a vertex list, are dropped)."""
        verts = self.vertices()
        if self._vertices_extreme:
            return verts
        if self.is_degenerate:
            return verts
        return tuple(self.hull().vertex_points())

    def halfspaces(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        if self._hrep is None:
            rows = [
                (tuple(x / c for x in a), Fraction(1))
                for a, c in self.hull().facets()
            ]
            self._hrep = tuple(sorted(rows))
            self._hrep_irredundant = True
        return self._hrep

    def facet_halfspaces(self):
        """Irredundant facet list (recomputed from the hull if the stored
        halfspaces might contain redundant rows)."""
        if not self._hrep_irredundant:
            self.hull()  # filters the stored rows
            self._hrep = None
            self._float_cache.pop("A", None)
        return self.halfspaces()

    @property
    def is_degenerate(self) -> bool:
        if self._vertices is None:
            return False  # full-dimensional by origin-interior halfspaces
        if self._degenerate is None:
            ints, _ = scale_to_int(self._vertices)
            base = ints[0]
            diffs = [[p[j] - base[j] for j in range(self.dim)] for p in ints[1:]]
            self._degenerate = int_rank(diffs) < self.dim
        return self._degenerate

    def volume_exact(self) -> Fraction:
        if self.is_degenerate:
            return Fraction(0)
        return self.hull().volume()

    # -- numerics

    def _floats(self, key: str) -> np.ndarray:
        if key not in self._float_cache:
            if key == "V":
                arr = np.array([[float(x) for x in v] for v in self.vertices()])
            elif key == "A":
                arr = np.array([[float(x) for x in a] for a, _ in self.halfspaces()])
            else:
                raise KeyError(key)
            self._float_cache[key] = arr
        return self._float_cache[key]

    def gauge(self, x):
        x = np.asarray(x, dtype=float)
        A = self._floats("A")
        vals = x @ A.T
        return np.max(vals, axis=-1)

    def support(self, u):
        u = np.asarray(u, dtype=float)
        V = self._floats("V")
        return np.max(u @ V.T, axis=-1)

    def support_witness(self, u):
        u = np.asarray(u, dtype=float)
        V = self._floats("V")  # rows sorted lexicographically: ties break low
        idx = np.argmax(u @ V.T, axis=-1)
        return V[idx]

    def polar(self) -> "PolytopeBody":
        verts = None
        rows = None
        if self._hrep is None and self._hull is not None:
            self.halfspaces()  # a hull already built knows the facets
        if self._hrep is not None:
            verts = [a for a, _ in self._hrep]  # offsets normalized to 1
        if self._vertices is not None:
            rows = [(v, Fraction(1)) for v in self._vertices]
        tree = dual_tree(self.tree) if self.tree else None
        return PolytopeBody(self.dim, vertices=verts, halfspaces=rows, tree=tree,
                            check_symmetry=False,
                            vertices_extreme=self._hrep_irredundant,
                            halfspaces_irredundant=self._vertices_extreme)

    def linear_image(self, M: Sequence[Sequence[Fraction]]) -> "PolytopeBody":
        M = [rational_vector(row) for row in M]
        if len(M) != self.dim or any(len(r) != self.dim for r in M):
            raise BodyError("matrix shape mismatch")
        Minv = invert_rational_matrix(M)  # raises on singular
        verts = None
        rows = None
        if self._vertices is not None:
            verts = [
                tuple(sum(M[i][k] * v[k] for k in range(self.dim)) for i in range(self.dim))
                for v in self._vertices
            ]
        if self._hrep is not None:
            rows = [
                (
                    tuple(
                        sum(a[k] * Minv[k][i] for k in range(self.dim))
                        for i in range(self.dim)
                    ),
                    b,
                )
                for a, b in self._hrep
            ]
        return PolytopeBody(self.dim, vertices=verts, halfspaces=rows,
                            check_symmetry=False,
                            vertices_extreme=self._vertices_extreme,
                            halfspaces_irredundant=self._hrep_irredundant)

    def describe(self) -> dict:
        if self.tag:
            return dict(self.tag)
        if self.tree is not None:
            return {"type": "hanner", "expr": self.tree}
        if self._vertices is not None:
            return {
                "type": "vpoly",
                "vertices": [[format_rational(x) for x in v] for v in self._vertices],
            }
        return {
            "type": "hpoly",
            "A": [[format_rational(x) for x in a] for a, _ in self._hrep],
            "b": [format_rational(b) for _, b in self._hrep],
        }

    def counts(self) -> tuple[int, int]:
        return len(self.extreme_vertices()), len(self.facet_halfspaces())


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
        return pnorm(np.asarray(x, dtype=float), self.p)

    def support(self, u):
        return pnorm(np.asarray(u, dtype=float), self.q)

    def support_witness(self, u):
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        nq = np.sum(a ** self.q, axis=-1, keepdims=True) ** (1.0 / self.q)
        safe = np.where(nq > 0, nq, 1.0)
        w = np.sign(u) * (a / safe) ** (self.q - 1.0)
        return np.where(nq > 0, w, 0.0)

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
        x = np.asarray(x, dtype=float)
        return self.child.gauge(x @ self.basis.T)

    def support(self, u):
        return self.polar().gauge(u)

    def polar(self) -> "ImageBody":
        return ImageBody(self.child.polar(), self.basis.T)

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
        x = np.asarray(x, dtype=float)
        if self._kernel is None:
            return self.child.gauge(x @ self._inv.T)
        x0 = x @ self._pinv.T
        return fiber_min_gauge(self.child, x0, self._kernel)

    def contains_batch(self, x, tol: float = 1e-12) -> np.ndarray:
        """Membership with an l_2 sandwich prefilter for l_p children.

        min_t ||x0 + t u||_p is bracketed between c * d and the value at the
        Euclidean minimizer, where d is the distance from x0 to the fiber
        line and c = n^(1/p - 1/2) for p < 2 (c = n^(1/p - 1/2) < 1 swaps
        roles for p > 2); only points the sandwich cannot decide run the
        golden-section minimization.
        """
        x = np.asarray(x, dtype=float)
        if self._kernel is None or not isinstance(self.child, LpBallBody):
            return np.asarray(self.gauge(x)) <= 1.0 + tol
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        p = self.child.p
        n = self.child.dim
        x0 = pts @ self._pinv.T
        u = self._kernel
        t2 = -(x0 @ u)
        x2 = x0 + t2[:, None] * u
        upper = np.asarray(self.child.gauge(x2), dtype=float)
        d2 = np.linalg.norm(x2, axis=-1)
        lower = d2 * (n ** (1.0 / p - 0.5)) if p > 2.0 else d2
        out = upper <= 1.0 + tol
        ambiguous = (~out) & (lower <= 1.0 + tol)
        if np.any(ambiguous):
            vals = fiber_min_gauge(self.child, x0[ambiguous], u, iters=28)
            out[ambiguous] = vals <= 1.0 + tol
        return out[0:1].reshape(()) if single else out

    def support(self, u):
        u = np.asarray(u, dtype=float)
        return self.child.support(u @ self.M)

    def support_witness(self, u):
        u = np.asarray(u, dtype=float)
        w = self.child.support_witness(u @ self.M)
        return w @ self.M.T

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

    @property
    def is_degenerate(self) -> bool:
        return self.core.is_degenerate

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


class LagrangianProductBody(ConvexBody):
    """S = K x K° in R^{2n}; p-block is the dual factor, q-block the base."""

    def __init__(self, base: ConvexBody, dual: ConvexBody):
        if base.dim != dual.dim:
            raise BodyError("factor dimensions differ")
        self.base = base
        self.dual = dual
        self.n = base.dim
        self.dim = 2 * base.dim

    def _split(self, x):
        return x[..., : self.n], x[..., self.n :]

    def gauge(self, x):
        x = np.asarray(x, dtype=float)
        p, q = self._split(x)
        return np.maximum(self.dual.gauge(p), self.base.gauge(q))

    def support(self, u):
        u = np.asarray(u, dtype=float)
        up, uq = self._split(u)
        return self.dual.support(up) + self.base.support(uq)

    def support_witness(self, u):
        u = np.asarray(u, dtype=float)
        up, uq = self._split(u)
        return np.concatenate(
            [self.dual.support_witness(up), self.base.support_witness(uq)], axis=-1
        )

    def factors_polytopal(self) -> bool:
        return isinstance(self.base, PolytopeBody) and isinstance(self.dual, PolytopeBody)

    def as_polytope(self) -> PolytopeBody:
        if not self.factors_polytopal():
            raise BodyError("factors are not exact polytopes")
        n = self.n
        zeros = tuple(Fraction(0) for _ in range(n))
        rows = [(a + zeros, b) for a, b in self.dual.facet_halfspaces()]
        rows += [(zeros + a, b) for a, b in self.base.facet_halfspaces()]
        verts = [pv + qv for pv in self.dual.extreme_vertices()
                 for qv in self.base.extreme_vertices()]
        return PolytopeBody(2 * n, vertices=verts, halfspaces=rows,
                            check_symmetry=False, vertices_extreme=True,
                            halfspaces_irredundant=True)

    def polar(self) -> ConvexBody:
        if self.factors_polytopal():
            return self.as_polytope().polar()
        return L1SumBody([self.base, self.dual])

    def describe(self) -> dict:
        return {
            "type": "product",
            "body": self.base.describe(),
            "dual": self.dual.describe(),
        }


class L1SumBody(ConvexBody):
    """conv of bodies placed in orthogonal coordinate blocks (gauge = sum)."""

    def __init__(self, parts: Sequence[ConvexBody]):
        self.parts = list(parts)
        self.dim = sum(p.dim for p in parts)
        self._offsets = np.cumsum([0] + [p.dim for p in parts])

    def _blocks(self, x):
        return [
            x[..., self._offsets[i] : self._offsets[i + 1]]
            for i in range(len(self.parts))
        ]

    def gauge(self, x):
        x = np.asarray(x, dtype=float)
        return sum(p.gauge(b) for p, b in zip(self.parts, self._blocks(x)))

    def support(self, u):
        u = np.asarray(u, dtype=float)
        vals = [p.support(b) for p, b in zip(self.parts, self._blocks(u))]
        return np.max(np.stack(vals, axis=-1), axis=-1)

    def polar(self) -> ConvexBody:
        polars = [p.polar() for p in self.parts]
        if len(polars) == 2:
            return LagrangianProductBody(polars[1], polars[0])
        raise BodyError("polar of an l1-sum with more than two parts is unsupported")

    def describe(self) -> dict:
        return {"type": "l1sum", "parts": [p.describe() for p in self.parts]}


# ---------------------------------------------------------------------------
# rational matrix inverse


def invert_rational_matrix(M: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
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
            raise BodyError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# Hanner trees


_HANNER_TOKEN = re.compile(r"\s*([SXL(),])\s*")
# A Hanner body stores both representations in full, and one of them grows
# exponentially with the leaf count (2^n vertices for the n-cube)
MAX_HANNER_LEAVES = 16


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
    swap = {"X": "L", "L": "X"}

    def rec(t):
        if t == "S":
            return "S"
        op, children = t
        return (swap[op], [rec(c) for c in children])

    return hanner_tree_str(rec(parse_hanner(expr)))


def hanner_leaf_count(tree) -> int:
    if tree == "S":
        return 1
    _, children = tree
    return sum(hanner_leaf_count(c) for c in children)


def hanner_counts(tree) -> tuple[int, int]:
    """(vertex count, facet count): vertices multiply under X and add under L,
    facets do the opposite."""
    if isinstance(tree, PolytopeBody):
        if tree.tree is None:
            raise BodyError("body carries no Hanner tree")
        tree = tree.tree
    if isinstance(tree, str):
        tree = parse_hanner(tree)
    if tree == "S":
        return (2, 2)
    op, children = tree
    counts = [hanner_counts(c) for c in children]
    v = 1 if op == "X" else 0
    f = 0 if op == "X" else 1
    for cv, cf in counts:
        if op == "X":
            v *= cv
            f += cf
        else:
            v += cv
            f *= cf
    return (v, f)


def hanner_body(expr_or_tree) -> PolytopeBody:
    tree = parse_hanner(expr_or_tree) if isinstance(expr_or_tree, str) else expr_or_tree

    def build(t) -> tuple[list, list, int]:
        if t == "S":
            return (
                [(Fraction(1),), (Fraction(-1),)],
                [((Fraction(1),), Fraction(1)), ((Fraction(-1),), Fraction(1))],
                1,
            )
        op, children = t
        parts = [build(c) for c in children]
        dims = [p[2] for p in parts]
        total = sum(dims)
        if op == "X":
            verts = [()]
            for pv, _, _ in parts:
                verts = [v + w for v in verts for w in pv]
            rows = []
            off = 0
            for (_, ph, d) in parts:
                pre = (Fraction(0),) * off
                post = (Fraction(0),) * (total - off - d)
                rows += [(pre + a + post, b) for a, b in ph]
                off += d
        else:
            verts = []
            off = 0
            for (pv, _, d) in parts:
                pre = (Fraction(0),) * off
                post = (Fraction(0),) * (total - off - d)
                verts += [pre + v + post for v in pv]
                off += d
            rows = [((), Fraction(1))]
            for (_, ph, _) in parts:
                rows = [(a + a2, Fraction(1)) for a, _ in rows for a2, _ in ph]
        return verts, rows, total

    verts, rows, total = build(tree)
    return PolytopeBody(total, vertices=verts, halfspaces=rows,
                        tree=hanner_tree_str(tree), check_symmetry=False,
                        vertices_extreme=True, halfspaces_irredundant=True)


# ---------------------------------------------------------------------------
# operations


def polar(body: ConvexBody) -> ConvexBody:
    return body.polar()


def gauge(body: ConvexBody, x) -> float:
    return float(body.gauge(np.asarray(x, dtype=float)))


def support(body: ConvexBody, u) -> float:
    return float(body.support(np.asarray(u, dtype=float)))


def linear_image(body: ConvexBody, M) -> ConvexBody:
    if isinstance(body, PolytopeBody):
        try:
            Mr = [rational_vector(row) for row in M]
            return body.linear_image(Mr)
        except BodyError as e:
            if "singular" in str(e):
                raise
    Mf = np.asarray(M, dtype=float)
    if abs(np.linalg.det(Mf)) < 1e-12:
        raise BodyError("singular matrix")
    return ImageBody(body, Mf)


def _is_rational_vector(u) -> bool:
    try:
        rational_vector(u)
        return True
    except BodyError:
        return False


def _coordinate_axis(u: np.ndarray) -> int | None:
    nz = np.nonzero(np.abs(u) > 0)[0]
    return int(nz[0]) if len(nz) == 1 else None


def hyperplane_section(body: ConvexBody, u) -> ConvexBody:
    """body ∩ u^perp in an orthonormal frame of u^perp.

    Rational polytopes return an exact core scaled per-axis (the frame is the
    normalized rational Gram-Schmidt basis); functional bodies restrict their
    gauge to the subspace.
    """
    uf = np.asarray(u, dtype=float)
    if uf.shape != (body.dim,) or not np.any(uf):
        raise BodyError("normal must be a nonzero vector of matching dimension")
    if isinstance(body, LpBallBody):
        axis = _coordinate_axis(uf)
        if axis is not None or body.p == 2.0:
            return LpBallBody(body.p, body.dim - 1)
    if isinstance(body, PolytopeBody) and _is_rational_vector(u):
        basis = orthogonal_complement_basis(rational_vector(u))
        A = []
        for a, b in body.halfspaces():
            A.append(
                (
                    tuple(
                        sum(a[k] * bv[k] for k in range(body.dim)) for bv in basis
                    ),
                    b,
                )
            )
        core = PolytopeBody(body.dim - 1, halfspaces=A, check_symmetry=False)
        scales2 = [sum(x * x for x in bv) for bv in basis]
        return DiagonalImageBody(core, scales2)
    basis = _orthonormal_basis_float(uf)
    return SliceBody(body, basis)


def hyperplane_projection(body: ConvexBody, u) -> ConvexBody:
    """body / span(u), i.e. the shadow on u^perp, same frame as the section."""
    uf = np.asarray(u, dtype=float)
    if uf.shape != (body.dim,) or not np.any(uf):
        raise BodyError("normal must be a nonzero vector of matching dimension")
    if isinstance(body, LpBallBody):
        axis = _coordinate_axis(uf)
        if axis is not None or body.p == 2.0:
            return LpBallBody(body.p, body.dim - 1)
    if isinstance(body, PolytopeBody) and _is_rational_vector(u):
        basis = orthogonal_complement_basis(rational_vector(u))
        verts = [
            tuple(sum(bv[k] * v[k] for k in range(body.dim)) for bv in basis)
            for v in body.vertices()
        ]
        core = PolytopeBody(body.dim - 1, vertices=verts, check_symmetry=False)
        scales2 = [1 / sum(x * x for x in bv) for bv in basis]
        return DiagonalImageBody(core, scales2)
    basis = _orthonormal_basis_float(uf)
    return ImageBody(body, basis.T)


def _orthonormal_basis_float(u: np.ndarray) -> np.ndarray:
    n = len(u)
    pivot = int(np.argmax(np.abs(u)))
    cols = []
    un = u / np.linalg.norm(u)
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


def lagrangian_product(body: ConvexBody) -> LagrangianProductBody:
    return LagrangianProductBody(body, body.polar())


# ---------------------------------------------------------------------------
# parsing


_BODY_FIELDS = {
    "cube": ("dim",), "cross": ("dim",), "lp_ball": ("p", "dim"),
    "hpoly": ("A", "b"), "vpoly": ("vertices",), "hanner": ("expr",),
    "polar": ("body",), "section": ("body", "normal"),
    "projection": ("body", "normal"), "linimg": ("body", "matrix"),
    "product": ("body",), "scaled": ("core", "scales2"),
}


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
        return PolytopeBody.cube(int(description["dim"]))
    if t == "cross":
        return PolytopeBody.cross(int(description["dim"]))
    if t == "lp_ball":
        p = description["p"]
        if isinstance(p, str) and p not in ("inf", "Infinity"):
            p = float(Fraction(p))
        dim = int(description["dim"])
        if p in ("inf", "Infinity") or (isinstance(p, float) and math.isinf(p)):
            return PolytopeBody.cube(dim)
        p = float(p)
        if p < 1:
            raise BodyError("p must be >= 1")
        if p == 1.0:
            return PolytopeBody.cross(dim)
        return LpBallBody(p, dim)
    if t == "hpoly":
        A = description["A"]
        b = description["b"]
        if not A:
            raise BodyError("'hpoly' body needs at least one row")
        return PolytopeBody(len(A[0]), halfspaces=list(zip(A, b)))
    if t == "vpoly":
        verts = description["vertices"]
        if not verts:
            raise BodyError("'vpoly' body needs at least one vertex")
        return PolytopeBody(len(verts[0]), vertices=verts)
    if t == "hanner":
        return hanner_body(description["expr"])
    if t == "polar":
        return parse_body(description["body"]).polar()
    if t == "section":
        return hyperplane_section(parse_body(description["body"]),
                                  _parse_normal(description["normal"]))
    if t == "projection":
        return hyperplane_projection(parse_body(description["body"]),
                                     _parse_normal(description["normal"]))
    if t == "linimg":
        return linear_image(parse_body(description["body"]), description["matrix"])
    if t == "product":
        base = parse_body(description["body"])
        if "dual" in description:
            return LagrangianProductBody(base, parse_body(description["dual"]))
        return lagrangian_product(base)
    if t == "scaled":
        core = parse_body(description["core"])
        if not isinstance(core, PolytopeBody):
            raise BodyError("'scaled' core must be an exact polytope")
        return DiagonalImageBody(core, [parse_rational(s) for s in description["scales2"]])
    raise BodyError(f"unknown body type {t!r}")


def _parse_normal(seq):
    try:
        return rational_vector(seq)
    except BodyError:
        return np.asarray(seq, dtype=float)


def canonical_description(body_or_desc) -> str:
    desc = body_or_desc.describe() if isinstance(body_or_desc, ConvexBody) else body_or_desc
    return json.dumps(desc, sort_keys=True, separators=(",", ":"))
