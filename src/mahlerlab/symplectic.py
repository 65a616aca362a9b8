"""Standard symplectic structure, actions, and linear reduction.

Coordinates are ordered (p_1..p_N, q_1..q_N).  The pairing is
omega(x, y) = sum_i x_p[i] y_q[i] - y_p[i] x_q[i], with primitive
lambda = 1/2 sum_i (p_i dq_i - q_i dp_i), so the action of a closed polygon
is 1/2 sum_i omega(z_i, z_{i+1}).

Reductions are along an isotropic line L inside the q-subspace (the only
case the Lagrangian-product construction needs); higher codimension is
handled by iterating.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (
    BodyError,
    DiagonalImageBody,
    LagrangianProductBody,
    LpBallBody,
    fiber_min_gauge,
    hyperplane_projection,
    hyperplane_section,
)


class SymplecticSpace:
    """R^{2N} with the standard pairing."""

    def __init__(self, half_dim: int):
        if half_dim < 1:
            raise ValueError("half dimension must be positive")
        self.N = int(half_dim)
        self.dim = 2 * self.N

    def split(self, z):
        z = np.asarray(z, dtype=float)
        return z[..., : self.N], z[..., self.N :]

    def omega(self, x, y) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape[-1] != self.dim or y.shape[-1] != self.dim:
            raise ValueError("dimension mismatch")
        xp, xq = self.split(x)
        yp, yq = self.split(y)
        out = np.sum(xp * yq - yp * xq, axis=-1)
        return float(out) if out.ndim == 0 else out

    def j_rotate(self, v):
        """J with <Jv, z> = omega(v, z): (p, q) -> (-q, p)."""
        v = np.asarray(v, dtype=float)
        vp, vq = self.split(v)
        return np.concatenate([-vq, vp], axis=-1)

    def polygon_action(self, loop) -> float:
        """1/2 sum_i omega(z_i, z_{i+1}); equals the lambda integral exactly
        for polygons."""
        verts = np.asarray(getattr(loop, "vertices", loop), dtype=float)
        if verts.ndim != 2 or verts.shape[0] < 3:
            raise ValueError("need a closed polygon with at least 3 vertices")
        if verts.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        nxt = np.roll(verts, -1, axis=0)
        return float(0.5 * np.sum(self.omega(verts, nxt)))


def omega(space: SymplecticSpace, x, y):
    return space.omega(x, y)


def polygon_action(space: SymplecticSpace, loop):
    return space.polygon_action(loop)


# ---------------------------------------------------------------------------
# coisotropic complements and reduction specs


@dataclass(frozen=True)
class ReductionSpec:
    """Isotropic line L in the q-subspace and its coisotropic complement."""

    N: int
    line_q: np.ndarray          # unit vector in R^N spanning L inside q-space
    line: np.ndarray            # the same vector embedded in R^{2N} (q-block)
    complement_normal: np.ndarray  # n with L^omega = {x : <n, x> = 0}
    quotient_basis: np.ndarray  # (2N, 2N-2), symplectic basis of L^omega / L

    @property
    def complement_dim(self) -> int:
        return 2 * self.N - 1


def coisotropic_complement(ell, N: int | None = None, reverse: bool = False) -> ReductionSpec:
    """Reduction data for a line spanned by ``ell`` inside the q-subspace.

    ``ell`` is either an N-vector of q-coordinates or a 2N-vector whose
    p-block must vanish (rejected otherwise: the construction requires an
    isotropic line inside the Lagrangian q-subspace).
    """
    ell = np.asarray(ell, dtype=float)
    if N is not None and ell.shape == (2 * N,):
        p_part, q_part = ell[:N], ell[N:]
        if np.any(np.abs(p_part) > 1e-12 * max(1.0, np.abs(ell).max())):
            raise BodyError("line must lie in the q-subspace")
        ell = q_part
    n = ell.shape[0] if N is None else N
    if ell.shape != (n,):
        raise BodyError("bad line specification")
    norm = np.linalg.norm(ell)
    if norm == 0:
        raise BodyError("zero line")
    ellq = ell / norm
    line = np.concatenate([np.zeros(n), ellq])
    # omega((0, ell), x) = -<ell, x_p>: the complement is {x : <ell, x_p> = 0}
    normal = np.concatenate([ellq, np.zeros(n)])
    # orthonormal basis of ell^perp inside R^N, deterministic pivot order
    f = _orthonormal_complement_float(ellq, reverse=reverse)
    cols = []
    for i in range(f.shape[1]):
        cols.append(np.concatenate([f[:, i], np.zeros(n)]))  # p-type vector
    for i in range(f.shape[1]):
        cols.append(np.concatenate([np.zeros(n), f[:, i]]))  # q-type vector
    basis = np.stack(cols, axis=1)
    return ReductionSpec(N=n, line_q=ellq, line=line,
                         complement_normal=normal, quotient_basis=basis)


def _orthonormal_complement_float(u: np.ndarray, reverse: bool = False) -> np.ndarray:
    n = len(u)
    mags = np.abs(u)
    pivots = np.nonzero(mags == mags.max())[0]
    pivot = int(pivots[-1] if reverse else pivots[0])
    order = [j for j in range(n) if j != pivot]
    if reverse:
        order = order[::-1]
    cols = []
    for j in order:
        v = np.zeros(n)
        v[j] = 1.0
        v = v - (v @ u) * u
        for c in cols:
            v = v - (v @ c) * c
        nv = np.linalg.norm(v)
        if nv < 1e-13:
            raise BodyError("degenerate complement basis")
        cols.append(v / nv)
    return np.stack(cols, axis=1) if cols else np.zeros((n, 0))


# ---------------------------------------------------------------------------
# reduction of Lagrangian products


def reduce_product(S: LagrangianProductBody, u) -> LagrangianProductBody:
    """(S ∩ L^omega) / L for S = K x K° and L = span(u) in the q-subspace.

    Returns (K/L) x (K° ∩ L^perp) as a Lagrangian product of dimension
    2(n-1); the factors are polars of each other in the shared frame of
    u^perp.  Rational polytope factors stay exact.
    """
    if not isinstance(S, LagrangianProductBody):
        raise BodyError("reduce_product needs a Lagrangian product")
    base, dual = S.base, S.dual
    if base.dim < 2:
        raise BodyError("cannot reduce a product of one-dimensional factors")
    # strip per-axis frame scales: diag(s) x diag(1/s) is linear symplectic,
    # so the reduced product is computed in the rational core frame
    if isinstance(base, DiagonalImageBody) and isinstance(dual, DiagonalImageBody):
        base, dual = base.core, dual.core
    new_base = hyperplane_projection(base, u)
    new_dual = hyperplane_section(dual, u)
    return LagrangianProductBody(new_base, new_dual)


def iterate_reduction(S: LagrangianProductBody, normals) -> LagrangianProductBody:
    out = S
    for u in normals:
        out = reduce_product(out, u)
    return out


# ---------------------------------------------------------------------------
# reduction of the round ball


def reduce_ball(N: int, spec_or_line, radius: float = 1.0,
                directions: int = 4096, seed: int = 0):
    """Symplectic volume of (B^{2N}(R) ∩ L^omega) / L in the quotient frame.

    The reduced body's radial function is evaluated honestly: for each
    sampled quotient direction the gauge is minimized along the fiber
    x + t * X_H by golden section, and the volume is the spherical average
    of r^{2n} times pi^n / n! (n = N - 1).  For the round ball the radial
    function is constant, so the CI half-width collapses to rounding noise.
    """
    from .volume import VolumeResult

    if isinstance(spec_or_line, ReductionSpec):
        spec = spec_or_line
    else:
        spec = coisotropic_complement(spec_or_line, N=N)
    if spec.N != N:
        raise BodyError("spec dimension mismatch")
    n = N - 1
    if n < 1:
        raise BodyError("need N >= 2")
    ball = LpBallBody(2.0, 2 * N)
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(directions, 2 * n))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    ambient = xi @ spec.quotient_basis.T  # points of L^omega
    # fiber direction is X_H = the q-embedded line itself
    gvals = fiber_min_gauge(ball, ambient, spec.line) / radius
    r = 1.0 / gvals
    powers = r ** (2 * n)
    mean = float(np.mean(powers))
    std = float(np.std(powers))
    unit = math.pi**n / math.factorial(n)
    value = unit * mean
    ci = 1.959963984540054 * unit * std / math.sqrt(directions)
    return VolumeResult(value, "monte-carlo", ci_halfwidth=ci,
                        samples=directions, seed=seed)
