"""Standard symplectic structure, actions, and linear reduction.

This module is the home of the convention: `j_rotate` and the batched
`polygon_action` are the one J and the one polygon action, and the capacity
estimator imports them.  `j_rotate` takes points as rows (..., d) or as
coordinate planes (d, ...); `polygon_action` takes planes (d, ..., m).
Coordinates are ordered (p_1..p_N, q_1..q_N).  The pairing is omega(x, y) = sum_i x_p[i] y_q[i] - y_p[i] x_q[i], with
primitive lambda = 1/2 sum_i (p_i dq_i - q_i dp_i), so the action of a
closed polygon is 1/2 sum_i omega(z_i, z_{i+1}).

Reductions are along an isotropic line L inside the q-subspace (the only
case the Lagrangian-product construction needs); higher codimension is
handled by iterating.
"""
from __future__ import annotations

import math

import numpy as np

from . import sampling
from .bodies import (
    BodyError,
    DiagonalImageBody,
    LagrangianProductBody,
    LpBallBody,
    coordinate_sum,
    fiber_min_gauge,
    hyperplane_projection,
    hyperplane_section,
    orthogonal_complement_basis,
)


def j_rotate(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """J on the coordinate axis, with <Jv, z> = omega(v, z): (p, q) -> (-q, p)."""
    n = v.shape[axis] // 2
    out = v.take(np.arange(-n, n), axis=axis)  # a copy, (q, p)
    p = out[(slice(None),) * (axis % v.ndim) + (slice(0, n),)]
    np.negative(p, out=p)
    return out


def polygon_action(z: np.ndarray, zn: np.ndarray | None = None) -> np.ndarray:
    """1/2 sum_i omega(z_i, z_{i+1}) for a batch of closed polygons (the
    lambda integral, exact for polygons); one value per polygon.  The
    polygons are coordinate planes (d, ..., m), closed along the last axis;
    ``zn`` holds the next vertices z_{i+1} when the caller has them already."""
    if zn is None:
        zn = np.roll(z, -1, axis=-1)
    n = len(z) // 2
    om = coordinate_sum(z[:n] * zn[n:] - zn[:n] * z[n:])
    return 0.5 * np.add.reduce(om, axis=-1)


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


# ---------------------------------------------------------------------------
# reduction of the round ball


def _quotient_basis(ell: np.ndarray) -> np.ndarray:
    """Symplectic basis (2N, 2N-2) of L^omega / L for the line L spanned by
    (0, ell) in the q-subspace.

    omega((0, ell), x) = -<ell, x_p>, so L^omega = {x : <ell, x_p> = 0}.  An
    orthonormal frame f of ell^perp gives its p-type columns (f, 0) and its
    q-type columns (0, f), which are orthogonal to L.
    """
    f = orthogonal_complement_basis(ell)
    zero = np.zeros_like(f)
    return np.block([[f, zero], [zero, f]])


def reduce_ball(N: int, line, directions: int = 4096, seed: int = 0):
    """Symplectic volume of (B^{2N} ∩ L^omega) / L in the quotient frame, for
    the line L spanned by the N-vector ``line`` of q-coordinates.

    The reduced body's radial function is evaluated honestly: for each
    sampled quotient direction the gauge is minimized along the fiber
    x + t * X_H by golden section, and the volume is the spherical average
    of r^{2n} times pi^n / n! (n = N - 1).  For the round ball the radial
    function is constant, so the CI half-width collapses to rounding noise.
    The directions are one block, ``sampling.block_rng(seed, 0, 0)``'s draw.
    """
    from .volume import VolumeResult

    n = N - 1
    if n < 1:
        raise BodyError("need N >= 2")
    ell = np.asarray(line, dtype=float)
    if ell.shape != (N,):
        raise BodyError(f"line must be an N-vector of q-coordinates, got shape {ell.shape}")
    norm = np.linalg.norm(ell)
    if norm == 0:
        raise BodyError("zero line")
    ball = LpBallBody(2.0, 2 * N)
    xi = sampling.block_rng(seed, 0, 0).normal(size=(directions, 2 * n))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    ambient = xi @ _quotient_basis(ell).T  # points of L^omega
    # fiber direction is X_H = the q-embedded line itself
    gvals = fiber_min_gauge(ball, ambient, np.concatenate([np.zeros(N), ell / norm]))
    r = 1.0 / gvals
    powers = r ** (2 * n)
    mean = float(np.mean(powers))
    std = float(np.std(powers))
    unit = math.pi**n / math.factorial(n)
    value = unit * mean
    ci = 1.959963984540054 * unit * std / math.sqrt(directions)
    return VolumeResult(value, "monte-carlo", ci_halfwidth=ci,
                        samples=directions, seed=seed, stream=0)
