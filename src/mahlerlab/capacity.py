"""Capacity estimation through the discretized shortest-loop problem.

For a symmetric convex S in R^{2n} the estimator minimizes the scale
invariant quotient

    Q(z) = length(z)^2 / (4 action(z)),

over closed polygons z with positive action, where edge lengths are measured
in the norm ||v|| = sup { omega(v, w) : w in S } = h_S(Jv) and the action is
the polygonal lambda integral.  Homogeneity makes this equivalent to
minimizing length under the constraint action = 1, and the normalization is
calibrated so the estimator returns pi R^2 on the round ball B^{2n}(R): the
circle loop has length 2 pi R rho and action pi rho^2 at every radius rho.

The minimizer search is a batched multi-start subgradient descent.  For
polytopal norms the subgradient picks the gradient at the lexicographically
smallest supporting vertex, so runs are reproducible; independent starts are
vectorized and the final reduction is a deterministic argmin over
(value, start index).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import (
    BodyError,
    ConvexBody,
    DiagonalImageBody,
    ImageBody,
    LagrangianProductBody,
    PolytopeBody,
    coordinate_sum,
)
from .symplectic import j_rotate, polygon_action


@dataclass(frozen=True)
class PolygonalLoop:
    vertices: np.ndarray  # (m, 2n), closed by convention (edge m -> 1)
    symmetric: bool = False

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 4:
            raise BodyError("loop needs at least 4 vertices")
        if v.shape[1] % 2 != 0:
            raise BodyError("loop must live in an even-dimensional space")
        object.__setattr__(self, "vertices", v)
        if self.symmetric:
            m = v.shape[0]
            if m % 2 != 0:
                raise BodyError("symmetric loop needs an even vertex count")
            if not np.allclose(v[m // 2 :], -v[: m // 2], atol=1e-9 * max(1.0, np.abs(v).max())):
                raise BodyError("symmetric loop must satisfy z_{i+m/2} = -z_i")


@dataclass(frozen=True)
class CapacityEstimate:
    value: float
    loop: PolygonalLoop
    m: int
    starts: int
    seed: int
    converged: bool
    iterations: int = 0
    restarts: int = 0

    def as_dict(self, include_loop: bool = True) -> dict:
        d = {
            "value": self.value,
            "m": self.m,
            "starts": self.starts,
            "seed": self.seed,
            "converged": self.converged,
            "iterations": self.iterations,
            "restarts": self.restarts,
        }
        if include_loop:
            d["loop"] = self.loop.vertices.tolist()
            d["symmetric"] = self.loop.symmetric
        return d


# ---------------------------------------------------------------------------
# batched quotient minimization

# Step-size schedule of the descent.  A start steps by ALPHA0 times its
# loop's rms size, halves its step after PATIENCE iterations without
# improvement, and finishes when the step falls below ALPHA_FLOOR or when its
# best value improved by less than STALL_TOL (relative) over the last
# STALL_WINDOW iterations.
ALPHA0 = 0.2
PATIENCE = 60
ALPHA_FLOOR = 1e-9
STALL_WINDOW = 100
STALL_TOL = 1e-10


def _ellipse_starts(dim: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random ellipses in random symplectic 2-planes span(a, Ja)."""
    a = rng.normal(size=(count, dim))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = j_rotate(a)
    theta = 2.0 * np.pi * np.arange(m) / m
    return (
        np.cos(theta)[None, :, None] * a[:, None, :]
        + np.sin(theta)[None, :, None] * b[:, None, :]
    )


def _evaluate(S: ConvexBody, z: np.ndarray, nxt: np.ndarray):
    """Q, length, action, edge witnesses and next vertices z[..., nxt] for a
    batch of loops held as coordinate planes (d, B, m)."""
    zn = z.take(nxt, axis=-1)
    je = j_rotate(zn - z, axis=0)
    # the witness takes rows: a row view of the planes, whose result is the
    # transpose of witness planes (the layout contract of support_witness)
    w = S.support_witness(je.reshape(len(je), -1).T).T.reshape(je.shape)
    # h_S(Je) at the witness, summed over the edges
    length = np.add.reduce(coordinate_sum(je * w), axis=-1)
    action = polygon_action(z, zn)
    q = np.full(len(action), np.inf)
    np.divide(length**2, 4.0 * action, out=q, where=action > 0)
    return q, length, action, w, zn


def _gradient(z, zn, prv, length, action, w):
    l_ = length[:, None]
    a_ = action[:, None]
    dl = w - w.take(prv, axis=-1)
    da = z.take(prv, axis=-1) - zn
    # one J for both terms: rounding to nearest is symmetric in sign, so this
    # is J(c1 dl) - J(c2 (0.5 da)) up to the sign of an exact zero
    return j_rotate((l_ / (2.0 * a_)) * dl - (l_**2 / (4.0 * a_**2)) * (0.5 * da), axis=0)


def _minimize_quotient(
    S: ConvexBody,
    z0: np.ndarray,
    symmetric: bool,
    rng: np.random.Generator,
    max_iters: int,
):
    """Subgradient descent on Q over a batch of starts (B, m, d).  Returns
    (best values, best loops (B, m, d), iterations used, restart count,
    stalled mask).

    The loops are held as coordinate planes (d, B, m), so sums over the
    coordinates are adds of whole planes; every sum keeps the order it has
    over rows, so the estimates do not depend on the layout.  Only the
    starts still descending are stepped and evaluated: the working arrays
    hold their entries, ``idx`` names them, and a start's best value and
    loop go back to ``best_q``/``best_z`` when it finishes.
    """
    z = np.ascontiguousarray(z0.transpose(2, 0, 1))
    d, B, m_repr = z.shape
    full_m = 2 * m_repr if symmetric else m_repr
    nxt = np.r_[1:full_m, 0]
    prv = np.r_[full_m - 1, 0:full_m - 1]

    def materialize(x):
        if symmetric:
            return np.concatenate([x, -x], axis=-1)
        return x

    def fresh_starts(count):
        fresh = _ellipse_starts(d, full_m, count, rng).transpose(2, 0, 1)
        return fresh[..., :m_repr] if symmetric else fresh

    restarts = 0

    def evaluate_with_restarts(z):
        """_evaluate on the full loops, restarting bad starts of z in place;
        the full loops come back last."""
        nonlocal restarts
        zf = materialize(z)
        ev = _evaluate(S, zf, nxt)
        tries = 0
        while tries < 50:
            q, action = ev[0], ev[2]
            bad = ~np.isfinite(q) | (action <= 1e-12)
            if not bad.any():
                break
            restarts += int(bad.sum())
            z[:, bad] = fresh_starts(int(bad.sum()))
            zf = materialize(z)
            ev = _evaluate(S, zf, nxt)
            tries += 1
        return (*ev, zf)

    def mean_square(x):
        return np.add.reduce(coordinate_sum(x**2), axis=-1) / m_repr

    q, length, action, w, zn, zf = evaluate_with_restarts(z)
    best_q = np.empty(B)
    best_z = np.empty_like(z)
    stalled = np.zeros(B, dtype=bool)
    # one entry per active start: its index, best value and loop, step size
    # and counters
    idx = np.arange(B)
    bq, bz, window_q = q.copy(), z.copy(), q.copy()
    alpha = np.full(B, ALPHA0)
    no_improve = np.zeros(B, dtype=int)
    it = 0
    for it in range(1, max_iters + 1):
        if not len(idx):
            break
        g = _gradient(zf, zn, prv, length, action, w)
        if symmetric:
            g = g[..., :m_repr] - g[..., m_repr:]
        # the norm sums over (m, d) jointly, in row order
        gnorm = np.sqrt(np.add.reduce(g.transpose(1, 2, 0).copy()**2, axis=(1, 2)))
        gnorm = np.where(gnorm > 0, gnorm, 1.0)
        scale = np.sqrt(mean_square(z))
        g *= (alpha * scale / gnorm)[:, None]
        z -= g
        # renormalize: Q is invariant under translation and scaling
        if not symmetric:
            # the sum over the vertices in its row order: sequential, as
            # along the outer axis of an (m, d·B) copy
            c = np.add.reduce(z.reshape(-1, m_repr).T.copy(), axis=0)
            z -= c.reshape(d, -1, 1) / m_repr
        rms = np.sqrt(mean_square(z))
        rms = np.where(rms > 0, rms, 1.0)
        z /= rms[:, None]

        q, length, action, w, zn, zf = evaluate_with_restarts(z)
        improved = q < bq * (1.0 - 1e-14)
        bq[improved] = q[improved]
        bz[:, improved] = z[:, improved]
        no_improve += 1
        no_improve[improved] = 0
        cool = no_improve >= PATIENCE
        alpha[cool] *= 0.5
        no_improve[cool] = 0
        keep = alpha >= ALPHA_FLOOR
        if it % STALL_WINDOW == 0:
            rel = (window_q - bq) / np.maximum(bq, 1e-300)
            keep &= rel >= STALL_TOL
            window_q = bq.copy()
        if not keep.all():
            done = ~keep
            best_q[idx[done]] = bq[done]
            best_z[:, idx[done]] = bz[:, done]
            stalled[idx[done]] = True
            idx, bq, window_q, alpha, no_improve, length, action = (
                x[keep] for x in (idx, bq, window_q, alpha, no_improve, length, action))
            z, bz, w, zn, zf = (x[:, keep] for x in (z, bz, w, zn, zf))
    best_q[idx] = bq
    best_z[:, idx] = bz
    return best_q, materialize(best_z).transpose(1, 2, 0).copy(), it, restarts, stalled


def _factor_vertices_float(body: ConvexBody):
    if isinstance(body, PolytopeBody):
        if body.is_degenerate:
            return None
        return np.array([[float(x) for x in v] for v in body.extreme_vertices()])
    if isinstance(body, DiagonalImageBody):
        core = _factor_vertices_float(body.core)
        return None if core is None else core * body.scales

    return None


def _product_preconditioner(S: ConvexBody):
    """Symplectic block map diag(T^-T, T) making the base factor of a
    Lagrangian product roughly isotropic (T from the inverse square root of
    the vertex second moment).

    Capacity is invariant under the map, but the descent converges far more
    reliably on the normalized body: skewed products otherwise trap the
    round ellipse starts well above the minimum.
    """
    if not isinstance(S, LagrangianProductBody):
        return None
    vb = _factor_vertices_float(S.base)
    if vb is None or len(vb) < S.base.dim + 1:
        return None
    cov = vb.T @ vb / len(vb)
    w, U = np.linalg.eigh(cov)
    if w.min() <= 1e-10 * w.max():
        return None
    if w.max() <= 4.0 * w.min():
        return None  # already near-isotropic; skip the wrapper
    T = U @ np.diag(w**-0.5) @ U.T
    T_inv_t = np.linalg.inv(T).T
    S_opt = LagrangianProductBody(ImageBody(S.base, T), ImageBody(S.dual, T_inv_t))
    n = S.base.dim

    def unmap(loop):
        p, q = loop[..., :n], loop[..., n:]
        return np.concatenate([p @ T, q @ T_inv_t], axis=-1)

    return S_opt, unmap


def _estimate(S, m, starts, seed, symmetric, max_iters):
    if S.dim % 2 != 0:
        raise BodyError("capacity needs an even-dimensional body")
    if m < 4 or m % 2 != 0:
        raise BodyError("m must be even and >= 4")
    if starts < 1:
        raise BodyError("starts must be >= 1")
    if max_iters < 1:
        raise BodyError("max_iters must be >= 1")
    pre = _product_preconditioner(S)
    unmap = None
    if pre is not None:
        S, unmap = pre
    rng = np.random.default_rng(seed)
    z0 = _ellipse_starts(S.dim, m, starts, rng)
    if symmetric:
        z0 = z0[:, : m // 2]
    best_q, loops, iters, restarts, stalled = _minimize_quotient(
        S, z0, symmetric, rng, max_iters=max_iters
    )
    order = np.lexsort((np.arange(len(best_q)), best_q))
    k = int(order[0])
    value = float(best_q[k])
    loop_v = loops[k]
    # converged: the winning start stopped because its value settled, not
    # because the iteration cap was hit.  A start that never improves is fine
    # when it opened at the minimizer (circles in a ball), so movement is
    # reported separately.
    converged = bool(stalled[k])
    if unmap is not None:
        loop_v = unmap(loop_v)
    loop = PolygonalLoop(loop_v, symmetric=symmetric)
    return CapacityEstimate(
        value=value,
        loop=loop,
        m=loop_v.shape[0],
        starts=starts,
        seed=seed,
        converged=converged,
        iterations=iters,
        restarts=restarts,
    )


def capacity_estimate(S: ConvexBody, m: int = 64, starts: int = 16, seed: int = 0,
                      max_iters: int = 50_000) -> CapacityEstimate:
    """Upper-bound estimate of the capacity of S by polygonal loops."""
    return _estimate(S, m, starts, seed, symmetric=False, max_iters=max_iters)


def symmetric_capacity_estimate(S: ConvexBody, m: int = 64, starts: int = 16,
                                seed: int = 0, max_iters: int = 50_000) -> CapacityEstimate:
    """Same functional restricted to centrally symmetric loops (half the
    variables); for symmetric bodies one of the minimizers is symmetric."""
    return _estimate(S, m, starts, seed, symmetric=True, max_iters=max_iters)
