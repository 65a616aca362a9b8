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
)
from .symplectic import reduce_product


def _jrot(v: np.ndarray) -> np.ndarray:
    n = v.shape[-1] // 2
    return np.concatenate([-v[..., n:], v[..., :n]], axis=-1)


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

    @property
    def m(self) -> int:
        return self.vertices.shape[0]

    @staticmethod
    def from_half(half: np.ndarray) -> "PolygonalLoop":
        half = np.asarray(half, dtype=float)
        return PolygonalLoop(np.concatenate([half, -half], axis=0), symmetric=True)


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
# norm and length


def body_norm(S: ConvexBody, v) -> float | np.ndarray:
    """sup { omega(v, z) : z in S } = h_S(Jv)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != S.dim:
        raise BodyError("dimension mismatch")
    out = S.support(_jrot(v))
    return float(out) if np.ndim(out) == 0 else out


def loop_length(S: ConvexBody, loop) -> float:
    verts = np.asarray(getattr(loop, "vertices", loop), dtype=float)
    edges = np.roll(verts, -1, axis=0) - verts
    return float(np.sum(body_norm(S, edges)))


def loop_action(loop) -> float:
    verts = np.asarray(getattr(loop, "vertices", loop), dtype=float)
    nxt = np.roll(verts, -1, axis=0)
    n = verts.shape[-1] // 2
    om = np.sum(verts[:, :n] * nxt[:, n:] - nxt[:, :n] * verts[:, n:], axis=-1)
    return float(0.5 * np.sum(om))


def quotient_value(S: ConvexBody, loop) -> float:
    a = loop_action(loop)
    if a <= 0:
        raise BodyError("loop has non-positive action")
    return loop_length(S, loop) ** 2 / (4.0 * a)


# ---------------------------------------------------------------------------
# batched quotient minimization


def _ellipse_starts(dim: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random ellipses in random symplectic 2-planes span(a, Ja)."""
    a = rng.normal(size=(count, dim))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = _jrot(a)
    theta = 2.0 * np.pi * np.arange(m) / m
    return (
        np.cos(theta)[None, :, None] * a[:, None, :]
        + np.sin(theta)[None, :, None] * b[:, None, :]
    )


def _evaluate(S: ConvexBody, z: np.ndarray):
    """Q, length, action, edge witnesses for a batch of loops (B, m, d)."""
    e = np.roll(z, -1, axis=1) - z
    je = _jrot(e)
    w = S.support_witness(je)
    norms = np.sum(je * w, axis=-1)  # h_S(Je) at the witness
    length = np.sum(norms, axis=-1)
    nxt = np.roll(z, -1, axis=1)
    n = z.shape[-1] // 2
    om = np.sum(z[..., :n] * nxt[..., n:] - nxt[..., :n] * z[..., n:], axis=-1)
    action = 0.5 * np.sum(om, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(action > 0, length**2 / (4.0 * action), np.inf)
    return q, length, action, w


def _gradient(z, length, action, w):
    dl = _jrot(w - np.roll(w, 1, axis=1))
    da = 0.5 * _jrot(np.roll(z, 1, axis=1) - np.roll(z, -1, axis=1))
    l_ = length[:, None, None]
    a_ = action[:, None, None]
    return (l_ / (2.0 * a_)) * dl - (l_**2 / (4.0 * a_**2)) * da


def _minimize_quotient(
    S: ConvexBody,
    z0: np.ndarray,
    symmetric: bool,
    rng: np.random.Generator,
    max_iters: int = 50_000,
    alpha0: float = 0.2,
    stall_window: int = 100,
    stall_tol: float = 1e-10,
    patience: int = 60,
    alpha_floor: float = 1e-9,
):
    """Subgradient descent on Q over a batch of starts.  Returns
    (best values, best loops, iterations used, restart count, stalled mask)."""
    z = z0.copy()
    B, m_repr, d = z.shape
    full_m = 2 * m_repr if symmetric else m_repr

    def materialize(x):
        if symmetric:
            return np.concatenate([x, -x], axis=1)
        return x

    def reduce_grad(g):
        if symmetric:
            return g[:, :m_repr] - g[:, m_repr:]
        return g

    def fresh_starts(count):
        fresh = _ellipse_starts(d, full_m, count, rng)
        return fresh[:, :m_repr] if symmetric else fresh

    alpha = np.full(B, alpha0)
    active = np.ones(B, dtype=bool)
    no_improve = np.zeros(B, dtype=int)
    restarts = 0

    def evaluate_with_restarts(z):
        nonlocal restarts
        q, length, action, w = _evaluate(S, materialize(z))
        bad = ~np.isfinite(q) | (action <= 1e-12)
        tries = 0
        while np.any(bad) and tries < 50:
            restarts += int(bad.sum())
            z[bad] = fresh_starts(int(bad.sum()))
            q, length, action, w = _evaluate(S, materialize(z))
            bad = ~np.isfinite(q) | (action <= 1e-12)
            tries += 1
        return q, length, action, w

    q, length, action, w = evaluate_with_restarts(z)
    best_q = q.copy()
    best_z = z.copy()
    window_q = best_q.copy()
    initial_q = q.copy()
    it = 0
    for it in range(1, max_iters + 1):
        if not np.any(active):
            break
        g = reduce_grad(_gradient(materialize(z), length, action, w))
        gnorm = np.sqrt(np.sum(g**2, axis=(1, 2)))
        gnorm = np.where(gnorm > 0, gnorm, 1.0)
        scale = np.sqrt(np.mean(np.sum(z**2, axis=-1), axis=-1))
        step = (alpha * scale / gnorm)[:, None, None] * g
        z = np.where(active[:, None, None], z - step, z)
        # renormalize: Q is invariant under translation and scaling
        if not symmetric:
            z = z - np.mean(z, axis=1, keepdims=True)
        rms = np.sqrt(np.mean(np.sum(z**2, axis=-1), axis=-1))
        rms = np.where(rms > 0, rms, 1.0)
        z = z / rms[:, None, None]

        q, length, action, w = evaluate_with_restarts(z)
        improved = active & (q < best_q * (1.0 - 1e-14))
        best_z = np.where(improved[:, None, None], z, best_z)
        best_q = np.where(improved, q, best_q)
        no_improve = np.where(improved, 0, no_improve + 1)
        cool = active & (no_improve >= patience)
        alpha = np.where(cool, alpha * 0.5, alpha)
        no_improve = np.where(cool, 0, no_improve)
        active &= alpha >= alpha_floor
        if it % stall_window == 0:
            rel = (window_q - best_q) / np.maximum(best_q, 1e-300)
            active &= rel >= stall_tol
            window_q = best_q.copy()

    stalled = ~active
    loops = materialize(best_z)
    moved = best_q < initial_q * (1.0 - 1e-9)
    return best_q, loops, it, restarts, stalled, moved


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
    S_opt = LagrangianProductBody(ImageBody(S.base, T),
                                  ImageBody(S.dual, np.linalg.inv(T).T))
    n = S.base.dim

    def unmap(loop):
        p, q = loop[..., :n], loop[..., n:]
        return np.concatenate([p @ T, q @ np.linalg.inv(T).T], axis=-1)

    return S_opt, unmap


def _estimate(S, m, starts, seed, symmetric, max_iters, refine_rounds=0):
    if S.dim % 2 != 0:
        raise BodyError("capacity needs an even-dimensional body")
    if m < 4 or m % 2 != 0:
        raise BodyError("m must be even and >= 4")
    pre = _product_preconditioner(S)
    unmap = None
    if pre is not None:
        S, unmap = pre
    rng = np.random.default_rng(seed)
    z0 = _ellipse_starts(S.dim, m, starts, rng)
    if symmetric:
        z0 = z0[:, : m // 2]
    best_q, loops, iters, restarts, stalled, moved = _minimize_quotient(
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
    total_iters = iters
    for _ in range(refine_rounds):
        doubled_full = _subdivide(loop_v)
        z_init = doubled_full[: doubled_full.shape[0] // 2] if symmetric else doubled_full
        q2, loops2, it2, r2, stalled2, _ = _minimize_quotient(
            S, z_init[None, :, :], symmetric, rng, max_iters=max_iters
        )
        total_iters += it2
        restarts += r2
        if float(q2[0]) < value:
            value = float(q2[0])
            loop_v = loops2[0]
        else:
            loop_v = doubled_full
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
        iterations=total_iters,
        restarts=restarts,
    )


def _subdivide(z: np.ndarray) -> np.ndarray:
    nxt = np.roll(z, -1, axis=0)
    mid = 0.5 * (z + nxt)
    out = np.empty((2 * z.shape[0], z.shape[1]))
    out[0::2] = z
    out[1::2] = mid
    return out


def capacity_estimate(S: ConvexBody, m: int = 64, starts: int = 16, seed: int = 0,
                      max_iters: int = 50_000, refine_rounds: int = 0) -> CapacityEstimate:
    """Upper-bound estimate of the capacity of S by polygonal loops."""
    return _estimate(S, m, starts, seed, symmetric=False, max_iters=max_iters,
                     refine_rounds=refine_rounds)


def symmetric_capacity_estimate(S: ConvexBody, m: int = 64, starts: int = 16,
                                seed: int = 0, max_iters: int = 50_000,
                                refine_rounds: int = 0) -> CapacityEstimate:
    """Same functional restricted to centrally symmetric loops (half the
    variables); for symmetric bodies one of the minimizers is symmetric."""
    return _estimate(S, m, starts, seed, symmetric=True, max_iters=max_iters,
                     refine_rounds=refine_rounds)


def refine_estimate(S: ConvexBody, est: CapacityEstimate, rounds: int = 1,
                    max_iters: int = 50_000) -> CapacityEstimate:
    """Warm-started edge subdivision; the estimate never increases."""
    rng = np.random.default_rng(est.seed + 777)
    value = est.value
    loop_v = est.loop.vertices
    symmetric = est.loop.symmetric
    iters = 0
    restarts = 0
    for _ in range(rounds):
        doubled_full = _subdivide(loop_v)
        z_init = doubled_full[: doubled_full.shape[0] // 2] if symmetric else doubled_full
        q2, loops2, it2, r2, stalled2, _ = _minimize_quotient(
            S, z_init[None, :, :], symmetric, rng, max_iters=max_iters
        )
        iters += it2
        restarts += r2
        if float(q2[0]) < value:
            value = float(q2[0])
            loop_v = loops2[0]
        else:
            loop_v = doubled_full
    return CapacityEstimate(
        value=value,
        loop=PolygonalLoop(loop_v, symmetric=symmetric),
        m=loop_v.shape[0],
        starts=est.starts,
        seed=est.seed,
        converged=est.converged,
        iterations=est.iterations + iters,
        restarts=est.restarts + restarts,
    )


# ---------------------------------------------------------------------------
# reduction monotonicity experiment


def random_rational_normal(rng: np.random.Generator, dim: int,
                           max_num: int = 9, max_den: int = 9):
    from fractions import Fraction

    while True:
        nums = rng.integers(-max_num, max_num + 1, size=dim)
        dens = rng.integers(1, max_den + 1, size=dim)
        if np.any(nums != 0):
            return tuple(Fraction(int(a), int(b)) for a, b in zip(nums, dens))


def reduction_monotonicity_experiment(
    S: LagrangianProductBody,
    trials: int = 10,
    seed: int = 0,
    m: int = 48,
    starts: int = 12,
    max_iters: int = 50_000,
    rel_slack: float = 0.02,
) -> dict:
    """Capacity never drops (within slack) under one-step linear reduction.

    For seeded random rational normals u, compares the estimate on S with
    the estimate on (K/L) x (K° ∩ L^perp) and reports every pair.
    Per-instance optimizer failures are recorded, not raised.
    """
    if not isinstance(S, LagrangianProductBody):
        raise BodyError("experiment needs a Lagrangian product")
    if S.base.dim < 2:
        raise BodyError("base must have dimension >= 2")
    rng = np.random.default_rng(seed)
    base_est = capacity_estimate(S, m=m, starts=starts, seed=seed, max_iters=max_iters)
    pairs = []
    all_hold = True
    for t in range(trials):
        u = random_rational_normal(rng, S.base.dim)
        entry: dict = {"normal": [str(x) for x in u]}
        try:
            S2 = reduce_product(S, u)
            red_est = capacity_estimate(
                S2, m=m, starts=starts, seed=seed + 1000 + t, max_iters=max_iters
            )
            holds = red_est.value >= base_est.value * (1.0 - rel_slack)
            entry.update(
                {
                    "c_original": base_est.value,
                    "c_reduced": red_est.value,
                    "holds": bool(holds),
                }
            )
            all_hold &= holds
        except Exception as e:  # noqa: BLE001 - per-instance reporting
            entry.update({"error": f"{type(e).__name__}: {e}", "holds": False})
            all_hold = False
        pairs.append(entry)
    return {
        "c_original": base_est.value,
        "trials": trials,
        "seed": seed,
        "pairs": pairs,
        "all_hold": bool(all_hold),
    }
