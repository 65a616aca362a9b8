"""Signed slices of a sphere and the circle-averaged intersection identity.

Coordinates follow the rest of the package: (p_1..p_N, q_1..q_N), and the
complex structure pairs z_j = q_j + i p_j.  A "circle" is the orbit
theta -> e^{i theta} z of a base point z on the sphere S^{2N-1}(R).

A slice is the zero set of an odd Hamiltonian H = p_1 + eps * g with g an
odd polynomial not involving p_1 (so dH/dp_1 = 1 everywhere and {H = 0} is
the global graph p_1 = -eps * g).  The sign field s = dH/dtheta along the
circle parametrization splits Sigma = S^{2N-1}(R) ∩ {H = 0} into Sigma^+
and Sigma^-.

Surface integration (N = 2 only): Sigma^+ is parametrized over directions
of the (q_1, p_2, q_2)-space, the radius along each ray solved from the
sphere constraint; omega is integrated by Gauss-Legendre in the colatitude
and trapezoid in the azimuth.  ``sigma_plus_area_stokes`` integrates the
primitive lambda along the boundary curve {s = 0} instead and serves as an
independent cross-check.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

C2 = math.pi  # fixed by the exact linear case at R = 1


class CroftonError(ValueError):
    pass


# ---------------------------------------------------------------------------
# odd polynomials


@dataclass(frozen=True)
class OddPolynomial:
    """Sum of monomials c * prod(x_i^e_i), every total degree odd."""

    nvars: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        for coef, exps in self.terms:
            if len(exps) != self.nvars:
                raise CroftonError("monomial arity mismatch")
            if sum(exps) % 2 == 0:
                raise CroftonError("every monomial must have odd total degree")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for coef, exps in self.terms:
            t = np.full(x.shape[:-1], coef)
            for i, e in enumerate(exps):
                if e:
                    t = t * x[..., i] ** e
            out += t
        return out

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for coef, exps in self.terms:
            for i, e in enumerate(exps):
                if not e:
                    continue
                t = np.full(x.shape[:-1], coef * e)
                for j, ej in enumerate(exps):
                    pw = ej - 1 if j == i else ej
                    if pw:
                        t = t * x[..., j] ** pw
                out[..., i] += t
        return out


_MONO = re.compile(
    r"^([+-]*)((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?\*?((?:[pq]\d+(?:\^\d+)?\*?)*)$")
_VAR = re.compile(r"([pq])(\d+)(?:\^(\d+))?")
# a term starts at a sign that follows neither another sign nor the 'e' of
# a float exponent
_TERM_START = re.compile(r"(?<=[^eE+-])(?=[+-])")


def parse_odd_polynomial(text: str, half_dim: int) -> OddPolynomial:
    """Parse e.g. ``"q2^3"``, ``"0.3*q1*p2^2 - q2^3"`` or ``"1e-1*q2^3"``
    over R^{2N}."""
    s = text.replace(" ", "")
    pieces = [p for p in _TERM_START.split(s) if p]
    terms = []
    for piece in pieces:
        m = _MONO.match(piece)
        if not m or not (m.group(2) or m.group(3)):
            raise CroftonError(f"bad monomial {piece!r}")
        signs, coef_s, vars_s = m.groups()
        coef = (-1.0) ** signs.count("-") * (float(coef_s) if coef_s else 1.0)
        exps = [0] * (2 * half_dim)
        for kind, idx_s, pow_s in _VAR.findall(vars_s):
            idx = int(idx_s)
            if not 1 <= idx <= half_dim:
                raise CroftonError(f"variable index out of range in {piece!r}")
            slot = (idx - 1) if kind == "p" else (half_dim + idx - 1)
            exps[slot] += int(pow_s) if pow_s else 1
        terms.append((coef, tuple(exps)))
    return OddPolynomial(2 * half_dim, tuple(terms))


# ---------------------------------------------------------------------------
# slices


@dataclass(frozen=True)
class SignedSlice:
    """H = p_1 + eps * g with odd g independent of p_1."""

    N: int
    epsilon: float
    g: OddPolynomial

    def __post_init__(self):
        if self.g.nvars != 2 * self.N:
            raise CroftonError("polynomial arity must be 2N")
        for _, exps in self.g.terms:
            if exps[0] != 0:
                raise CroftonError("g must not involve p_1 (keeps dH/dp_1 = 1 >= 1/2)")

    def H(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return z[..., 0] + self.epsilon * self.g(z)

    def grad_H(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        out = self.epsilon * self.g.grad(z)
        out[..., 0] += 1.0
        return out

    def sign_field(self, z: np.ndarray) -> np.ndarray:
        """s = dH/dtheta along the circle through z, evaluated at z."""
        z = np.asarray(z, dtype=float)
        N = self.N
        grad = self.grad_H(z)
        # tangent of theta -> e^{i theta} w at w: dp_j = w_{q_j}, dq_j = -w_{p_j}
        return np.sum(grad[..., :N] * z[..., N:], axis=-1) - np.sum(
            grad[..., N:] * z[..., :N], axis=-1
        )


def linear_slice(N: int) -> SignedSlice:
    zero_g = OddPolynomial(
        2 * N, ((0.0, tuple(1 if i == N else 0 for i in range(2 * N))),)
    )
    return SignedSlice(N, 0.0, zero_g)


def perturbed_slice(N: int, epsilon: float, g_text: str) -> SignedSlice:
    return SignedSlice(N, float(epsilon), parse_odd_polynomial(g_text, N))


# ---------------------------------------------------------------------------
# circles


def sample_hopf_circles(N: int, R: float, count: int, seed: int) -> np.ndarray:
    """Base points uniform on S^{2N-1}(R); the induced circle measure is
    unitary invariant."""
    if count <= 0:
        raise CroftonError("need a positive sample count")
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(count, 2 * N))
    z *= R / np.linalg.norm(z, axis=1, keepdims=True)
    return z


def rotate(z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """e^{i theta} acting on (..., 2N) points, theta broadcastable."""
    z = np.asarray(z, dtype=float)
    theta = np.asarray(theta, dtype=float)
    N = z.shape[-1] // 2
    p, q = z[..., :N], z[..., N:]
    c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
    return np.concatenate([q * s + p * c, q * c - p * s], axis=-1)


@dataclass(frozen=True)
class IntersectionCount:
    positive: int
    negative: int
    degenerate: bool = False


def signed_intersections(circle: np.ndarray, slc: SignedSlice,
                         scan_points: int = 512, tol: float = 1e-12,
                         tangency_tol: float = 1e-9) -> IntersectionCount:
    """Zeros of H along one circle, located by sign scan plus bisection."""
    pos, neg, degenerate = _signed_counts(np.asarray(circle, float)[None, :], slc,
                                          scan_points, tol, tangency_tol)
    return IntersectionCount(int(pos[0]), int(neg[0]), bool(degenerate[0]))


def _signed_counts(z0: np.ndarray, slc: SignedSlice, scan_points: int = 512,
                   tol: float = 1e-12, tangency_tol: float = 1e-9):
    """Vectorized signed zero counts for a block of circles (b, 2N)."""
    b = z0.shape[0]
    theta = 2.0 * np.pi * np.arange(scan_points) / scan_points
    h = slc.H(rotate(z0[:, None, :], theta[None, :]))
    scale = np.max(np.abs(h), axis=1)
    degenerate = scale < tol
    h_next = np.roll(h, -1, axis=1)
    crossing = (h * h_next < 0) | ((h == 0) & (h_next != 0))
    ci, cj = np.nonzero(crossing)
    tlo = theta[cj]
    thi = tlo + 2.0 * np.pi / scan_points
    base = z0[ci]
    flo = h[ci, cj]
    for _ in range(46):
        tm = 0.5 * (tlo + thi)
        fm = slc.H(rotate(base, tm))
        left = flo * fm <= 0
        thi = np.where(left, tm, thi)
        tlo = np.where(left, tlo, tm)
        flo = np.where(left, flo, fm)
    troot = 0.5 * (tlo + thi)
    deriv = slc.sign_field(rotate(base, troot))
    tangent = np.abs(deriv) < tangency_tol * np.maximum(scale[ci], 1.0)
    if np.any(tangent):
        degenerate[ci[tangent]] = True
    pos = np.zeros(b, dtype=int)
    neg = np.zeros(b, dtype=int)
    np.add.at(pos, ci[deriv > 0], 1)
    np.add.at(neg, ci[deriv < 0], 1)
    return pos, neg, degenerate


# ---------------------------------------------------------------------------
# surface integration at N = 2


def _lift(slc: SignedSlice, x: np.ndarray) -> np.ndarray:
    """x = (q1, p2, q2) -> z = (p1, p2, q1, q2) on {H = 0}."""
    z = np.zeros(x.shape[:-1] + (4,))
    z[..., 2] = x[..., 0]
    z[..., 1] = x[..., 1]
    z[..., 3] = x[..., 2]
    z[..., 0] = -slc.epsilon * slc.g(z)  # g does not involve p_1
    return z


def _radius_on_slice(slc: SignedSlice, xi: np.ndarray, R: float,
                     iters: int = 60) -> np.ndarray:
    """Solve rho^2 + p_1(rho xi)^2 = R^2 along directions xi (..., 3)."""
    lo = np.zeros(xi.shape[:-1])
    hi = np.full(xi.shape[:-1], R)

    def f(rho):
        z = _lift(slc, rho[..., None] * xi)
        return rho**2 + z[..., 0] ** 2 - R**2

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        hi = np.where(fm >= 0, mid, hi)
        lo = np.where(fm >= 0, lo, mid)
    return 0.5 * (lo + hi)


def _direction(t, psi):
    return np.stack(
        [np.cos(t), np.sin(t) * np.cos(psi), np.sin(t) * np.sin(psi)], axis=-1
    )


def _surface_point(slc: SignedSlice, t, psi, R: float) -> np.ndarray:
    xi = _direction(np.asarray(t, float), np.asarray(psi, float))
    rho = _radius_on_slice(slc, xi, R)
    return _lift(slc, rho[..., None] * xi)


def _edge_colatitude(slc: SignedSlice, psi: np.ndarray, R: float,
                     iters: int = 60, scan: int = 64) -> np.ndarray:
    """Colatitude where the sign field changes on Sigma, per azimuth.

    The construction needs exactly one sign change along every meridian; a
    coarse scan guards against perturbations large enough to fold Sigma^+.
    """
    eps = 1e-9
    ts = np.linspace(eps, np.pi - eps, scan)
    vals = np.stack(
        [slc.sign_field(_surface_point(slc, np.full(psi.shape, t), psi, R))
         for t in ts]
    )
    crossings = np.count_nonzero(np.diff(np.sign(vals), axis=0) != 0, axis=0)
    if np.any(vals[0] <= 0) or np.any(vals[-1] >= 0) or np.any(crossings != 1):
        raise CroftonError(
            "sign field does not split the slice into two graphs; "
            "perturbation too large"
        )
    lo = np.full(psi.shape, eps)
    hi = np.full(psi.shape, np.pi - eps)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        sm = slc.sign_field(_surface_point(slc, mid, psi, R))
        take = sm > 0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    return 0.5 * (lo + hi)


def sigma_plus_area(slc: SignedSlice, R: float = 1.0, n_azimuth: int = 256,
                    n_colat: int = 64, fd_step: float = 1e-5) -> float:
    """Integral of omega over Sigma^+ (N = 2) by deterministic quadrature.

    Sigma^+ is swept by (t, psi) -> z(t, psi): direction angles in the
    (q1, p2, q2)-space, radius from the sphere constraint, lifted to the
    graph p_1 = -eps g.  The omega pullback uses central differences of the
    exact parametrization; orientation is fixed so the linear slice gives
    +pi R^2.
    """
    if slc.N != 2:
        raise CroftonError("surface integration is implemented for N = 2 only")
    psi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    t_edge = _edge_colatitude(slc, psi, R)
    nodes, weights = np.polynomial.legendre.leggauss(n_colat)
    # map [-1, 1] -> [0, t_edge(psi)]
    T = 0.5 * (nodes[None, :] + 1.0) * t_edge[:, None]
    W = 0.5 * t_edge[:, None] * weights[None, :]
    P = np.broadcast_to(psi[:, None], T.shape)
    h = fd_step
    zt = (_surface_point(slc, T + h, P, R) - _surface_point(slc, T - h, P, R)) / (2 * h)
    zp = (_surface_point(slc, T, P + h, R) - _surface_point(slc, T, P - h, R)) / (2 * h)
    omega_tp = (
        zt[..., 0] * zp[..., 2]
        - zp[..., 0] * zt[..., 2]
        + zt[..., 1] * zp[..., 3]
        - zp[..., 1] * zt[..., 3]
    )
    return float(np.sum(W * omega_tp) * (2.0 * np.pi / n_azimuth))


def sigma_plus_area_stokes(slc: SignedSlice, R: float = 1.0,
                           n_nodes: int = 2048) -> float:
    """Independent value of the same integral: lambda along the boundary
    {s = 0}, with a spectral derivative of the closed curve."""
    if slc.N != 2:
        raise CroftonError("surface integration is implemented for N = 2 only")
    psi = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    t_edge = _edge_colatitude(slc, psi, R)
    z = _surface_point(slc, t_edge, psi, R)
    freq = np.fft.fftfreq(n_nodes, d=1.0 / n_nodes)
    dz = np.real(np.fft.ifft(1j * freq[:, None] * np.fft.fft(z, axis=0), axis=0))
    lam = 0.5 * (
        z[:, 0] * dz[:, 2] - z[:, 2] * dz[:, 0]
        + z[:, 1] * dz[:, 3] - z[:, 3] * dz[:, 1]
    )
    return float(np.mean(lam) * 2.0 * np.pi)


# ---------------------------------------------------------------------------
# the averaged-count identity


def crofton_check(slc: SignedSlice, R: float = 1.0, samples: int = 10**5,
                  seed: int = 0, block: int = 4096, scan_points: int = 512) -> dict:
    """lhs = integral of omega over Sigma^+; rhs = c_2 R^2 times the mean
    signed count of circle crossings of Sigma^+ (all crossings of Sigma^+
    are positive, so the count is the number of roots with dH/dtheta > 0).
    c_2 = pi is pinned by the linear equality case."""
    lhs = sigma_plus_area(slc, R)
    total = 0
    total_sq = 0
    n_used = 0
    n_degenerate = 0
    done = 0
    bi = 0
    while done < samples:
        m = min(block, samples - done)
        z0 = sample_hopf_circles(slc.N, R, m, seed=seed + 7919 * bi)
        pos, neg, degen = _signed_counts(z0, slc, scan_points=scan_points)
        ok = ~degen
        total += int(pos[ok].sum())
        total_sq += int((pos[ok] ** 2).sum())
        n_used += int(ok.sum())
        n_degenerate += int(degen.sum())
        done += m
        bi += 1
    if n_used == 0:
        raise CroftonError("all sampled circles were degenerate")
    mean = total / n_used
    var = max(total_sq / n_used - mean**2, 0.0)
    ci = 1.959963984540054 * math.sqrt(var / n_used)
    rhs = C2 * R**2 * mean
    return {
        "lhs": lhs,
        "rhs": rhs,
        "c_N": C2,
        "mean_count": mean,
        "count_ci": ci,
        "rhs_ci": C2 * R**2 * ci,
        "samples": n_used,
        "degenerate": n_degenerate,
        "seed": seed,
        "R": R,
    }
