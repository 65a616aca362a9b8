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
from scipy.special import gammaincinv

from . import sampling

C2 = math.pi  # fixed by the exact linear case at R = 1
CIRCLE_BLOCK = 4096

# Root counting along a circle; "mass" is sum_k |c_k| over the Fourier
# coefficients of h, a bound on max |h|.
ZERO_TOL = 1e-12      # h == 0 when its mass is below this
TOP_TOL = 1e-14       # c_d lost to rounding: the root polynomial drops degree
UNIT_TOL = 1e-6       # |log |w|| of a root taken to lie on the unit circle
GAP_TOL = 1e-6        # angle below which two roots count as one double root
TANGENCY_TOL = 1e-9   # |h'| / mass at a root below which the root is tangent

# Surface quadrature of Sigma^+: colatitudes of the coarse scan for its edge,
# azimuths (trapezoid), Gauss-Legendre colatitude nodes, and the central
# difference step of the parametrization's derivatives
EDGE_SCAN = 64
N_AZIMUTH = 256
N_COLAT = 64
FD_STEP = 1e-5


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

    @staticmethod
    def _monomial(coef: float, exps: tuple[int, ...], x: np.ndarray) -> np.ndarray:
        t = np.full(x.shape[:-1], coef)
        for i, e in enumerate(exps):
            if e:
                t = t * x[..., i] ** e
        return t

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for coef, exps in self.terms:
            out += self._monomial(coef, exps, x)
        return out

    def graded(self, x: np.ndarray) -> np.ndarray:
        """Homogeneous parts: row k of the result is the degree-k part of
        the polynomial at x, so g(rho x) = sum_k row_k rho^k."""
        x = np.asarray(x, dtype=float)
        top = max((sum(exps) for _, exps in self.terms), default=0)
        out = np.zeros((top + 1,) + x.shape[:-1])
        for coef, exps in self.terms:
            out[sum(exps)] += self._monomial(coef, exps, x)
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
        if not math.isfinite(self.epsilon * self.epsilon):
            raise CroftonError("epsilon and its square must be finite")
        if self.g.nvars != 2 * self.N:
            raise CroftonError("polynomial arity must be 2N")
        for _, exps in self.g.terms:
            if exps[0] != 0:
                raise CroftonError("g must not involve p_1 (keeps dH/dp_1 = 1 >= 1/2)")

    @property
    def degree(self) -> int:
        """Total degree of H = p_1 + eps * g."""
        return max([1] + [sum(exps) for coef, exps in self.g.terms
                          if coef * self.epsilon != 0])

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
    unitary invariant.  Block b of CIRCLE_BLOCK points is
    ``sampling.block_rng(seed, 0, b)``'s draw."""
    if count <= 0:
        raise CroftonError("need a positive sample count")
    z = np.concatenate([rng.normal(size=(m, 2 * N))
                        for rng, m in sampling.blocks(seed, 0, count, CIRCLE_BLOCK)])
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


def _signed_counts(z0: np.ndarray, slc: SignedSlice):
    """Signed zero counts of h(theta) = H(e^{i theta} z) for a block of
    circles (b, 2N).

    h is a trigonometric polynomial of degree d = deg H, so one FFT of 2d + 1
    samples gives its coefficients c_{-d..d}, and its zeros are the
    unit-circle roots w = e^{i theta} of the degree-2d polynomial
    e^{i d theta} h(theta) = sum_k c_k w^{k+d}, found as companion-matrix
    eigenvalues.  The sign of each zero is that of h'(theta) =
    sum_k i k c_k e^{i k theta}.  A circle is degenerate when h == 0, when
    c_d vanishes, or when a root on the circle is tangent or nearly double.
    """
    b = z0.shape[0]
    d = slc.degree
    M = 2 * d + 1
    h = slc.H(rotate(z0[:, None, :], 2.0 * np.pi * np.arange(M) / M))
    k = np.arange(-d, d + 1)
    c = np.fft.fft(h, axis=1)[:, k % M] / M
    mass = np.sum(np.abs(c), axis=1)
    degenerate = (mass < ZERO_TOL) | (np.abs(c[:, -1]) <= TOP_TOL * mass)
    live = np.nonzero(~degenerate)[0]
    c = c[live]
    companion = np.zeros((len(live), 2 * d, 2 * d), dtype=complex)
    companion[:, 0, :] = -c[:, -2::-1] / c[:, -1:]
    companion[:, np.arange(1, 2 * d), np.arange(2 * d - 1)] = 1.0
    w = np.linalg.eigvals(companion)
    on = np.abs(np.log(np.abs(w))) < UNIT_TOL
    u = w / np.abs(w)
    slope = np.real(np.sum(1j * k * c[:, None, :] * u[..., None] ** k, axis=-1))
    tangent = on & (np.abs(slope) < TANGENCY_TOL * mass[live, None])
    # w and 1/conj(w) share an angle, so an off-circle pair inside UNIT_TOL
    # shows up here as a double root
    apart = np.abs(np.angle(u[:, :, None] * np.conj(u[:, None, :])))
    double = on[:, :, None] & on[:, None, :] & ~np.eye(2 * d, dtype=bool) & (apart < GAP_TOL)
    degenerate[live] = np.any(tangent, axis=1) | np.any(double, axis=(1, 2))
    pos = np.zeros(b, dtype=int)
    neg = np.zeros(b, dtype=int)
    pos[live] = np.count_nonzero(on & (slope > 0), axis=1)
    neg[live] = np.count_nonzero(on & (slope < 0), axis=1)
    return pos, neg, degenerate


# ---------------------------------------------------------------------------
# surface integration at N = 2


def _embed(x: np.ndarray) -> np.ndarray:
    """x = (q1, p2, q2) -> (0, p2, q1, q2)."""
    z = np.zeros(x.shape[:-1] + (4,))
    z[..., 2] = x[..., 0]
    z[..., 1] = x[..., 1]
    z[..., 3] = x[..., 2]
    return z


def _radius_on_slice(slc: SignedSlice, xi: np.ndarray, R: float):
    """Solve rho^2 + p_1(rho xi)^2 = R^2 along directions xi (..., 3).

    On the ray, g does not see p_1, so g(lift(rho xi)) = G(rho) =
    sum_k a_k(xi) rho^k with a_k the degree-k part of g at xi, and
    F(rho) = rho^2 + eps^2 G(rho)^2 - R^2 is solved by Newton from rho = R.
    Each step keeps a bracket lo < root <= hi (F(0) = -R^2 < 0 <= F(R)) and
    bisects it when the Newton step would leave it.  Returns rho and
    G(rho), so the lifted point has p_1 = -eps G(rho).
    """
    a = slc.g.graded(_embed(xi))
    eps2 = slc.epsilon ** 2
    lo = np.zeros(xi.shape[:-1])
    hi = np.full(xi.shape[:-1], float(R))
    rho = hi.copy()
    for _ in range(100):  # Newton takes a handful; bisection at most ~60
        G, dG = _horner(a, rho)
        F = rho**2 + eps2 * G**2 - R**2
        below = F < 0
        lo = np.where(below, rho, lo)
        hi = np.where(below, hi, rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = rho - F / (2.0 * rho + 2.0 * eps2 * G * dG)
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        done = np.all(np.abs(step - rho) <= 4.0 * np.finfo(float).eps * R)
        rho = step
        if done:
            break
    return rho, _horner(a, rho)[0]


def _horner(a: np.ndarray, rho: np.ndarray):
    """sum_k a_k rho^k and its rho-derivative."""
    G, dG = a[-1], np.zeros_like(rho)
    for ak in a[-2::-1]:
        dG = dG * rho + G
        G = G * rho + ak
    return G, dG


def _direction(t, psi):
    return np.stack(
        [np.cos(t), np.sin(t) * np.cos(psi), np.sin(t) * np.sin(psi)], axis=-1
    )


def _surface_point(slc: SignedSlice, t, psi, R: float) -> np.ndarray:
    """The point of Sigma over the direction (t, psi), as (p1, p2, q1, q2)."""
    xi = _direction(np.asarray(t, float), np.asarray(psi, float))
    rho, G = _radius_on_slice(slc, xi, R)
    z = _embed(rho[..., None] * xi)
    z[..., 0] = -slc.epsilon * G
    return z


def _edge_colatitude(slc: SignedSlice, psi: np.ndarray, R: float) -> np.ndarray:
    """Colatitude where the sign field changes on Sigma, per azimuth (psi 1-d).

    The construction needs exactly one sign change along every meridian; a
    coarse scan, one (scan x azimuth) batch, guards against perturbations
    large enough to fold Sigma^+ and brackets the change.  Regula falsi with
    the Illinois halving on the smooth sign field then closes the bracket
    to two adjacent floats, taking a bisection step whenever the secant
    point falls outside it or two steps failed to halve it; the result is
    their midpoint, as a bisection to float resolution would give.
    """
    eps = 1e-9
    ts = np.linspace(eps, np.pi - eps, EDGE_SCAN)
    T, P = np.broadcast_arrays(ts[:, None], psi[None, :])
    vals = slc.sign_field(_surface_point(slc, T, P, R))
    crossings = np.count_nonzero(np.diff(np.sign(vals), axis=0) != 0, axis=0)
    if np.any(vals[0] <= 0) or np.any(vals[-1] >= 0) or np.any(crossings != 1):
        raise CroftonError(
            "sign field does not split the slice into two graphs; "
            "perturbation too large"
        )
    live = np.arange(psi.size)
    k = np.count_nonzero(vals > 0, axis=0)  # the change lies in [ts[k-1], ts[k]]
    lo, hi = ts[k - 1], ts[k]
    s_lo, s_hi = vals[k - 1, live], vals[k, live]
    last = np.zeros(psi.size, dtype=int)  # end replaced last: -1 lo, +1 hi
    prev1 = prev2 = np.full(psi.size, np.inf)  # bracket widths one and two steps back
    out = np.empty(psi.size)
    for _ in range(200):  # a handful of secant steps; the safeguard needs < 150
        width = hi - lo
        done = np.nextafter(lo, hi) >= hi
        if done.any():
            out[live[done]] = 0.5 * (lo + hi)[done]
            keep = ~done
            live, lo, hi, s_lo, s_hi, last, width, prev1, prev2 = (
                a[keep] for a in (live, lo, hi, s_lo, s_hi, last, width, prev1, prev2))
            if not live.size:
                break
        # the secant point, kept a few ulps inside the bracket so that a root
        # found at one end still closes the bracket from the other side
        ulps = 4.0 * np.spacing(hi)
        t = np.clip(lo + width * s_lo / (s_lo - s_hi), lo + ulps, hi - ulps)
        secant = (t > lo) & (t < hi) & (width <= 0.5 * prev2)
        t = np.where(secant, t, 0.5 * (lo + hi))
        s = slc.sign_field(_surface_point(slc, t, psi[live], R))
        up = s > 0
        # Illinois: an end kept twice in a row has its value halved
        s_hi = np.where(up & (last == -1), 0.5 * s_hi, np.where(up, s_hi, s))
        s_lo = np.where(~up & (last == 1), 0.5 * s_lo, np.where(up, s, s_lo))
        lo = np.where(up, t, lo)
        hi = np.where(up, hi, t)
        last = np.where(up, -1, 1)
        prev1, prev2 = width, prev1
    else:
        raise CroftonError("edge search did not converge")
    return out


def sigma_plus_area(slc: SignedSlice, R: float = 1.0) -> float:
    """Integral of omega over Sigma^+ (N = 2) by deterministic quadrature.

    Sigma^+ is swept by (t, psi) -> z(t, psi): direction angles in the
    (q1, p2, q2)-space, radius from the sphere constraint, lifted to the
    graph p_1 = -eps g.  The omega pullback uses central differences of the
    exact parametrization; orientation is fixed so the linear slice gives
    +pi R^2.
    """
    if slc.N != 2:
        raise CroftonError("surface integration is implemented for N = 2 only")
    psi = 2.0 * np.pi * np.arange(N_AZIMUTH) / N_AZIMUTH
    t_edge = _edge_colatitude(slc, psi, R)
    nodes, weights = np.polynomial.legendre.leggauss(N_COLAT)
    # map [-1, 1] -> [0, t_edge(psi)]
    T = 0.5 * (nodes[None, :] + 1.0) * t_edge[:, None]
    W = 0.5 * t_edge[:, None] * weights[None, :]
    P = np.broadcast_to(psi[:, None], T.shape)
    h = FD_STEP
    zt = (_surface_point(slc, T + h, P, R) - _surface_point(slc, T - h, P, R)) / (2 * h)
    zp = (_surface_point(slc, T, P + h, R) - _surface_point(slc, T, P - h, R)) / (2 * h)
    omega_tp = (
        zt[..., 0] * zp[..., 2]
        - zp[..., 0] * zt[..., 2]
        + zt[..., 1] * zp[..., 3]
        - zp[..., 1] * zt[..., 3]
    )
    return float(np.sum(W * omega_tp) * (2.0 * np.pi / N_AZIMUTH))


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
                  seed: int = 0) -> dict:
    """lhs = integral of omega over Sigma^+; rhs = c_2 R^2 times the mean
    signed count of circle crossings of Sigma^+ (all crossings of Sigma^+
    are positive, so the count is the number of roots with dH/dtheta > 0).
    c_2 = pi is pinned by the linear equality case.

    The count's 95% half-width is the larger of the normal one and the
    exact Poisson (Garwood) upper distance for the crossings beyond the one
    that every circle has (H is odd, so h changes sign): when those extras
    are rare, a sample may hold none and its variance is then 0.
    """
    if not (R > 0 and math.isfinite(R * R)):
        raise CroftonError("radius must be positive and its square finite")
    lhs = sigma_plus_area(slc, R)
    z = sample_hopf_circles(slc.N, R, samples, seed)
    pos, degen = [], []
    for start in range(0, samples, CIRCLE_BLOCK):
        p, _, d = _signed_counts(z[start:start + CIRCLE_BLOCK], slc)
        pos.append(p)
        degen.append(d)
    degen = np.concatenate(degen)
    pos = np.concatenate(pos)[~degen]
    n_used = len(pos)
    if n_used == 0:
        raise CroftonError("all sampled circles were degenerate")
    mean = float(pos.mean())
    extra = int(pos.sum()) - n_used
    ci = max(1.959963984540054 * float(pos.std()) / math.sqrt(n_used),
             (float(gammaincinv(extra + 1, 0.975)) - extra) / n_used)
    rhs = C2 * R**2 * mean
    return {
        "lhs": lhs,
        "rhs": rhs,
        "c_N": C2,
        "mean_count": mean,
        "count_ci": ci,
        "rhs_ci": C2 * R**2 * ci,
        "samples": n_used,
        "degenerate": int(degen.sum()),
        "seed": seed,
        "R": R,
    }


def crofton_agrees(slc: SignedSlice, rep: dict) -> bool:
    """A report's verdict: |lhs - rhs| <= 1e-6 + rhs_ci on the linear slice;
    <= 3 rhs_ci + 1e-9 on a perturbed one, whose area must also reach the
    c_2 R^2 of one crossing per circle, less 1e-3."""
    gap = abs(rep["lhs"] - rep["rhs"])
    if slc.epsilon == 0.0:
        return gap <= 1e-6 + rep["rhs_ci"]
    return gap <= 3.0 * rep["rhs_ci"] + 1e-9 and rep["lhs"] >= C2 * rep["R"] ** 2 - 1e-3
