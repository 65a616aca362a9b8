"""Reference values for the benchmark's checks, computed without mahlerlab.

Every function here uses only the standard library and numpy, so a fault in
mahlerlab cannot leak into the value it is checked against.  Exact oracles
return `Fraction`s; numerical ones are quadratures whose error is far below
the Monte Carlo confidence intervals they are compared with.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# capacity of K x K° for centrally symmetric K (Artstein-Avidan, Karasev,
# Ostrover, Duke Math. J. 163, 2014), and the estimator's accepted band
CAPACITY_PRODUCT = 4.0
CAPACITY_LOW = CAPACITY_PRODUCT * (1.0 - 1e-9)
CAPACITY_HIGH = CAPACITY_PRODUCT * 1.02
BALL_LOW = math.pi
BALL_HIGH = 1.01 * math.pi


def mahler_bound(n: int) -> Fraction:
    """4^n / n!, the volume product of the cube (and of every Hanner body)."""
    return Fraction(4**n, math.factorial(n))


# ---------------------------------------------------------------------------
# Hanner trees: 'S' or (op, [children]) with op in {'X', 'L'}


def random_hanner_tree(leaves: int, rng: np.random.Generator):
    """Random binary Hanner tree with the given number of segment leaves."""
    if leaves == 1:
        return "S"
    k = int(rng.integers(1, leaves))
    op = "X" if rng.random() < 0.5 else "L"
    return (op, [random_hanner_tree(k, rng), random_hanner_tree(leaves - k, rng)])


def hanner_expr(tree) -> str:
    if tree == "S":
        return "S"
    op, children = tree
    return f"{op}(" + ", ".join(hanner_expr(c) for c in children) + ")"


def dual_hanner_tree(tree):
    """The tree of the polar body: products and l1-sums swap."""
    if tree == "S":
        return "S"
    op, children = tree
    return ("L" if op == "X" else "X", [dual_hanner_tree(c) for c in children])


def hanner_volume(tree) -> tuple[Fraction, int]:
    """(volume, dimension) from the tree alone.

    vol [-1,1] = 2, vol(K x L) = vol K vol L, and
    vol(K (+) L) = vol K vol L k! l! / (k + l)! for the l1-sum of a
    k-dimensional K and an l-dimensional L.
    """
    if tree == "S":
        return Fraction(2), 1
    op, children = tree
    parts = [hanner_volume(c) for c in children]
    vol = Fraction(1)
    dim = 0
    for v, d in parts:
        vol *= v
        dim += d
    if op == "L":
        for _, d in parts:
            vol *= math.factorial(d)
        vol /= math.factorial(dim)
    return vol, dim


# ---------------------------------------------------------------------------
# central sections of the cube and projections of the cross-polytope


def _norm2(a) -> Fraction:
    return sum((Fraction(x) ** 2 for x in a), Fraction(0))


def cube_section_volume_sq(a) -> Fraction:
    """vol_{n-1}([-1,1]^n ∩ a^perp) squared, exactly.

    Vertex-sum formula for the density of a sum of independent uniforms at 0:
    with b the nonzero entries of a (k of them) and z = n - k zeros,
    vol = 2^z |b| / ((k-1)! prod|b_i|) * sum_eps (prod eps) (eps . |b|)_+^(k-1).
    """
    a = [Fraction(x) for x in a]
    n = len(a)
    b = [abs(x) for x in a if x != 0]
    k = len(b)
    if k == 0:
        raise ValueError("zero normal")
    if k == 1:
        return Fraction(4 ** (n - 1))
    total = Fraction(0)
    for eps in itertools.product((1, -1), repeat=k):
        s = sum((e * x for e, x in zip(eps, b)), Fraction(0))
        if s > 0:
            total += math.prod(eps) * s ** (k - 1)
    r = Fraction(2 ** (n - k)) * total / (math.factorial(k - 1) * math.prod(b))
    return r * r * _norm2(b)


def cross_projection_volume_sq(a) -> Fraction:
    """vol_{n-1} of the shadow of the cross-polytope on a^perp, squared.

    Cauchy's formula 1/2 sum_F |<nu_F, a/|a|>| vol F over the 2^n facets
    conv{eps_i e_i}, each with vol F = sqrt(n)/(n-1)! and nu_F = eps/sqrt(n).
    """
    a = [Fraction(x) for x in a]
    n = len(a)
    total = Fraction(0)
    for eps in itertools.product((1, -1), repeat=n):
        total += abs(sum((e * x for e, x in zip(eps, a)), Fraction(0)))
    t = total / (2 * math.factorial(n - 1))
    return t * t / _norm2(a)


def cube_section_product(a) -> Fraction:
    """Volume product of [-1,1]^n ∩ a^perp and its polar (the shadow of the
    cross-polytope on a^perp); the irrational factors |a| cancel."""
    return _fraction_sqrt(cube_section_volume_sq(a) * cross_projection_volume_sq(a))


def _fraction_sqrt(f: Fraction) -> Fraction:
    num, den = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if num * num != f.numerator or den * den != f.denominator:
        raise ValueError(f"{f} is not the square of a rational")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# l_p balls and their central sections


def lp_norm(x: np.ndarray, p: float) -> np.ndarray:
    return np.sum(np.abs(x) ** p, axis=-1) ** (1.0 / p)


def lp_ball_volume(p: float, n: int) -> float:
    """2^n Gamma(1 + 1/p)^n / Gamma(1 + n/p)."""
    return math.exp(n * math.log(2.0) + n * math.lgamma(1.0 + 1.0 / p)
                    - math.lgamma(1.0 + n / p))


def orthonormal_complement(u: np.ndarray) -> np.ndarray:
    """(n, n-1) matrix whose columns are an orthonormal basis of u^perp."""
    u = np.asarray(u, dtype=float)
    q, _ = np.linalg.qr(np.column_stack([u, np.eye(len(u))]))
    return q[:, 1 : len(u)]


def lp_section_volume(p: float, u, nodes: int = 1 << 16) -> float:
    """vol_{n-1}(B_p^n ∩ u^perp) for n = 3 or 4 by quadrature of the radial
    function 1/||w||_p over the unit sphere of u^perp.

    n = 3: area = 1/2 ∮ ||w(t)||_p^-2 dt (trapezoid, periodic).
    n = 4: vol = 1/3 ∫_{S^2} ||w||_p^-3 (Gauss-Legendre in the height,
    trapezoid in the azimuth).
    """
    basis = orthonormal_complement(u)
    dim = basis.shape[1]
    if dim == 2:
        t = 2.0 * np.pi * np.arange(nodes) / nodes
        w = np.cos(t)[:, None] * basis[:, 0] + np.sin(t)[:, None] * basis[:, 1]
        return float(0.5 * np.mean(lp_norm(w, p) ** -2.0) * 2.0 * np.pi)
    if dim == 3:
        n_z, n_phi = 256, 512
        z, wz = np.polynomial.legendre.leggauss(n_z)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        s = np.sqrt(1.0 - z * z)
        xi = np.stack([s[:, None] * np.cos(phi)[None, :],
                       s[:, None] * np.sin(phi)[None, :],
                       np.broadcast_to(z[:, None], (n_z, n_phi))], axis=-1)
        w = xi @ basis.T
        inner = np.mean(lp_norm(w, p) ** -3.0, axis=1) * 2.0 * np.pi
        return float(np.sum(wz * inner) / 3.0)
    raise ValueError("sections of l_p balls are integrated for n = 3, 4 only")


def lp_section_polar_area(p: float, u, nodes: int = 1 << 16) -> float:
    """Area of the polar of the planar section B_p^3 ∩ u^perp.

    The polar's support function is h(t) = ||w(t)||_p on the unit circle of
    u^perp, and a planar convex body has area 1/2 ∮ (h^2 - h'^2) dt.
    """
    basis = orthonormal_complement(u)
    if basis.shape[1] != 2:
        raise ValueError("polar areas are integrated for n = 3 only")
    t = 2.0 * np.pi * np.arange(nodes) / nodes
    w = np.cos(t)[:, None] * basis[:, 0] + np.sin(t)[:, None] * basis[:, 1]
    dw = -np.sin(t)[:, None] * basis[:, 0] + np.cos(t)[:, None] * basis[:, 1]
    h = lp_norm(w, p)
    grad = np.sign(w) * np.abs(w) ** (p - 1.0) / h[:, None] ** (p - 1.0)
    dh = np.sum(grad * dw, axis=-1)
    return float(0.5 * np.mean(h * h - dh * dh) * 2.0 * np.pi)


# ---------------------------------------------------------------------------
# circle crossings


def poisson_cdf(k: int, lam: float) -> float:
    """P(Y <= k) for Y ~ Poisson(lam)."""
    if k < 0:
        return 0.0
    term = total = math.exp(-lam)
    for i in range(1, k + 1):
        term *= lam / i
        total += term
    return min(total, 1.0)


def crofton_counts_plausible(mean_count: float, circles: int, area: float,
                             radius: float = 1.0, alpha: float = 1e-9) -> bool:
    """Whether a mean signed crossing count fits the area of Sigma^+.

    Near the linear slice almost every circle crosses Sigma^+ once and a few
    cross three times; the identity area = pi R^2 E[count] makes the number
    of triple crossings Poisson with mean circles * (area/(pi R^2) - 1) / 2.
    Rare triples make a normal interval from the sample variance too narrow
    (it is 0 when none was drawn), so both Poisson tails are tested instead.
    """
    extra = round(circles * (mean_count - 1.0))
    lam = circles * max(area / (math.pi * radius**2) - 1.0, 0.0) / 2.0
    upper = 1.0 - poisson_cdf(math.floor(extra / 2) - 1, lam)
    lower = poisson_cdf(math.ceil(extra / 2), lam)
    return upper >= alpha and lower >= alpha


# ---------------------------------------------------------------------------
# the round ball and the planar embedding


def reduced_ball_volume(N: int, radius: float = 1.0) -> float:
    """Volume of the reduction of B^{2N}(R) along a line: the ball B^{2N-2}(R),
    pi^(N-1) R^(2N-2) / (N-1)!."""
    return math.pi ** (N - 1) * radius ** (2 * N - 2) / math.factorial(N - 1)


def superellipse_area(alpha: float, n_exp: int) -> float:
    """Area of {|x|^u + |y|^v <= 1}, u = alpha n, v = beta n, 1/alpha + 1/beta = 1:
    4 Gamma(1 + 1/u) Gamma(1 + 1/v) / Gamma(1 + 1/u + 1/v)."""
    beta = alpha / (alpha - 1.0)
    u, v = alpha * n_exp, beta * n_exp
    return 4.0 * math.exp(math.lgamma(1.0 + 1.0 / u) + math.lgamma(1.0 + 1.0 / v)
                          - math.lgamma(1.0 + 1.0 / u + 1.0 / v))
