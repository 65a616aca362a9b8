"""Planar area-preserving maps onto superellipse level sets and the product
ball containment check.

The profile function is G(q, p) = c * (|q|^u + |p|^v)^(1/n_exp) with
u = alpha * n_exp, v = beta * n_exp, 1/alpha + 1/beta = 1, and c chosen so
that area{G <= A} = A for every A (homogeneity makes one normalization
suffice).  The planar map sends the circle of enclosed area a onto the level
curve {G = a}; angles are matched through the cumulative area flux of the
level-scaling flow, the 1-form (1/u) x dy - (1/v) y dx along the curve.
Equal flux fractions are what make the map area preserving: for u = v this
form is proportional to the swept sector area, but for alpha != 2 the level
family scales anisotropically and plain sector-area matching distorts areas
by up to a factor max(u, v)/min(u, v).  Both totals are closed forms: the
unit curve's area is c = 4 Gamma(1+1/u) Gamma(1+1/v) / Gamma(1+1/u+1/v), and
by Green's identity the flux around it is c/n_exp.  The flux along the curve
is an incomplete beta function; the map inverts it by monotone interpolation
of a knot table, and an adaptive quadrature of sublevel areas checks the
normalization independently.

Applying the map to every complex coordinate z_j = q_j + i p_j sends the
round ball B^{2N}(R) into the product of an l_alpha and an l_beta ball once
R^2 <= (4/pi)(1 - N eps), where eps = 4/c - 1 is the rectangle defect of the
level curves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from . import sampling


# Segments of the unit curve's knot table and sublevel areas A in [0.5, 4.5]
# checked against an independent quadrature when a profile is built
SEGMENTS = 4096
AREA_LEVELS = 9
# below this x^u (or y^v) the incomplete beta function takes its leading term
SMALL_POWER = 1e-12
# The certificates hold on the disc |z| <= R_MAX, the largest radius the
# embedding can certify: R^2 <= (4/pi)(1 - N eps)
R_MAX = math.sqrt(4.0 / math.pi)
# polar grid of the Jacobian certificate, which leaves out an AXIS_MARGIN
# neighbourhood of the axes and differentiates with step JACOBIAN_STEP
JACOBIAN_RADIAL = 24
JACOBIAN_ANGULAR = 96
AXIS_MARGIN = 1e-3
JACOBIAN_STEP = 1e-4
# points of the oddness certificate, one block of seed 0
ODDNESS_POINTS = 4096
# largest |det Df - 1| and |f(z) + f(-z)| a certified map may show
JACOBIAN_TOL = 1e-3
ODDNESS_TOL = 1e-10
# largest relative error of a certified profile's measured sublevel areas
AREA_TOL = 1e-6
# containment tolerance and points per block of the product check
CONTAIN_TOL = 1e-9
CHECK_BLOCK = 1 << 16


class EmbeddingError(ValueError):
    pass


@dataclass
class EmbeddingProfile:
    alpha: float
    beta: float
    n_exp: int
    u: float
    v: float
    c_n: float                     # normalization constant = unit-curve area
    sigma_quarter: float           # sector area of one quarter of the unit curve
    sigma_knots: np.ndarray        # cumulative sector area along the quarter
    x_knots: np.ndarray
    y_knots: np.ndarray
    area_table: np.ndarray         # rows (A, measured sublevel area)
    _x_of_sigma: PchipInterpolator = field(init=False, repr=False)
    _y_of_sigma: PchipInterpolator = field(init=False, repr=False)

    def __post_init__(self):
        self._x_of_sigma = PchipInterpolator(self.sigma_knots, self.x_knots)
        self._y_of_sigma = PchipInterpolator(self.sigma_knots, self.y_knots)


# ---------------------------------------------------------------------------
# profile construction


def build_profile(alpha: float, n_exp: int) -> EmbeddingProfile:
    """Tabulate the unit superellipse |x|^u + |y|^v = 1 on two graph branches
    split where x^u = y^v = 1/2, with each knot's flux fraction in closed
    form: the flux from (1, 0) to the point with x^u = t is the fraction
    1 - I_t(1/u, 1/v) of a quarter, I the regularized incomplete beta
    function (DLMF 8.17)."""
    alpha = float(alpha)
    # from about 2^53 the conjugate alpha / (alpha - 1) rounds to 1, the l_1 limit
    if not (1.0 < alpha < math.inf and alpha / (alpha - 1.0) > 1.0):
        raise EmbeddingError("alpha must be finite and exceed 1, and its conjugate "
                             "alpha / (alpha - 1) must exceed 1 in floats")
    n_exp = int(n_exp)
    if n_exp < 1:
        raise EmbeddingError("n_exp must be a positive integer")
    beta = alpha / (alpha - 1.0)
    u = alpha * n_exp
    v = beta * n_exp
    half = SEGMENTS // 2
    # area of the unit curve, which normalizes the levels; by Green's identity
    # the flux of (1/u) x dy - (1/v) y dx around it is c_n / n_exp
    c_n = 4.0 * math.exp(math.lgamma(1.0 + 1.0 / u) + math.lgamma(1.0 + 1.0 / v)
                         - math.lgamma(1.0 + 1.0 / u + 1.0 / v))
    sigma_quarter = c_n / (4.0 * n_exp)

    # branch A: from (1, 0) up to the split point, on a y-grid
    ya = np.linspace(0.0, 0.5 ** (1.0 / v), half + 1)
    xa = (1.0 - ya**v) ** (1.0 / u)
    frac_a = _lower_beta(ya, v, u)
    # branch B: from the split point to (0, 1), on an x-grid run backwards
    xb = np.linspace(0.0, 0.5 ** (1.0 / u), half + 1)[::-1][1:]
    yb = (1.0 - xb**u) ** (1.0 / v)
    frac_b = 1.0 - _lower_beta(xb, u, v)

    sigma = sigma_quarter * np.concatenate([frac_a, frac_b])
    xs = np.concatenate([xa, xb])
    ys = np.concatenate([ya, yb])
    keep = np.concatenate([[True], np.diff(sigma) > 0])
    profile = EmbeddingProfile(
        alpha=alpha, beta=beta, n_exp=n_exp, u=u, v=v, c_n=c_n,
        sigma_quarter=sigma_quarter, sigma_knots=sigma[keep], x_knots=xs[keep],
        y_knots=ys[keep], area_table=np.zeros((0, 2)),
    )
    levels = np.linspace(0.5, 4.5, AREA_LEVELS)
    table = np.array([[A, measured_sublevel_area(profile, A)] for A in levels])
    profile.area_table = table
    return profile


def _lower_beta(s, p, r):
    """I_{s^p}(1/p, 1/r).  Where s^p falls below SMALL_POWER (it underflows
    at large n_exp) the leading term s / ((1/p) B(1/p, 1/r)) stands in, with
    relative error of order s^p."""
    t = s**p
    lead = s * p / special.beta(1.0 / p, 1.0 / r)
    return np.where(t < SMALL_POWER, lead, special.betainc(1.0 / p, 1.0 / r, t))


def measured_sublevel_area(profile: EmbeddingProfile, A: float) -> float:
    """Independent quadrature of area{G <= A}: the adaptive 1-d integral of
    the unit quarter {x^u + y^v <= 1}, scaled by s^(1/u + 1/v) for the level
    s = (A/c_n)^n_exp.  The scale is taken in log space, since s itself
    underflows at large n_exp."""
    if A <= 0:
        return 0.0
    u, v = profile.u, profile.v
    val, _ = quad(lambda t: (1.0 - t**u) ** (1.0 / v), 0.0, 1.0,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    return 4.0 * val * math.exp(profile.n_exp * math.log(A / profile.c_n) * (1.0 / u + 1.0 / v))


# ---------------------------------------------------------------------------
# the planar map


def planar_map(profile: EmbeddingProfile, z) -> tuple[np.ndarray, np.ndarray]:
    """f(z) for complex z (q + i p): the circle of enclosed area pi |z|^2 is
    carried onto the level curve {G = pi |z|^2} at equal swept-area angle.

    Returns (q, p) arrays of the same shape as z.
    """
    z = np.asarray(z, dtype=complex)
    qz = np.real(z)
    pz = np.imag(z)
    a = math.pi * (qz**2 + pz**2)
    theta = np.mod(np.arctan2(pz, qz), 2.0 * np.pi)
    tau = theta / (2.0 * np.pi)
    quadrant = np.minimum((tau * 4.0).astype(int), 3)
    frac = tau * 4.0 - quadrant
    sq = profile.sigma_quarter
    mirrored = (quadrant == 1) | (quadrant == 3)
    sigma_loc = np.where(mirrored, (1.0 - frac) * sq, frac * sq)
    X = profile._x_of_sigma(sigma_loc)
    Y = profile._y_of_sigma(sigma_loc)
    sign_x = np.where((quadrant == 1) | (quadrant == 2), -1.0, 1.0)
    sign_y = np.where(quadrant >= 2, -1.0, 1.0)
    ratio = a / profile.c_n
    scale_q = ratio ** (1.0 / profile.alpha)
    scale_p = ratio ** (1.0 / profile.beta)
    q = sign_x * X * scale_q
    p = sign_y * Y * scale_p
    return q, p


# ---------------------------------------------------------------------------
# certificates


def eps_rect_check(profile: EmbeddingProfile) -> float:
    """Smallest eps with |q(z)|^alpha <= pi |z|^2 / 4 + eps and the same for
    |p(z)|^beta up to |z| = R_MAX.  Since |q|^alpha = (pi |z|^2 / c_n) X^alpha
    with X <= 1 (PCHIP keeps the monotone knots' range), the excess is
    largest on the axes at R_MAX, where it is 4/c_n - 1."""
    return 4.0 / profile.c_n - 1.0


def jacobian_grid_check(profile: EmbeddingProfile) -> dict:
    """max |det Df - 1| on a polar grid up to |z| = R_MAX, excluding an
    ``AXIS_MARGIN`` neighborhood of the axes (finite-difference Jacobian)."""
    h = JACOBIAN_STEP
    r = np.linspace(0.15 * R_MAX, R_MAX, JACOBIAN_RADIAL)
    th = 2.0 * np.pi * np.arange(JACOBIAN_ANGULAR) / JACOBIAN_ANGULAR
    Z = (r[:, None] * np.exp(1j * th[None, :])).ravel()
    keep = (np.abs(np.real(Z)) > AXIS_MARGIN + 2 * h) & (
        np.abs(np.imag(Z)) > AXIS_MARGIN + 2 * h
    )
    Z = Z[keep]

    def F(zz):
        q, p = planar_map(profile, zz)
        return q, p

    q_xp, p_xp = F(Z + h)
    q_xm, p_xm = F(Z - h)
    q_yp, p_yp = F(Z + 1j * h)
    q_ym, p_ym = F(Z - 1j * h)
    dqdx = (q_xp - q_xm) / (2 * h)
    dpdx = (p_xp - p_xm) / (2 * h)
    dqdy = (q_yp - q_ym) / (2 * h)
    dpdy = (p_yp - p_ym) / (2 * h)
    det = dqdx * dpdy - dqdy * dpdx
    return {
        "max_abs_det_minus_1": float(np.max(np.abs(det - 1.0))),
        "points": int(Z.size),
    }


def oddness_check(profile: EmbeddingProfile) -> float:
    rng = sampling.block_rng(0, 0, 0)
    z = rng.normal(size=ODDNESS_POINTS) + 1j * rng.normal(size=ODDNESS_POINTS)
    q1, p1 = planar_map(profile, z)
    q2, p2 = planar_map(profile, -z)
    return float(max(np.max(np.abs(q1 + q2)), np.max(np.abs(p1 + p2))))


def area_rel_err(profile: EmbeddingProfile) -> float:
    """Largest relative error of the profile's measured sublevel areas."""
    return max(abs(meas - A) / A for A, meas in profile.area_table)


def embedding_certified(rep: dict, radius_factor: float = 1.0) -> bool:
    """A report's verdict: every sampled point contained (not required once
    the radius is scaled past the certified one, radius_factor > 1), and the
    area normalization, oddness and Jacobian certificates within AREA_TOL,
    ODDNESS_TOL and JACOBIAN_TOL."""
    return bool((rep["contained_fraction"] == 1.0 or radius_factor > 1.0)
                and rep["area_rel_err"] <= AREA_TOL
                and rep["oddness"] <= ODDNESS_TOL
                and rep["jacobian_dev"] <= JACOBIAN_TOL)


def sample_ball(dim: int, radius: float, count: int, rng: np.random.Generator):
    x = rng.normal(size=(count, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / dim)
    return x * r[:, None]


def product_embedding_check(alpha: float, copies: int, n_exp: int,
                            samples: int = 10**6, seed: int = 0,
                            profile: EmbeddingProfile | None = None,
                            r_factor: float = 1.0) -> dict:
    """Map sampled points of B^{2N}(R) coordinate-pair-wise and test
    containment in the l_alpha x l_beta product.

    R = r_factor * sqrt((4/pi)(1 - N eps)) with eps = eps_rect_check(profile);
    at r_factor <= 1 the containment fraction must be 1.0.  Block b of
    CHECK_BLOCK points is ``sampling.block_rng(seed, 0, b)``'s draw.  A
    given ``profile`` must be the one built for (alpha, n_exp).
    """
    N = int(copies)
    if N < 1 or samples < 1:
        raise EmbeddingError("copies and samples must be >= 1")
    if profile is None:
        profile = build_profile(alpha, n_exp)
    elif (profile.alpha, profile.n_exp) != (float(alpha), int(n_exp)):
        raise EmbeddingError(
            f"profile is for alpha={profile.alpha}, n_exp={profile.n_exp}, "
            f"not alpha={alpha}, n_exp={n_exp}")
    beta = profile.beta
    eps = eps_rect_check(profile)
    inner = (4.0 / math.pi) * (1.0 - N * eps)
    if inner <= 0:
        raise EmbeddingError("eps too large: no certified radius")
    radius = r_factor * math.sqrt(inner)
    if not 0 < radius < math.inf:
        raise EmbeddingError(f"radius must be finite and positive, got {radius}")
    contained = 0
    worst = {"excess": -math.inf, "point": None}
    for rng, m in sampling.blocks(seed, 0, samples, CHECK_BLOCK):
        x = sample_ball(2 * N, radius, m, rng)
        sum_q = np.zeros(m)
        sum_p = np.zeros(m)
        for j in range(N):
            zj = x[:, N + j] + 1j * x[:, j]  # (q_j, p_j) pair as q + i p
            qj, pj = planar_map(profile, zj)
            sum_q += np.abs(qj) ** profile.alpha
            sum_p += np.abs(pj) ** beta
        ok = (sum_q <= 1.0 + CONTAIN_TOL) & (sum_p <= 1.0 + CONTAIN_TOL)
        contained += int(np.count_nonzero(ok))
        excess = np.maximum(sum_q, sum_p) - 1.0
        k = int(np.argmax(excess))
        if excess[k] > worst["excess"]:
            worst = {"excess": float(excess[k]), "point": x[k].tolist()}
    return {
        "alpha": alpha,
        "beta": beta,
        "n_exp": n_exp,
        "copies": N,
        "eps": eps,
        "radius": radius,
        "samples": samples,
        "contained_fraction": contained / samples,
        "worst_excess": worst["excess"],
        "worst_point": worst["point"],
        "seed": seed,
    }
