"""Profile construction, the planar map, and containment certificates."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from mahlerlab import embedding as E


def _closed_form_unit_area(alpha, n_exp):
    """Gamma-function area of {|x|^u + |y|^v <= 1}, u = alpha n, v = beta n."""
    beta = alpha / (alpha - 1.0)
    u = alpha * n_exp
    v = beta * n_exp
    return 4.0 * math.exp(
        math.lgamma(1.0 + 1.0 / u)
        + math.lgamma(1.0 + 1.0 / v)
        - math.lgamma(1.0 + 1.0 / u + 1.0 / v)
    )


def _level_value(profile, q, p):
    """G(q, p) = c_n (|q|^u + |p|^v)^(1/n_exp)."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    return profile.c_n * (np.abs(q) ** profile.u + np.abs(p) ** profile.v) ** (
        1.0 / profile.n_exp
    )


def _planar_map_inverse(profile, q, p, iters=60):
    """Inverse of the planar map from the profile's tables: bisection on the
    curve angle within the quadrant, which is monotone in the flux
    parameter."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    A = _level_value(profile, q, p)
    r = np.sqrt(A / math.pi)
    sq = profile.sigma_quarter
    ratio = A / profile.c_n
    with np.errstate(divide="ignore", invalid="ignore"):
        X = np.where(A > 0, np.abs(q) / ratio ** (1.0 / profile.alpha), 0.0)
        Y = np.where(A > 0, np.abs(p) / ratio ** (1.0 / profile.beta), 0.0)
    target = np.arctan2(Y, X)
    lo = np.zeros_like(X)
    hi = np.full_like(X, sq)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        ang = np.arctan2(profile._y_of_sigma(mid), profile._x_of_sigma(mid))
        take = ang < target  # angle increases along the quarter
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    frac = 0.5 * (lo + hi) / sq
    qpos = q >= 0
    ppos = p >= 0
    quadrant = np.where(qpos & ppos, 0,
                        np.where(~qpos & ppos, 1, np.where(~qpos & ~ppos, 2, 3)))
    frac = np.where((quadrant == 1) | (quadrant == 3), 1.0 - frac, frac)
    theta = 2.0 * np.pi * (quadrant + frac) / 4.0
    return r * np.exp(1j * theta)


def test_normalization_constant_matches_gamma_oracle():
    for alpha, n in [(2.0, 1), (2.0, 8), (1.5, 8), (3.0, 4)]:
        prof = E.build_profile(alpha, n)
        assert math.isclose(prof.c_n, _closed_form_unit_area(alpha, n),
                            rel_tol=1e-8), (alpha, n)


def test_smooth_case_is_pi_r_squared():
    prof = E.build_profile(2.0, 1)
    assert math.isclose(prof.c_n, math.pi, rel_tol=1e-10)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 2))
    vals = _level_value(prof, pts[:, 0], pts[:, 1])
    expect = math.pi * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
    assert np.allclose(vals, expect, rtol=1e-10)
    z = rng.normal(size=30) + 1j * rng.normal(size=30)
    q, p = E.planar_map(prof, z)
    assert np.allclose(q, z.real, atol=1e-11)
    assert np.allclose(p, z.imag, atol=1e-11)


def test_levels_converge_to_four_times_max():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1.2, 1.2, size=(40, 2))
    prof = E.build_profile(2.0, 64)
    target = 4.0 * np.maximum(np.abs(pts[:, 0]) ** 2, np.abs(pts[:, 1]) ** 2)
    vals = _level_value(prof, pts[:, 0], pts[:, 1])
    assert np.max(np.abs(vals - target)) < 0.11  # pointwise, slow convergence


def test_area_normalization():
    prof = E.build_profile(1.5, 8)
    for A in (0.5, 1.0, 2.0):
        meas = E.measured_sublevel_area(prof, A)
        assert abs(meas - A) / A < 1e-6
    # (A/c_n)^n_exp underflows here; the quadrature scales in log space
    prof = E.build_profile(2.0, 1024)
    assert max(abs(meas - A) / A for A, meas in prof.area_table) < 1e-9


def test_level_matching_and_center():
    prof = E.build_profile(2.0, 8)
    q, p = E.planar_map(prof, np.array([0.0 + 0.0j]))
    assert q[0] == 0.0 and p[0] == 0.0
    for r in (0.3, 0.8, 1.1):
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        z = r * np.exp(1j * th)
        q, p = E.planar_map(prof, z)
        lev = _level_value(prof, q, p)
        assert np.max(np.abs(lev - math.pi * r**2)) < 1e-8


def test_oddness():
    for alpha in (2.0, 1.5):
        prof = E.build_profile(alpha, 8)
        assert E.oddness_check(prof) <= 1e-10


def test_jacobian_grid():
    for alpha in (2.0, 1.5):
        prof = E.build_profile(alpha, 8)
        rep = E.jacobian_grid_check(prof)
        assert rep["max_abs_det_minus_1"] <= 1e-3, (alpha, rep)


def _grid_eps(profile, radial=64, angular=512):
    """Measured rectangle defect: the largest excess of |q|^alpha and
    |p|^beta over pi |z|^2 / 4 on a polar grid up to |z| = R_MAX."""
    r = np.linspace(0.0, E.R_MAX, radial + 1)[1:]
    th = 2.0 * np.pi * np.arange(angular) / angular
    Z = r[:, None] * np.exp(1j * th[None, :])
    q, p = E.planar_map(profile, Z)
    target = math.pi * np.abs(Z) ** 2 / 4.0
    excess_q = np.abs(q) ** profile.alpha - target
    excess_p = np.abs(p) ** profile.beta - target
    return float(max(excess_q.max(), excess_p.max(), 0.0))


def test_eps_rect_values():
    prof8 = E.build_profile(2.0, 8)
    r_max = E.R_MAX
    assert r_max == math.sqrt(4 / math.pi)
    eps8 = _grid_eps(prof8)
    assert eps8 <= 0.05
    # analytic value: the worst excess on a level curve of area a is
    # a (1/c - 1/4), maximized at a = pi r_max^2
    analytic = math.pi * r_max**2 * (1.0 / prof8.c_n - 0.25)
    assert math.isclose(eps8, analytic, rel_tol=1e-6)
    eps16 = _grid_eps(E.build_profile(2.0, 16))
    assert eps16 <= eps8
    # in the max-profile limit c -> 4 the defect vanishes
    assert math.pi * r_max**2 * (1.0 / 4.0 - 0.25) == 0.0


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n_exp", [1, 2, 8, 16, 64])
def test_closed_form_eps_matches_grid_scan(alpha, n_exp):
    prof = E.build_profile(alpha, n_exp)
    assert math.isclose(E.eps_rect_check(prof), _grid_eps(prof), rel_tol=1e-8)


@pytest.mark.parametrize("alpha, n_exp", [(1.5, 8), (2.0, 64), (3.0, 1024)])
def test_flux_knots_match_quadrature_of_the_flux_form(alpha, n_exp):
    """The flux of (1/u) x dy - (1/v) y dx along the unit curve, by adaptive
    quadrature on each graph branch, against the incomplete beta knots and
    the Gamma-function quarter c_n / (4 n_exp)."""
    prof = E.build_profile(alpha, n_exp)
    u, v = prof.u, prof.v

    def flux_from_x_axis(y):
        return quad(lambda r: (1 - r**v) ** (1 / u - 1), 0, y, epsabs=0,
                    epsrel=1e-13, limit=200)[0] / u

    def flux_to_y_axis(x):
        return quad(lambda r: (1 - r**u) ** (1 / v - 1), 0, x, epsabs=0,
                    epsrel=1e-13, limit=200)[0] / v

    quarter = flux_from_x_axis(0.5 ** (1 / v)) + flux_to_y_axis(0.5 ** (1 / u))
    assert math.isclose(prof.sigma_quarter, quarter, rel_tol=1e-13)
    for i in np.linspace(0, prof.sigma_knots.size - 1, 41).astype(int):
        x, y = prof.x_knots[i], prof.y_knots[i]
        want = flux_from_x_axis(y) if y**v <= 0.5 else quarter - flux_to_y_axis(x)
        assert abs(prof.sigma_knots[i] - want) <= 1e-13 * quarter, (i, x, y)


def test_large_smoothing_exponents():
    # y^v underflows on most knots of branch A at these exponents
    prof = E.build_profile(1.5, 256)
    assert math.isclose(prof.c_n, _closed_form_unit_area(1.5, 256), rel_tol=1e-12)
    prof = E.build_profile(2.0, 1024)
    assert prof.c_n < 4.0
    assert E.eps_rect_check(prof) == 4.0 / prof.c_n - 1.0
    assert E.eps_rect_check(prof) == pytest.approx(3.919e-7, rel=1e-3)


def test_profile_hessian_psd_away_from_axes():
    prof = E.build_profile(1.5, 8)
    rng = np.random.default_rng(7)
    h = 1e-4
    checked = 0
    while checked < 50:
        q, p = rng.uniform(-1.0, 1.0, size=2)
        if min(abs(q), abs(p)) < 5e-2:
            continue
        f = lambda a, b: float(_level_value(prof, a, b))
        fqq = (f(q + h, p) - 2 * f(q, p) + f(q - h, p)) / h**2
        fpp = (f(q, p + h) - 2 * f(q, p) + f(q, p - h)) / h**2
        fqp = (f(q + h, p + h) - f(q + h, p - h) - f(q - h, p + h)
               + f(q - h, p - h)) / (4 * h**2)
        tr = fqq + fpp
        det = fqq * fpp - fqp**2
        assert tr >= -1e-4 and det >= -1e-4, (q, p, tr, det)
        checked += 1


def test_sum_of_profiles_midpoint_convexity():
    prof = E.build_profile(1.5, 8)
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, size=(200, 4))
    Y = rng.uniform(-1, 1, size=(200, 4))

    def F(P):
        return _level_value(prof, P[:, 0], P[:, 1]) + _level_value(prof, P[:, 2], P[:, 3])

    mid = F((X + Y) / 2)
    assert np.all(mid <= (F(X) + F(Y)) / 2 + 1e-12)


def test_product_embedding_contained():
    rep = E.product_embedding_check(2.0, 2, 8, samples=20000, seed=0)
    assert rep["contained_fraction"] == 1.0
    assert rep["radius"] == pytest.approx(
        math.sqrt((4 / math.pi) * (1 - 2 * rep["eps"])))


def test_product_embedding_violation_reported():
    rep = E.product_embedding_check(2.0, 2, 8, samples=5000, seed=0,
                                    r_factor=1.25)
    assert rep["contained_fraction"] < 1.0
    assert rep["worst_excess"] > 0
    assert rep["worst_point"] is not None


@pytest.mark.parametrize("alpha, n_exp", [(2.0, 64), (2.0, 8), (1.5, 64)])
def test_product_embedding_refuses_a_profile_for_other_arguments(alpha, n_exp):
    prof = E.build_profile(1.5, 8)
    with pytest.raises(E.EmbeddingError, match="profile is for alpha=1.5, n_exp=8"):
        E.product_embedding_check(alpha, 2, n_exp, samples=10, profile=prof)
    # the profile for the same arguments, given as int or float, is taken
    rep = E.product_embedding_check(3 / 2, 2, 8.0, samples=10, profile=prof)
    assert (rep["alpha"], rep["n_exp"], rep["eps"]) == (1.5, 8.0, E.eps_rect_check(prof))


def test_inverse_map_roundtrip():
    prof = E.build_profile(1.5, 8)
    rng = np.random.default_rng(3)
    z = rng.normal(size=200) * 0.5 + 1j * rng.normal(size=200) * 0.5
    q, p = E.planar_map(prof, z)
    z2 = _planar_map_inverse(prof, q, p)
    assert np.max(np.abs(z2 - z)) < 1e-6


def test_build_profile_validation():
    with pytest.raises(E.EmbeddingError):
        E.build_profile(1.0, 8)
    with pytest.raises(E.EmbeddingError):
        E.build_profile(2.0, 0)


def test_embedding_stream_is_keyed_by_block(monkeypatch):
    drawn = []
    sample_ball = E.sample_ball

    def spy(dim, radius, count, rng):
        drawn.append(sample_ball(dim, radius, count, rng))
        return drawn[-1]

    monkeypatch.setattr(E, "sample_ball", spy)
    monkeypatch.setattr(E, "CHECK_BLOCK", 1000)
    prof = E.build_profile(2.0, 8)
    one = E.product_embedding_check(2.0, 2, 8, samples=1000, seed=3, profile=prof,
                                    r_factor=1.2)
    first = drawn[0]
    drawn.clear()
    longer = E.product_embedding_check(2.0, 2, 8, samples=2500, seed=3, profile=prof,
                                       r_factor=1.2)
    # a one-block run is the first block of a longer run
    assert [len(x) for x in drawn] == [1000, 1000, 500]
    assert np.array_equal(drawn[0], first)
    assert not np.array_equal(drawn[1], first)
    assert longer["worst_excess"] >= one["worst_excess"]
    # deterministic in the seed
    drawn.clear()
    assert E.product_embedding_check(2.0, 2, 8, samples=2500, seed=3, profile=prof,
                                     r_factor=1.2) == longer
    E.product_embedding_check(2.0, 2, 8, samples=1000, seed=4, profile=prof)
    assert not np.array_equal(drawn[-1], first)


def test_oddness_check_is_deterministic():
    prof = E.build_profile(1.5, 8)
    assert E.oddness_check(prof) == E.oddness_check(prof) <= E.ODDNESS_TOL
