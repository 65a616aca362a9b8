"""Hopf circles, signed slices, surface integrals, and the count identity."""
import math

import numpy as np
import pytest

from mahlerlab import crofton as CR


BENCHMARK_SLICES = [CR.linear_slice(2)] + [
    CR.perturbed_slice(2, eps, g) for eps, g in ((0.05, "q2^3"), (0.04, "q1^3"),
                                                  (0.05, "q1*p2*q2"))]


def _signed_intersections(circle, slc):
    """(positive, negative, degenerate) zero counts of H along one circle."""
    pos, neg, degenerate = CR._signed_counts(np.asarray(circle, float)[None, :], slc)
    return int(pos[0]), int(neg[0]), bool(degenerate[0])


def _scan_roots(z0, slc, scan_points):
    """Reference: sign scan on a uniform grid plus 46 bisection steps per
    sign change.  Returns, per circle, the root angles and the sign of
    dH/dtheta at each; two roots inside one grid step go unseen."""
    theta = 2.0 * np.pi * np.arange(scan_points) / scan_points
    h = slc.H(CR.rotate(z0[:, None, :], theta[None, :]))
    h_next = np.roll(h, -1, axis=1)
    ci, cj = np.nonzero((h * h_next < 0) | ((h == 0) & (h_next != 0)))
    tlo = theta[cj]
    thi = tlo + 2.0 * np.pi / scan_points
    base = z0[ci]
    flo = h[ci, cj]
    for _ in range(46):
        tm = 0.5 * (tlo + thi)
        fm = slc.H(CR.rotate(base, tm))
        left = flo * fm <= 0
        thi = np.where(left, tm, thi)
        tlo = np.where(left, tlo, tm)
        flo = np.where(left, flo, fm)
    root = 0.5 * (tlo + thi)
    sign = np.sign(slc.sign_field(CR.rotate(base, root)))
    return [(root[ci == i], sign[ci == i]) for i in range(len(z0))]


def _scan_counts(z0, slc, scan_points):
    roots = _scan_roots(z0, slc, scan_points)
    return (np.array([np.sum(s > 0) for _, s in roots]),
            np.array([np.sum(s < 0) for _, s in roots]))


def _tangent_circle(eps, theta0):
    """A base point whose circle meets {p1 + eps q2^3 = 0} tangentially at
    theta0: with z = (0, sin phi, A, cos phi), h(theta) = A sin(theta) +
    eps cos^3(theta + phi), and h = h' = 0 at theta0 when
    tan(theta0) tan(theta0 + phi) = -1/3 and A sin(theta0) =
    -eps cos^3(theta0 + phi)."""
    c = -math.atan(1.0 / (3.0 * math.tan(theta0)))
    phi = c - theta0
    A = -eps * math.cos(c) ** 3 / math.sin(theta0)
    return np.array([0.0, math.sin(phi), A, math.cos(phi)])


def test_sample_norms_and_determinism():
    z = CR.sample_hopf_circles(3, 2.0, 1000, seed=5)
    assert np.allclose(np.linalg.norm(z, axis=1), 2.0, atol=1e-12)
    z2 = CR.sample_hopf_circles(3, 2.0, 1000, seed=5)
    assert np.array_equal(z, z2)


def test_circle_stream_blocks_are_keyed_by_seed_and_block():
    B = CR.CIRCLE_BLOCK
    two = CR.sample_hopf_circles(2, 1.0, 2 * B, seed=0)
    # a longer draw extends a shorter one
    assert np.array_equal(two[:B], CR.sample_hopf_circles(2, 1.0, B, seed=0))
    assert np.array_equal(two[:100], CR.sample_hopf_circles(2, 1.0, 100, seed=0))
    # block 1 of seed 0 is not block 0 of seed 7919 (the old seed + 7919 * b
    # rule made them equal)
    assert not np.array_equal(two[B:], CR.sample_hopf_circles(2, 1.0, B, seed=7919))


def test_crofton_check_same_seed_same_report():
    slc = CR.perturbed_slice(2, 0.05, "q2^3")
    a = CR.crofton_check(slc, samples=CR.CIRCLE_BLOCK + 500, seed=11)
    b = CR.crofton_check(slc, samples=CR.CIRCLE_BLOCK + 500, seed=11)
    assert a == b


def test_sample_first_coordinate_moment():
    # |z_1|^2 / R^2 over the uniform sphere has mean 1/N (Dirichlet weights)
    N, R, n = 3, 1.5, 10**5
    z = CR.sample_hopf_circles(N, R, n, seed=1)
    w = (z[:, 0] ** 2 + z[:, N] ** 2) / R**2
    se = w.std() / math.sqrt(n)
    assert abs(w.mean() - 1.0 / N) <= 3 * se


def test_odd_polynomial_parse_and_grad():
    g = CR.parse_odd_polynomial("0.3*q1*p2^2 - q2^3", 2)
    z = np.array([0.2, 0.5, -0.4, 0.7])  # (p1, p2, q1, q2)
    q1, p2, q2 = z[2], z[1], z[3]
    assert math.isclose(float(g(z)), 0.3 * q1 * p2**2 - q2**3, rel_tol=1e-12)
    h = 1e-7
    grad = g.grad(z)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd = (float(g(z + e)) - float(g(z - e))) / (2 * h)
        assert abs(fd - grad[i]) < 1e-6


def test_odd_polynomial_rejects_even_terms():
    with pytest.raises(CR.CroftonError):
        CR.parse_odd_polynomial("q1^2", 2)
    with pytest.raises(CR.CroftonError):
        CR.perturbed_slice(2, 0.1, "p1")  # g must not involve p_1


def test_linear_slice_signed_intersections_generic():
    lin = CR.linear_slice(2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.normal(size=4)
        z /= np.linalg.norm(z)
        assert _signed_intersections(z, lin) == (1, 1, False)


def test_degenerate_circle_flagged():
    # H == 0 along the circle: p1 and q1 vanish, and g involves only q1
    for slc in (CR.linear_slice(2), CR.perturbed_slice(2, 0.05, "q1^3")):
        assert _signed_intersections(np.array([0.0, 0.6, 0.0, 0.8]), slc)[2]


def test_tangent_circle_flagged():
    slc = CR.perturbed_slice(2, 0.05, "q2^3")
    for theta0 in (math.pi / 4, 0.8, 2.0):
        assert _signed_intersections(_tangent_circle(0.05, theta0), slc)[2]


def test_close_roots_resolved_where_the_scan_missed_them():
    slc = CR.perturbed_slice(2, 0.05, "q2^3")
    # move off the tangency so the double root splits into two real roots
    # about 4e-3 apart, inside one step of a 512-point grid
    theta0 = math.pi / 4 + math.pi / 1024
    z = _tangent_circle(0.05, theta0)
    z[2] *= 1.0 - 3e-6
    (roots, signs), = _scan_roots(z[None, :], slc, 1 << 16)
    gaps = np.diff(np.sort(roots))
    assert len(roots) == 6 and 1e-3 < gaps.min() < 2 * np.pi / 512
    assert np.sum(signs > 0) == 3
    pos, neg = _scan_counts(z[None, :], slc, 512)
    assert (pos[0], neg[0]) == (1, 1)  # the old 512-point scan saw one pair
    assert _signed_intersections(z, slc) == (3, 3, False)


@pytest.mark.parametrize("slc", BENCHMARK_SLICES, ids=["linear", "q2^3", "q1^3", "q1p2q2"])
def test_counts_match_reference_scan(slc):
    rng = np.random.default_rng(17)
    z = rng.normal(size=(1200, 4))
    z[600:, [0, 2]] *= 0.03  # small |z_1|: circles with extra crossings
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    pos, neg, degen = CR._signed_counts(z, slc)
    step = 2.0 * np.pi / 4096
    compared = 0
    for lo in range(0, len(z), 200):
        for i, (roots, signs) in enumerate(_scan_roots(z[lo:lo + 200], slc, 4096), lo):
            gaps = np.diff(np.sort(np.concatenate([roots, roots[:1] + 2 * np.pi])))
            if degen[i] or (len(roots) and gaps.min() < 2 * step):
                continue  # the scan cannot resolve this circle
            compared += 1
            assert (pos[i], neg[i]) == (np.sum(signs > 0), np.sum(signs < 0)), i
    assert compared >= 1150
    assert np.all(pos[~degen] >= 1) and np.array_equal(pos[~degen], neg[~degen])


def test_perturbed_counts_at_least_one_positive():
    slc = CR.perturbed_slice(2, 0.1, "q2^3")
    z = CR.sample_hopf_circles(2, 1.0, 10**4, seed=2)
    pos, neg, degen = CR._signed_counts(z, slc)
    ok = ~degen
    assert np.all(pos[ok] >= 1)
    assert np.array_equal(pos[ok], neg[ok])  # odd H pairs roots antipodally


def test_count_invariance_under_antipodal_base():
    slc = CR.perturbed_slice(2, 0.08, "q1^3 - p2*q2^2")
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.normal(size=4)
        z /= np.linalg.norm(z)
        assert _signed_intersections(z, slc)[:2] == _signed_intersections(-z, slc)[:2]


def _bisected_radius(slc, xi, R):
    """Reference: 60 bisection steps of rho^2 + p_1(rho xi)^2 - R^2."""
    def f(rho):
        z = np.zeros(xi.shape[:-1] + (4,))
        z[..., 2], z[..., 1], z[..., 3] = (rho[..., None] * xi).T
        return rho**2 + (slc.epsilon * slc.g(z)) ** 2 - R**2

    lo = np.zeros(xi.shape[:-1])
    hi = np.full(xi.shape[:-1], R)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = f(mid) >= 0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi), f


@pytest.mark.parametrize("slc", BENCHMARK_SLICES + [CR.perturbed_slice(2, 0.3, "q1^3 - 2*q1*p2^4 + q2^5")],
                         ids=["linear", "q2^3", "q1^3", "q1p2q2", "mixed"])
def test_newton_radius_residual_and_bisection(slc):
    xi = np.random.default_rng(4).normal(size=(2000, 3))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    for R in (1.0, 1.7):
        rho, G = CR._radius_on_slice(slc, xi, R)
        ref, f = _bisected_radius(slc, xi, R)
        assert np.max(np.abs(f(rho))) <= 1e-14 * R**2
        assert np.max(np.abs(rho - ref)) <= 1e-13
        z = CR._surface_point(slc, np.arccos(xi[:, 0]), np.arctan2(xi[:, 2], xi[:, 1]), R)
        assert np.allclose(np.sum(z**2, axis=1), R**2, rtol=0, atol=1e-14 * R**2)
        assert np.allclose(slc.H(z), 0.0, atol=1e-15)


def test_sigma_plus_area_linear_exact():
    lin = CR.linear_slice(2)
    assert abs(CR.sigma_plus_area(lin) - math.pi) < 1e-8
    assert abs(CR.sigma_plus_area(lin, R=2.0) - 4 * math.pi) < 1e-7


def test_sigma_plus_area_quad_vs_stokes_oracle():
    for eps, g in [(0.05, "q2^3"), (0.03, "q1^3"), (0.05, "q1*p2*q2")]:
        slc = CR.perturbed_slice(2, eps, g)
        a = CR.sigma_plus_area(slc)
        b = CR.sigma_plus_area_stokes(slc)
        assert abs(a - b) < 1e-7, (eps, g, a, b)
        assert a >= math.pi - 1e-3


def test_sigma_plus_area_radius_scaling():
    slc = CR.perturbed_slice(2, 0.02, "q2^3")
    a1 = CR.sigma_plus_area(slc, R=1.0)
    # the perturbation is not homogeneous, so compare only the linear part
    lin = CR.linear_slice(2)
    assert abs(CR.sigma_plus_area(lin, R=1.3) - 1.3**2 * CR.sigma_plus_area(lin)) < 1e-7
    assert a1 > 0


def test_crofton_check_linear_equality():
    rep = CR.crofton_check(CR.linear_slice(2), samples=5000, seed=4)
    assert rep["mean_count"] == 1.0
    assert abs(rep["lhs"] - rep["rhs"]) <= 1e-6 + rep["rhs_ci"]
    # no extra crossing drawn: the half-width is the exact Poisson bound
    # -ln(0.025) / n, not the zero of the sample variance
    assert math.isclose(rep["count_ci"], -math.log(0.025) / rep["samples"], rel_tol=1e-12)


def test_crofton_check_perturbed_agreement():
    slc = CR.perturbed_slice(2, 0.05, "q2^3")
    rep = CR.crofton_check(slc, samples=2 * 10**4, seed=5)
    assert abs(rep["lhs"] - rep["rhs"]) <= 3 * rep["rhs_ci"]
    assert rep["lhs"] >= math.pi - 1e-3


def test_edge_violation_raises_for_large_perturbation():
    slc = CR.perturbed_slice(2, 3.0, "q2^3 + q1^3")
    with pytest.raises(CR.CroftonError):
        CR.sigma_plus_area(slc)


def test_crofton_verdict_rules():
    lin, slc = CR.linear_slice(2), CR.perturbed_slice(2, 0.05, "q2^3")

    def rep(lhs, rhs, rhs_ci, R=1.0):
        return {"lhs": lhs, "rhs": rhs, "rhs_ci": rhs_ci, "R": R}

    # linear slice: |lhs - rhs| <= 1e-6 + rhs_ci, no area bound
    assert CR.crofton_agrees(lin, rep(math.pi, math.pi + 1.5e-6, 1e-6))
    assert not CR.crofton_agrees(lin, rep(math.pi, math.pi + 2.5e-6, 1e-6))
    assert CR.crofton_agrees(lin, rep(1.0, 1.0, 0.0))
    # perturbed slice: within 3 rhs_ci + 1e-9, and lhs >= c_2 R^2 - 1e-3
    assert CR.crofton_agrees(slc, rep(3.2, 3.2 + 2.9e-3, 1e-3))
    assert not CR.crofton_agrees(slc, rep(3.2, 3.2 + 3.1e-3, 1e-3))
    assert CR.crofton_agrees(slc, rep(math.pi, math.pi + 0.9e-9, 0.0))
    assert not CR.crofton_agrees(slc, rep(math.pi, math.pi + 1.1e-9, 0.0))
    assert not CR.crofton_agrees(slc, rep(math.pi - 2e-3, math.pi - 2e-3, 0.1))
    # the area bound scales with the radius: pi R^2 at R = 1/2
    assert CR.crofton_agrees(slc, rep(math.pi / 4, math.pi / 4, 0.0, R=0.5))
    assert not CR.crofton_agrees(slc, rep(math.pi / 4 - 2e-3, math.pi / 4 - 2e-3, 0.0, R=0.5))
