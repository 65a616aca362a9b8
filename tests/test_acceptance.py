"""Acceptance battery: one test per criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

The slow criteria (4, 6) run at full scale; the whole module is sized to
finish well inside the stated budgets on a desktop machine.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mahlerlab import bodies as B
from mahlerlab import capacity as C
from mahlerlab import crofton as CR
from mahlerlab import embedding as E
from mahlerlab import symplectic as SY
from mahlerlab import volume as V
from mahlerlab.verify import (
    random_hanner_expr,
    random_rational_normal,
    suite_capacity_monotone,
    suite_sections_lp,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_cube_cross_equality_exact():
    t0 = time.time()
    for n in range(1, 7):
        for body in (B.PolytopeBody.cube(n), B.PolytopeBody.cross(n)):
            rep = V.mahler_product(body)
            assert rep.exact_ratio == 1, (n, body.tag, rep.exact_ratio)
    dt = time.time() - t0
    report(1, dt < 10.0,
           f"cube/cross n=1..6 exact ratio 1 in {dt:.1f}s (< 10 s)")


def test_criterion_2_hanner_trees_exact():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for trial in range(30):
        leaves = int(rng.integers(2, 7))
        expr = random_hanner_expr(leaves, rng)
        rep = V.mahler_product(B.hanner_body(expr))
        assert rep.exact_ratio == 1, (expr, rep.exact_ratio)
    dt = time.time() - t0
    report(2, dt < 60.0,
           f"30 random Hanner trees (<= 6 leaves) exact ratio 1 in {dt:.1f}s (< 60 s)")


def test_criterion_3_cube_sections_exact():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = None
    for n in (3, 4, 5):
        cube = B.PolytopeBody.cube(n)
        bound = V.mahler_bound(n - 1)
        for _ in range(200):
            u = random_rational_normal(rng, n, max_num=7, max_den=5)
            sec = B.hyperplane_section(cube, u)
            rep = V.mahler_product(sec)
            assert rep.exact_product >= bound, (n, u, rep.exact_product)
            ratio = rep.exact_product / bound
            if worst is None or ratio < worst:
                worst = ratio
    hexagon = V.mahler_product(B.hyperplane_section(B.PolytopeBody.cube(3), [1, 1, 1]))
    assert hexagon.exact_product == 9 and V.mahler_bound(2) == 8
    assert abs(hexagon.product - 9.0) <= 1e-9
    dt = time.time() - t0
    report(3, True,
           f"600 exact cube sections all >= bound (min ratio {float(worst):.4f}), "
           f"hexagon product 9 vs 8, {dt:.1f}s")


def test_criterion_4_lp_sections_monte_carlo():
    t0 = time.time()
    rep = suite_sections_lp(p_values=(1.5, 3.0, 6.0), n_values=(3, 4),
                            trials=50, samples=10**6, seed=4)
    worst_margin = min(
        (c["product"] - c["bound"]) / c["ci_halfwidth"] for c in rep["cases"]
    )
    dt = time.time() - t0
    report(4, rep["passed"] and dt < 1800.0,
           f"{len(rep['cases'])} MC section products >= bound - 3 CI "
           f"(worst margin {worst_margin:.1f} CI) in {dt / 60:.1f} min (< 30 min)")


def test_criterion_5_capacity_calibration():
    t0 = time.time()
    checks = []
    for dim, m in ((4, 64), (6, 64)):
        est = C.capacity_estimate(B.LpBallBody(2.0, dim), m=m, starts=16, seed=5)
        checks.append((f"B^{dim}", est.value, math.pi, 0.01))
    for n, m in ((2, 32), (3, 48)):
        S = B.lagrangian_product(B.PolytopeBody.cross(n))
        est = C.capacity_estimate(S, m=m, starts=16, seed=5)
        checks.append((f"cross{n}xcube{n}", est.value, 4.0, 0.02))
    hexagon = B.hyperplane_section(B.PolytopeBody.cube(3), [1, 1, 1])
    area = float(hexagon.core.volume_exact()) * math.sqrt(float(hexagon.volume_scale2()))
    est = C.capacity_estimate(hexagon, m=32, starts=12, seed=5)
    checks.append(("hexagon", est.value, area, 0.01))
    square = B.lagrangian_product(B.PolytopeBody.cube(1))
    est = C.capacity_estimate(square, m=16, starts=8, seed=5)
    checks.append(("square", est.value, 4.0, 0.01))
    ok = True
    details = []
    for name, got, want, tol in checks:
        rel = abs(got - want) / want
        ok &= rel <= tol
        details.append(f"{name}:{got:.4f}(target {want:.4f}, {100 * rel:.2f}%)")
    dt = time.time() - t0
    report(5, ok, "; ".join(details) + f"; {dt:.0f}s")


def test_criterion_6_reduction_monotonicity():
    t0 = time.time()
    rep = suite_capacity_monotone(trials=50, seed=6, m=48, starts=12,
                                  image_trials=25)
    n_fail = sum(1 for c in rep["cases"] if not c["passed"])
    # informational: every reduced body has capacity 4 (not gated)
    worst = max(c.get("c_reduced_rel_err_vs_4", 0.0) for c in rep["cases"])
    dt = time.time() - t0
    report(6, rep["passed"],
           f"50 one-step reductions, capacity non-decreasing within 2% "
           f"({n_fail} failures), max |c_red - 4|/4 = {worst:.3f}, "
           f"in {dt / 60:.1f} min")


def test_criterion_7_reduced_ball_volume():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for N in (2, 3, 4):
        expect = math.pi ** (N - 1) / math.factorial(N - 1)
        for _ in range(20):
            ell = rng.normal(size=N)
            res = SY.reduce_ball(N, ell, directions=1024, seed=7)
            worst = max(worst, abs(res.value - expect))
    dt = time.time() - t0
    report(7, worst <= 1e-10,
           f"reduce_ball N=2,3,4 x 20 lines, max deviation {worst:.2e} "
           f"(<= 1e-10), {dt:.0f}s")


def test_criterion_8_crofton():
    t0 = time.time()
    lin = CR.crofton_check(CR.linear_slice(2), samples=10**4, seed=8)
    ok = abs(lin["lhs"] - lin["rhs"]) <= 1e-6 + lin["rhs_ci"]
    details = [f"linear |lhs-rhs|={abs(lin['lhs'] - lin['rhs']):.2e}"]
    for eps, g in [(0.05, "q2^3"), (0.04, "q1^3"), (0.05, "q1*p2*q2")]:
        slc = CR.perturbed_slice(2, eps, g)
        rep = CR.crofton_check(slc, samples=10**5, seed=8)
        gap = abs(rep["lhs"] - rep["rhs"])
        # same 1e-6 quadrature floor as the linear case: perturbations whose
        # crossing count is deterministically 1 have a zero-width CI
        ok &= gap <= 3 * rep["rhs_ci"] + 1e-6 and rep["lhs"] >= math.pi - 1e-3
        details.append(f"eps={eps},{g}: gap {gap:.2e} vs 3CI {3 * rep['rhs_ci']:.2e}, "
                       f"area {rep['lhs']:.4f}")
    dt = time.time() - t0
    report(8, ok, "; ".join(details) + f"; {dt:.0f}s")


def test_criterion_9_embedding():
    t0 = time.time()
    ok = True
    details = []
    for alpha in (2.0, 1.5):
        prof = E.build_profile(alpha, 8)
        rep = E.product_embedding_check(alpha, 2, 8, samples=10**6, seed=9,
                                        profile=prof)
        jac = E.jacobian_grid_check(prof)
        odd = E.oddness_check(prof)
        area_err = max(abs(m - A) / A for A, m in prof.area_table)
        ok &= (rep["contained_fraction"] == 1.0
               and jac["max_abs_det_minus_1"] <= 1e-3
               and odd <= 1e-10 and area_err <= 1e-6)
        details.append(
            f"alpha={alpha}: frac {rep['contained_fraction']:.6f} at "
            f"R={rep['radius']:.4f} (eps {rep['eps']:.4f}), "
            f"|detJ-1| {jac['max_abs_det_minus_1']:.1e}, odd {odd:.1e}, "
            f"area {area_err:.1e}"
        )
    dt = time.time() - t0
    report(9, ok, "; ".join(details) + f"; {dt:.0f}s")


def test_criterion_10_reduction_volume_bound():
    t0 = time.time()
    rng = np.random.default_rng(10)
    count = 0
    for n in (3, 4, 5):
        trials = 34 if n != 5 else 32  # 100 total
        for _ in range(trials):
            expr = random_hanner_expr(n, rng)
            body = B.hanner_body(expr)
            u = random_rational_normal(rng, n)
            rep = V.reduction_volume_bound(body, u)
            assert rep.holds, (expr, u)
            count += 1
    for n in (3, 4, 5):
        cube = B.PolytopeBody.cube(n)
        for axis in range(n):
            u = tuple(Fraction(1 if i == axis else 0) for i in range(n))
            rep = V.reduction_volume_bound(cube, u)
            assert rep.equality, (n, axis)
    dt = time.time() - t0
    report(10, True,
           f"{count} random Hanner reduction bounds hold exactly; coordinate "
           f"normals on cubes give equality; {dt:.0f}s")
