"""Verification suites: batteries of randomized checks behind the CLI
`verify` subcommand and the acceptance tests.

Every suite returns {"suite", "params", "passed", "cases"} with one
machine-readable entry per case; nothing is asserted here so callers decide
between exit codes and test failures.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import bodies as B
from . import capacity as C
from . import crofton as CR
from . import embedding as E
from . import volume as V
from .capacity import random_rational_normal


def random_hanner_expr(leaves: int, rng: np.random.Generator) -> str:
    if leaves == 1:
        return "S"
    k = int(rng.integers(1, leaves))
    op = "X" if rng.random() < 0.5 else "L"
    left = random_hanner_expr(k, rng)
    right = random_hanner_expr(leaves - k, rng)
    return f"{op}({left}, {right})"


def _suite(name: str, params: dict, cases: list[dict]) -> dict:
    return {
        "suite": name,
        "params": params,
        "cases": cases,
        "passed": all(c.get("passed", False) for c in cases),
    }


# ---------------------------------------------------------------------------


def suite_sections_lp(p_values=(1.5, 3.0), n_values=(3,), trials: int = 5,
                      samples: int = 10**5, seed: int = 0) -> dict:
    """Monte-Carlo volume products of random central sections of l_p balls:
    product >= 4^(n-1)/(n-1)! minus three combined CI half-widths."""
    cases = []
    rng = np.random.default_rng(seed)
    for p in p_values:
        for n in n_values:
            ball = B.LpBallBody(float(p), int(n))
            bound = float(V.mahler_bound(n - 1))
            for t in range(trials):
                u = rng.normal(size=n)
                u /= np.linalg.norm(u)
                sec = B.hyperplane_section(ball, u)
                rep = V.mahler_product(sec, samples=samples,
                                       seed=seed + 104729 * t)
                ok = rep.product >= bound - 3.0 * rep.ci_halfwidth
                cases.append({
                    "p": float(p), "n": int(n), "trial": t,
                    "normal": u.tolist(),
                    "product": rep.product, "bound": bound,
                    "ci_halfwidth": rep.ci_halfwidth, "passed": bool(ok),
                })
    return _suite("sections-lp", {"p_values": list(p_values),
                                  "n_values": list(n_values), "trials": trials,
                                  "samples": samples, "seed": seed}, cases)


def suite_sections_hanner(n_values=(3, 4, 5), trials: int = 10, seed: int = 0,
                          cube_only: bool = False) -> dict:
    """Exact volume products of random rational central sections of Hanner
    polytopes (or cubes): product >= 4^(n-1)/(n-1)! as exact rationals."""
    cases = []
    rng = np.random.default_rng(seed)
    for n in n_values:
        bound = V.mahler_bound(n - 1)
        for t in range(trials):
            expr = "X(" + ", ".join(["S"] * n) + ")" if cube_only \
                else random_hanner_expr(n, rng)
            body = B.hanner_body(expr) if n > 1 else B.PolytopeBody.cube(1)
            u = random_rational_normal(rng, n)
            sec = B.hyperplane_section(body, u)
            rep = V.mahler_product(sec)
            ok = rep.exact_product is not None and rep.exact_product >= bound
            cases.append({
                "n": int(n), "trial": t, "tree": expr,
                "normal": [str(x) for x in u],
                "product": str(rep.exact_product), "bound": str(bound),
                "passed": bool(ok),
            })
    return _suite("sections-hanner", {"n_values": list(n_values),
                                      "trials": trials, "seed": seed,
                                      "cube_only": cube_only}, cases)


def suite_polytopes_2n2(n: int = 3, trials: int = 20, seed: int = 0) -> dict:
    """Random symmetric polytopes with 2n+2 vertices (linear images of the
    cross-polytope in R^{n+1}): exact Mahler product >= 4^n/n!."""
    cases = []
    rng = np.random.default_rng(seed)
    bound = V.mahler_bound(n)
    done = 0
    attempts = 0
    while done < trials and attempts < 50 * trials:
        attempts += 1
        gens = [
            tuple(Fraction(int(x)) for x in rng.integers(-5, 6, size=n))
            for _ in range(n + 1)
        ]
        try:
            body = B.PolytopeBody(n, vertices=gens + [tuple(-x for x in g) for g in gens])
            if body.is_degenerate or len(body.extreme_vertices()) != 2 * (n + 1):
                continue
            rep = V.mahler_product(body)
        except Exception:
            continue
        ok = rep.exact_product is not None and rep.exact_product >= bound
        cases.append({
            "n": n, "trial": done,
            "generators": [[str(x) for x in g] for g in gens],
            "product": str(rep.exact_product), "bound": str(bound),
            "passed": bool(ok),
        })
        done += 1
    return _suite("polytopes-2n2", {"n": n, "trials": trials, "seed": seed}, cases)


def suite_reduction_bound(n_values=(3, 4, 5), trials: int = 10, seed: int = 0,
                          action_bound: int = 4) -> dict:
    """vol S' >= (n/A) vol S, exactly, over random Hanner trees and random
    rational normals; records where equality holds."""
    cases = []
    rng = np.random.default_rng(seed)
    for n in n_values:
        for t in range(trials):
            expr = random_hanner_expr(n, rng)
            body = B.hanner_body(expr)
            u = random_rational_normal(rng, n)
            rep = V.reduction_volume_bound(body, u, Fraction(action_bound))
            cases.append({
                "n": int(n), "trial": t, "tree": expr,
                "normal": [str(x) for x in u],
                "lhs": str(rep.lhs_exact), "rhs": str(rep.rhs_exact),
                "equality": rep.equality, "passed": bool(rep.holds),
            })
    return _suite("reduction-bound", {"n_values": list(n_values),
                                      "trials": trials, "seed": seed,
                                      "A": action_bound}, cases)


def suite_capacity_monotone(trials: int = 10, seed: int = 0, m: int = 48,
                            starts: int = 12, image_trials: int | None = None,
                            rel_slack: float = 0.02) -> dict:
    """Capacity does not drop under one-step reduction: half the trials on
    cross3 x cube3, half on products of random linear images of cross3."""
    if image_trials is None:
        image_trials = trials // 2
    plain_trials = trials - image_trials
    cases = []
    S0 = B.lagrangian_product(B.PolytopeBody.cross(3))
    rep = C.reduction_monotonicity_experiment(
        S0, trials=plain_trials, seed=seed, m=m, starts=starts,
        rel_slack=rel_slack)
    for pair in rep["pairs"]:
        cases.append({"body": "cross3xcube3", **pair,
                      "passed": bool(pair.get("holds", False))})
    rng = np.random.default_rng(seed + 1)
    for t in range(image_trials):
        while True:
            M = [[Fraction(int(x)) for x in row]
                 for row in rng.integers(-3, 4, size=(3, 3))]
            try:
                K = B.PolytopeBody.cross(3).linear_image(M)
                break
            except B.BodyError:
                continue
        S = B.lagrangian_product(K)
        repm = C.reduction_monotonicity_experiment(
            S, trials=1, seed=seed + 500 + t, m=m, starts=starts,
            rel_slack=rel_slack)
        pair = repm["pairs"][0]
        cases.append({"body": f"image{t}", "matrix": [[str(x) for x in r] for r in M],
                      **pair, "passed": bool(pair.get("holds", False))})
    return _suite("capacity-monotone", {"trials": trials, "seed": seed,
                                        "m": m, "starts": starts}, cases)


def suite_crofton(epsilons=(0.05,), g_exprs=("q2^3",), samples: int = 10**4,
                  seed: int = 0) -> dict:
    """Linear equality plus perturbed agreement within 3 CI half-widths, and
    the sphere-volume lower bound on the positive half."""
    cases = []
    lin = CR.linear_slice(2)
    rep = CR.crofton_check(lin, samples=min(samples, 10**4), seed=seed)
    ok = abs(rep["lhs"] - rep["rhs"]) <= 1e-6 + rep["rhs_ci"]
    cases.append({"slice": "linear", **rep, "passed": bool(ok)})
    for eps in epsilons:
        for g in g_exprs:
            slc = CR.perturbed_slice(2, eps, g)
            rep = CR.crofton_check(slc, samples=samples, seed=seed)
            ok = (
                abs(rep["lhs"] - rep["rhs"]) <= 3.0 * rep["rhs_ci"] + 1e-9
                and rep["lhs"] >= math.pi - 1e-3
            )
            cases.append({"slice": f"eps={eps},g={g}", **rep, "passed": bool(ok)})
    return _suite("crofton", {"epsilons": list(epsilons),
                              "g_exprs": list(g_exprs), "samples": samples,
                              "seed": seed}, cases)


def suite_embedding(alphas=(2.0, 1.5), copies: int = 2, n_exp: int = 8,
                    samples: int = 10**5, seed: int = 0) -> dict:
    """Containment of the certified ball in the l_alpha x l_beta product,
    plus the area normalization, oddness and Jacobian certificates."""
    cases = []
    for alpha in alphas:
        prof = E.build_profile(alpha, n_exp)
        area_err = max(abs(meas - A) / A for A, meas in prof.area_table)
        odd = E.oddness_check(prof)
        jac = E.jacobian_grid_check(prof, r_max=math.sqrt(4.0 / math.pi))
        rep = E.product_embedding_check(alpha, copies, n_exp, samples=samples,
                                        seed=seed, profile=prof)
        ok = (
            rep["contained_fraction"] == 1.0
            and area_err <= 1e-6
            and odd <= 1e-10
            and jac["max_abs_det_minus_1"] <= 1e-3
        )
        cases.append({
            "alpha": alpha, "n_exp": n_exp, "copies": copies,
            "eps": rep["eps"], "radius": rep["radius"],
            "contained_fraction": rep["contained_fraction"],
            "area_rel_err": area_err, "oddness": odd,
            "jacobian_dev": jac["max_abs_det_minus_1"],
            "samples": samples, "passed": bool(ok),
        })
    return _suite("embedding", {"alphas": list(alphas), "copies": copies,
                                "n_exp": n_exp, "samples": samples,
                                "seed": seed}, cases)


SUITES = {
    "sections-lp": suite_sections_lp,
    "sections-hanner": suite_sections_hanner,
    "polytopes-2n2": suite_polytopes_2n2,
    "reduction-bound": suite_reduction_bound,
    "capacity-monotone": suite_capacity_monotone,
    "crofton": suite_crofton,
    "embedding": suite_embedding,
}


def run_suite(name: str, **params) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**params)
