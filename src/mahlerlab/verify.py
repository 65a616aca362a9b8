"""Verification suites: batteries of randomized checks behind the CLI
`verify` subcommand and the acceptance tests.

Every suite returns {"suite", "params", "passed", "cases"} with one
machine-readable entry per case; nothing is asserted here so callers decide
between exit codes and test failures.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import bodies as B
from . import capacity as C
from . import crofton as CR
from . import embedding as E
from . import symplectic as SY
from . import volume as V

# the relative drop of a reduced capacity estimate that capacity-monotone allows
CAPACITY_SLACK = 0.02


def random_rational_normal(rng: np.random.Generator, dim: int,
                           max_num: int = 9, max_den: int = 9):
    """A nonzero vector of Fractions a/b, |a| <= max_num, 1 <= b <= max_den."""
    while True:
        nums = rng.integers(-max_num, max_num + 1, size=dim)
        dens = rng.integers(1, max_den + 1, size=dim)
        if np.any(nums != 0):
            return tuple(Fraction(int(a), int(b)) for a, b in zip(nums, dens))


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
        # a suite that ran no case has checked nothing
        "passed": bool(cases) and all(c.get("passed", False) for c in cases),
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


def suite_sections_hanner(n_values=(3, 4, 5), trials: int = 10, seed: int = 0) -> dict:
    """Exact volume products of random rational central sections of Hanner
    polytopes: product >= 4^(n-1)/(n-1)! as exact rationals."""
    cases = []
    rng = np.random.default_rng(seed)
    for n in n_values:
        bound = V.mahler_bound(n - 1)
        for t in range(trials):
            expr = random_hanner_expr(n, rng)
            body = B.hanner_body(expr)
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
                                      "trials": trials, "seed": seed}, cases)


def suite_polytopes_2n2(n: int = 3, trials: int = 20, seed: int = 0) -> dict:
    """Random symmetric polytopes with 2n+2 vertices (linear images of the
    cross-polytope in R^{n+1}): exact Mahler product >= 4^n/n!."""
    if n < 2:
        raise ValueError(f"polytopes-2n2 needs n >= 2, got {n}")
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
        body = B.PolytopeBody(n, vertices=gens + [tuple(-x for x in g) for g in gens])
        if body.is_degenerate or len(body.extreme_vertices()) != 2 * (n + 1):
            continue
        rep = V.mahler_product(body)
        ok = rep.exact_product is not None and rep.exact_product >= bound
        cases.append({
            "n": n, "trial": done,
            "generators": [[str(x) for x in g] for g in gens],
            "product": str(rep.exact_product), "bound": str(bound),
            "passed": bool(ok),
        })
        done += 1
    return _suite("polytopes-2n2", {"n": n, "trials": trials, "seed": seed}, cases)


def suite_reduction_bound(n_values=(3, 4, 5), trials: int = 10, seed: int = 0) -> dict:
    """vol S' >= (n/A) vol S, A = 4, exactly, over random Hanner trees and random
    rational normals; records where equality holds.  Checked on Hanner
    trees only: no theorem for general bodies (``reduction_volume_bound``)."""
    cases = []
    rng = np.random.default_rng(seed)
    for n in n_values:
        for t in range(trials):
            expr = random_hanner_expr(n, rng)
            body = B.hanner_body(expr)
            u = random_rational_normal(rng, n)
            rep = V.reduction_volume_bound(body, u)
            cases.append({
                "n": int(n), "trial": t, "tree": expr,
                "normal": [str(x) for x in u],
                "lhs": str(rep.lhs_exact), "rhs": str(rep.rhs_exact),
                "equality": rep.equality, "passed": bool(rep.holds),
            })
    return _suite("reduction-bound", {"n_values": list(n_values),
                                      "trials": trials, "seed": seed,
                                      "A": V.ACTION_BOUND}, cases)


def suite_capacity_monotone(trials: int = 10, seed: int = 0, m: int = 48,
                            starts: int = 12, image_trials: int | None = None) -> dict:
    """Capacity does not drop (within ``CAPACITY_SLACK``) under one-step linear
    reduction along a random rational normal u: the estimate on S = K x K°
    against the estimate on (K/L) x (K° ∩ L^perp).  ``image_trials`` of the
    trials (half by default) reduce products of random linear images of
    cross3, the rest cross3 x cube3.

    Every reduced body is again some K' x K'°, whose capacity is exactly 4,
    so each case also reports ``c_reduced_rel_err_vs_4`` = |c - 4|/4, the
    estimate's error from above or below; it does not enter ``passed``.
    A reduction or estimate that raises is recorded as a failed case."""
    if image_trials is None:
        image_trials = trials // 2
    plain_trials = trials - image_trials
    cases = []

    def reduction_case(S, c_original, rng, red_seed):
        u = random_rational_normal(rng, S.base.dim)
        case = {"normal": [str(x) for x in u]}
        try:
            c = C.capacity_estimate(SY.reduce_product(S, u), m=m, starts=starts,
                                    seed=red_seed).value
        except Exception as e:  # noqa: BLE001 - per-case reporting
            return {**case, "error": f"{type(e).__name__}: {e}", "holds": False,
                    "passed": False}
        holds = bool(c >= c_original * (1.0 - CAPACITY_SLACK))
        return {**case, "c_original": c_original, "c_reduced": c, "holds": holds,
                "c_reduced_rel_err_vs_4": abs(c - 4.0) / 4.0, "passed": holds}

    if plain_trials > 0:
        S0 = B.lagrangian_product(B.PolytopeBody.cross(3))
        c0 = C.capacity_estimate(S0, m=m, starts=starts, seed=seed).value
        rng = np.random.default_rng(seed)
        for t in range(plain_trials):
            cases.append({"body": "cross3xcube3",
                          **reduction_case(S0, c0, rng, seed + 1000 + t)})
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
        s = seed + 500 + t
        c = C.capacity_estimate(S, m=m, starts=starts, seed=s).value
        cases.append({"body": f"image{t}", "matrix": [[str(x) for x in r] for r in M],
                      **reduction_case(S, c, np.random.default_rng(s), s + 1000)})
    return _suite("capacity-monotone", {"trials": trials, "seed": seed, "m": m,
                                        "starts": starts, "image_trials": image_trials},
                  cases)


def suite_crofton(epsilons=(0.05,), g_exprs=("q2^3",), samples: int = 10**4,
                  seed: int = 0) -> dict:
    """Linear equality plus perturbed agreement within 3 CI half-widths, and
    the sphere-volume lower bound on the positive half."""
    cases = []
    lin = CR.linear_slice(2)
    rep = CR.crofton_check(lin, samples=min(samples, 10**4), seed=seed)
    cases.append({"slice": "linear", **rep, "passed": CR.crofton_agrees(lin, rep)})
    for eps in epsilons:
        for g in g_exprs:
            slc = CR.perturbed_slice(2, eps, g)
            rep = CR.crofton_check(slc, samples=samples, seed=seed)
            cases.append({"slice": f"eps={eps},g={g}", **rep,
                          "passed": CR.crofton_agrees(slc, rep)})
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
        rep = E.product_embedding_check(alpha, copies, n_exp, samples=samples,
                                        seed=seed, profile=prof)
        case = {
            "alpha": alpha, "n_exp": n_exp, "copies": copies,
            "eps": rep["eps"], "radius": rep["radius"],
            "contained_fraction": rep["contained_fraction"],
            "area_rel_err": E.area_rel_err(prof), "oddness": E.oddness_check(prof),
            "jacobian_dev": E.jacobian_grid_check(prof)["max_abs_det_minus_1"],
            "samples": samples,
        }
        cases.append({**case, "passed": E.embedding_certified(case)})
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
