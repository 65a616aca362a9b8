"""The three workloads: inputs made from the seed, the timed operations, and
the checks on their outputs.

A workload is built in two steps.  `build_<name>(ml, seed)` runs in set-up:
it draws the inputs and returns a list of `Op`s.  Each round of a run calls
every `Op.run` once, in order, and checks its result with `Op.check` outside
the timed region.  Exact bodies are rebuilt inside each `run` from their
descriptions, because mahlerlab caches hulls on body objects and a cached
hull would make later rounds cheaper than the first.

`ml` is a namespace of the freshly imported mahlerlab modules.  Operations
look functions up on those modules at call time, so the traced run sees the
tracer's wrappers.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles as O


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # error text, or None when correct
    known_fault: bool = False
    mc_rel_ci: Callable[[object], float] | None = None


def _fail(cond: bool, text: str) -> str | None:
    return None if cond else text


def _first_error(*errors):
    return next((e for e in errors if e), None)


def random_normal(rng: np.random.Generator, n: int) -> tuple[Fraction, ...]:
    """Rational normal with numerators in [-7, 7] and denominators in [1, 5]."""
    while True:
        nums = rng.integers(-7, 8, size=n)
        dens = rng.integers(1, 6, size=n)
        if np.any(nums != 0):
            return tuple(Fraction(int(a), int(b)) for a, b in zip(nums, dens))


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """`cli.main` in-process with its JSON output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_result(out) -> dict:
    code, text = out
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return json.loads(text)


def _volume_sq(vol) -> Fraction | None:
    """Square of an exact volume reported as r or as r * sqrt(d)."""
    if vol.exact is not None:
        return vol.exact * vol.exact
    if vol.exact_sqrt is not None:
        r, d = vol.exact_sqrt
        return r * r * d
    return None


# ---------------------------------------------------------------------------
# exact: rational kernels (placing-triangulation hull, Bareiss, DD)


def _check_hanner_product(tree, rep) -> str | None:
    vol, n = O.hanner_volume(tree)
    vol_polar, _ = O.hanner_volume(O.dual_hanner_tree(tree))
    return _first_error(
        _fail(rep.vol_body.exact == vol, f"vol K {rep.vol_body.exact} != {vol}"),
        _fail(rep.vol_polar.exact == vol_polar, f"vol K° {rep.vol_polar.exact} != {vol_polar}"),
        _fail(rep.exact_ratio == 1, f"ratio {rep.exact_ratio} != 1"),
        _fail(rep.exact_product == O.mahler_bound(n), "product != 4^n/n!"),
    )


def _check_cube_section(u, rep) -> str | None:
    n = len(u)
    want = O.cube_section_product(u)
    return _first_error(
        _fail(rep.exact_product == want, f"product {rep.exact_product} != {want}"),
        _fail(_volume_sq(rep.vol_body) == O.cube_section_volume_sq(u), "section volume"),
        _fail(rep.exact_product >= O.mahler_bound(n - 1), "product below 4^(n-1)/(n-1)!"),
    )


def _check_section_bound(n, rep) -> str | None:
    return _fail(rep.exact_product is not None and rep.exact_product >= O.mahler_bound(n - 1),
                 f"product {rep.exact_product} below 4^(n-1)/(n-1)!")


def _check_reduction(n, equality, rep) -> str | None:
    # rhs = (n/4) vol K vol K° = 4^(n-1)/(n-1)! for every Hanner body
    bound = O.mahler_bound(n - 1)
    return _first_error(
        _fail(rep.rhs_exact == bound, f"rhs {rep.rhs_exact} != {bound}"),
        _fail(rep.holds and rep.lhs_exact >= rep.rhs_exact, "lhs < rhs"),
        _fail(not equality or (rep.equality and rep.lhs_exact == bound), "no equality"),
    )


def _check_cli_mahler(tree, out) -> str | None:
    res = _cli_result(out)
    vol, _ = O.hanner_volume(tree)
    return _first_error(
        _fail(res.get("exact_ratio") == "1", f"ratio {res.get('exact_ratio')}"),
        _fail(Fraction(res["vol_body"]["exact"]) == vol, "vol K"),
    )


def _check_cli_section(u, out) -> str | None:
    vol = _cli_result(out)["volume"]
    if "exact" in vol:
        sq = Fraction(vol["exact"]) ** 2
    else:
        r, d = (Fraction(x) for x in vol["exact_sqrt"])
        sq = r * r * d
    return _fail(sq == O.cube_section_volume_sq(u), "section volume")


def _check_cli_reduce(u, out) -> str | None:
    # (cross3 | u^perp) x (cube3 ∩ u^perp): the cube section's volume product
    got = _cli_result(out)["volume_product"]["value"]
    want = float(O.cube_section_product(u))
    return _fail(abs(got - want) <= 1e-9 * want, f"volume product {got} != {want}")


def _check_cli_mc(tree, out) -> str | None:
    res = _cli_result(out)
    want = float(O.hanner_volume(tree)[0])
    return _fail(abs(res["value"] - want) <= 3.0 * res["ci_halfwidth"],
                 f"mc volume {res['value']} vs {want} +- {res['ci_halfwidth']}")


def _cli_mc_rel_ci(out) -> float:
    res = json.loads(out[1])
    return res["ci_halfwidth"] / res["value"]


def congruent_copy(tree, u, rng: np.random.Generator):
    """A seeded copy of a Hanner body and a normal that is congruent to the
    pair: the tree's children in random order, which permutes the body's
    coordinates, the normal permuted to match, and random signs on the
    normal's coordinates (every Hanner body is symmetric in the coordinate
    hyperplanes).  A cube is the tree X(S, ..., S).  The copy costs what the
    original costs, so the seed varies the inputs but not the work."""
    leaves = iter(range(len(u)))

    def label(t):
        return next(leaves) if t == "S" else (t[0], [label(c) for c in t[1]])

    def shuffle(t):
        if isinstance(t, int):
            return t
        op, children = t
        return (op, [shuffle(children[i]) for i in rng.permutation(len(children))])

    def coords(t):
        return [t] if isinstance(t, int) else [i for c in t[1] for i in coords(c)]

    def strip(t):
        return "S" if isinstance(t, int) else (t[0], [strip(c) for c in t[1]])

    shuffled = shuffle(label(tree))
    signs = rng.choice([-1, 1], size=len(u))
    return strip(shuffled), tuple(int(sg) * u[i] for sg, i in zip(signs, coords(shuffled)))


def _cube_tree(n: int):
    return ("X", ["S"] * n)


def build_exact(ml, seed: int) -> list[Op]:
    """Exact Mahler products of cubes, cross-polytopes and random Hanner
    polytopes, exact products of random rational central sections, one-step
    reduction volume bounds, and a few of the same through `cli.main`.

    The random bodies and normals are drawn once from fixed streams; the seed
    picks a congruent copy of each (`congruent_copy`).  Free draws of one
    kind cost up to three times each other, and with them the seed moved
    `op_p50_ms` and `op_p90_ms` by a tenth or more."""
    B, V, cli = ml.bodies, ml.volume, ml.cli
    rng = np.random.default_rng([seed, 1])
    ops: list[Op] = []

    # mahler_product of cross6 repeats the work of cube6 (each computes both
    # hulls), so dimension 6 runs once per round
    for n in range(3, 7):
        cube = _cube_tree(n)
        kinds = (("cube", cube), ("cross", O.dual_hanner_tree(cube)))
        for kind, tree in kinds[:1] if n == 6 else kinds:
            ops.append(Op(
                f"mahler {kind}{n}",
                lambda n=n, kind=kind: V.mahler_product(getattr(B.PolytopeBody, kind)(n)),
                lambda rep, tree=tree: _check_hanner_product(tree, rep)))

    def fixed_trees(leaves, count, stream):
        return [O.random_hanner_tree(leaves, np.random.default_rng([k, stream]))
                for k in range(count)]

    def fixed_normals(n, count, stream):
        base = np.random.default_rng([n, stream])
        return [random_normal(base, n) for _ in range(count)]

    # the 5-leaf products hold the 90th percentile.  Shapes 7, 12 and 14 of
    # their stream, which cost what cube5 costs, put it inside the block of
    # like operations near 80 ms here; with shapes 0-5 alone it sat at the
    # top of the block below, under a gap, and moved with that one operation
    tail = [O.random_hanner_tree(5, np.random.default_rng([k, 5]))
            for k in (0, 1, 2, 3, 4, 5, 7, 12, 14)]
    trees = fixed_trees(3, 4, 3) + fixed_trees(4, 6, 4) + tail
    for tree in trees:
        tree, _ = congruent_copy(tree, (0,) * O.hanner_volume(tree)[1], rng)
        expr = O.hanner_expr(tree)
        ops.append(Op(
            f"mahler hanner {expr}",
            lambda expr=expr: V.mahler_product(B.hanner_body(expr)),
            lambda rep, tree=tree: _check_hanner_product(tree, rep)))

    # the many small sections put the median inside a block of operations
    # of like cost (cube4 sections), not at an edge
    for n, count in ((3, 24), (4, 16), (5, 8)):
        for u in fixed_normals(n, count, 6):
            _, u = congruent_copy(_cube_tree(n), u, rng)
            ops.append(Op(
                f"section cube{n}",
                lambda n=n, u=u: V.mahler_product(
                    B.hyperplane_section(B.PolytopeBody.cube(n), u)),
                lambda rep, u=u: _check_cube_section(u, rep)))

    for n, count in ((3, 5), (4, 5), (5, 4)):
        for tree, u in zip(fixed_trees(n, count, 10 + n), fixed_normals(n, count, 7)):
            tree, u = congruent_copy(tree, u, rng)
            expr = O.hanner_expr(tree)
            ops.append(Op(
                f"section hanner {expr}",
                lambda expr=expr, u=u: V.mahler_product(
                    B.hyperplane_section(B.hanner_body(expr), u)),
                lambda rep, n=n: _check_section_bound(n, rep)))

    for n in (3, 4, 5):
        for tree, u in zip(fixed_trees(n, 3, 20 + n), fixed_normals(n, 3, 8)):
            tree, u = congruent_copy(tree, u, rng)
            expr = O.hanner_expr(tree)
            ops.append(Op(
                f"reduction bound {expr}",
                lambda expr=expr, u=u: V.reduction_volume_bound(B.hanner_body(expr), u),
                lambda rep, n=n: _check_reduction(n, False, rep)))
        axis = int(rng.integers(n))
        e = tuple(Fraction(int(i == axis)) for i in range(n))
        ops.append(Op(
            f"reduction bound cube{n} e{axis}",
            lambda n=n, e=e: V.reduction_volume_bound(B.PolytopeBody.cube(n), e),
            lambda rep, n=n: _check_reduction(n, True, rep)))

    tree, _ = congruent_copy(fixed_trees(4, 1, 30)[0], (0,) * 4, rng)
    body = json.dumps({"type": "hanner", "expr": O.hanner_expr(tree)})
    ops.append(Op("cli mahler", lambda body=body: call_cli(
        cli, ["--no-log", "mahler", "--body", body]),
        lambda out, tree=tree: _check_cli_mahler(tree, out)))

    # "--normal=..." because argparse reads a leading "-3/2" as an option
    _, u = congruent_copy(_cube_tree(4), fixed_normals(4, 1, 31)[0], rng)
    normal = ",".join(str(x) for x in u)
    ops.append(Op("cli section", lambda normal=normal: call_cli(
        cli, ["--no-log", "section", "--body", '{"type":"cube","dim":4}',
              f"--normal={normal}"]),
        lambda out, u=u: _check_cli_section(u, out)))

    # cross3 x cube3 is symmetric under signed permutations applied to both
    _, u = congruent_copy(_cube_tree(3), fixed_normals(3, 1, 32)[0], rng)
    normal = ",".join(str(x) for x in u)
    ops.append(Op("cli reduce", lambda normal=normal: call_cli(
        cli, ["--no-log", "reduce", "--body",
              '{"type":"product","body":{"type":"cross","dim":3}}', f"--normal={normal}"]),
        lambda out, u=u: _check_cli_reduce(u, out)))

    # two shapes with the same hit rate in their bounding box, so the
    # confidence interval does not depend on the seed
    diamond = ("L", ["S", "S"])
    for tree in (("X", ["S", diamond]), ("X", [diamond, "S"])):
        expr = O.hanner_expr(tree)
        body = json.dumps({"type": "hanner", "expr": expr})
        mc_seed = str(int(rng.integers(2**31)))
        ops.append(Op(f"cli volume mc {expr}", lambda body=body, mc_seed=mc_seed: call_cli(
            cli, ["--no-log", "volume", "--method", "mc", "--samples", "100000",
                  "--seed", mc_seed, "--body", body]),
            lambda out, tree=tree: _check_cli_mc(tree, out), mc_rel_ci=_cli_mc_rel_ci))
    return ops


# ---------------------------------------------------------------------------
# sampling: vectorised float work (gauges, fiber minimisation, circle scans,
# the planar map)

MC_SAMPLES = 100_000
CROFTON_SAMPLES = 2048
CROFTON_SLICES = ((0.05, "q2^3"), (0.04, "q1^3"), (0.05, "q1*p2*q2"))
EMBED_SAMPLES = 100_000


class _Cache(dict):
    """Reference values computed once per run, on first use by a check."""

    def get_or(self, key, fn):
        if key not in self:
            self[key] = fn()
        return self[key]


def _check_lp_section(p, u, cache, rep) -> str | None:
    n = len(u)
    bound = float(O.mahler_bound(n - 1))
    key = (p, tuple(u))
    vol = cache.get_or(("section",) + key, lambda: O.lp_section_volume(p, u))
    errors = [
        _fail(rep.product >= bound - 3.0 * rep.ci_halfwidth,
              f"product {rep.product} below bound - 3 CI"),
        _fail(abs(rep.vol_body.value - vol) <= 3.0 * rep.vol_body.ci_halfwidth,
              f"vol {rep.vol_body.value} vs quadrature {vol}"),
    ]
    if n == 3:
        area = cache.get_or(("polar",) + key, lambda: O.lp_section_polar_area(p, u))
        errors.append(_fail(abs(rep.vol_polar.value - area) <= 3.0 * rep.vol_polar.ci_halfwidth,
                            f"polar {rep.vol_polar.value} vs quadrature {area}"))
    return _first_error(*errors)


def _check_crofton(area, rep) -> str | None:
    return _first_error(
        _fail(abs(rep["lhs"] - area) <= 1e-8, f"area {rep['lhs']} != {area}"),
        _fail(rep["lhs"] >= math.pi - 1e-3, "area below pi"),
        _fail(O.crofton_counts_plausible(rep["mean_count"], rep["samples"], area),
              f"mean count {rep['mean_count']} over {rep['samples']} circles "
              f"does not fit area {area}"),
    )


def build_sampling(ml, seed: int) -> list[Op]:
    """Monte Carlo Mahler products of random central sections of l_p balls
    (both the SliceBody and the ImageBody path), Crofton checks on the linear
    and three perturbed slices, embedding profiles and containment checks,
    and reduced round-ball volumes."""
    B, V, SY, CR, E = ml.bodies, ml.volume, ml.symplectic, ml.crofton, ml.embedding
    rng = np.random.default_rng([seed, 2])
    cache = _Cache()
    ops: list[Op] = []

    for p in (1.5, 3.0, 6.0):
        for n in (3, 4):
            for _ in range(3):
                u = rng.normal(size=n)
                u /= np.linalg.norm(u)
                mc_seed = int(rng.integers(2**31))
                ops.append(Op(
                    f"mc mahler p={p} n={n}",
                    lambda p=p, n=n, u=u, s=mc_seed: V.mahler_product(
                        B.hyperplane_section(B.LpBallBody(p, n), u),
                        samples=MC_SAMPLES, seed=s),
                    lambda rep, p=p, u=u: _check_lp_section(p, u, cache, rep),
                    mc_rel_ci=lambda rep: rep.ci_halfwidth / rep.product))

    # the linear slice's area is pi R^2; the perturbed ones are checked
    # against the Stokes route, integrated once per run
    c_seed = int(rng.integers(2**31))
    ops.append(Op("crofton linear",
                  lambda: CR.crofton_check(CR.linear_slice(2), samples=CROFTON_SAMPLES,
                                           seed=c_seed),
                  lambda rep: _check_crofton(math.pi, rep)))
    for eps, g in CROFTON_SLICES:
        c_seed = int(rng.integers(2**31))

        def stokes(eps=eps, g=g):
            return cache.get_or(("stokes", eps, g), lambda: CR.sigma_plus_area_stokes(
                CR.perturbed_slice(2, eps, g), n_nodes=512))

        ops.append(Op(f"crofton eps={eps} g={g}",
                      lambda eps=eps, g=g, s=c_seed: CR.crofton_check(
                          CR.perturbed_slice(2, eps, g), samples=CROFTON_SAMPLES, seed=s),
                      lambda rep, stokes=stokes: _check_crofton(stokes(), rep)))

    profiles: dict[float, object] = {}
    for alpha in (2.0, 1.5):
        def profile(alpha=alpha):
            profiles[alpha] = E.build_profile(alpha, 8)
            return profiles[alpha]

        want = O.superellipse_area(alpha, 8)
        ops.append(Op(f"embedding profile alpha={alpha}", profile,
                      lambda prof, want=want: _fail(abs(prof.c_n / want - 1.0) <= 1e-9,
                                                    f"c_n {prof.c_n} != {want}")))
        e_seed = int(rng.integers(2**31))
        ops.append(Op(f"embedding check alpha={alpha}",
                      lambda alpha=alpha, s=e_seed: E.product_embedding_check(
                          alpha, 2, 8, samples=EMBED_SAMPLES, seed=s,
                          profile=profiles[alpha]),
                      lambda rep: _fail(rep["contained_fraction"] == 1.0,
                                        f"contained {rep['contained_fraction']}")))

    for N in (2, 3, 4):
        for _ in range(3):
            ell = rng.normal(size=N)
            r_seed = int(rng.integers(2**31))
            want = O.reduced_ball_volume(N)
            ops.append(Op(f"reduce_ball N={N}",
                          lambda N=N, ell=ell, s=r_seed: SY.reduce_ball(
                              N, ell, directions=1024, seed=s),
                          lambda res, want=want: _fail(abs(res.value - want) <= 1e-10,
                                                       f"{res.value} != {want}")))
    return ops


# ---------------------------------------------------------------------------
# capacity: batched subgradient descent over support witnesses
#
# Estimates run at criterion 6's settings with one fixed estimator seed, so
# each body's estimate is deterministic.  A fixed core (cross3, the l_1.5
# ball, a symmetric estimate, the failing case, B^4) sits in every round;
# the seed adds one body drawn from a pool of every other kind and seeds the
# Monte Carlo volume.  Pool estimates cost 1.8 to 2.9 s, so drawing more
# bodies from the seed would make the round time depend on it, and a longer
# round would leave fewer attempts per estimate in a run.  The l_1.5 ball's
# estimate (3.5 s) is in the core: drawn, it moved `op_p50_ms` by a tenth
# from seed to seed; fixed, it holds the 90th percentile, and the median
# falls between the cross3 and symmetric estimates.  Every pool entry lands
# within 1.5% of 4 today: an entry whose estimate lands near or above the 2%
# line would make the failure count depend on the seed.  The case known to
# fail sits in every round.

EST_M, EST_STARTS, EST_SEED = 48, 12, 6
CROSS3_IMAGES = (
    ((-1, 2, -1), (0, 0, -1), (-2, -1, 1)),
    ((1, 2, 1), (-1, 2, 2), (1, 1, -2)),
    ((-2, -1, 0), (-2, 2, 0), (1, -1, -1)),
    ((-1, 0, 0), (0, -1, 0), (2, 0, -2)),
    ((1, -1, -1), (1, -2, 0), (1, -2, -2)),
    ((1, -1, 2), (0, 0, -1), (1, 0, 1)),
    ((-1, 1, -1), (1, 2, -1), (2, 1, -1)),
    ((-2, -2, 2), (-1, 0, 1), (2, -2, 2)),
)
HANNER3 = ("X(S, L(S, S))", "X(L(S, S), S)", "L(S, X(S, S))", "L(X(S, S), S)")
# (image index, or None for cross3; normal of the reduction)
REDUCTIONS = (
    (None, (1, 0, 0)), (None, (1, 1, 0)), (None, (1, -1, 0)),
    (None, (1, 1, 1)), (None, (1, -1, 1)), (None, (0, 1, 1)),
    (0, (1, 0, 0)), (0, (1, -1, 0)), (1, (1, 1, 0)),
    (2, (1, 0, 0)), (2, (1, 1, 0)), (2, (1, -1, 0)),
)
# a skewed image of cross3 reduced along a rational normal: the ellipse
# starts stall near 4.54 while the estimate reports converged
FAULT_IMAGE = ((0, 0, 2), (3, -3, -2), (2, 3, -2))
FAULT_NORMAL = (Fraction(-4, 3), Fraction(7, 8), Fraction(-1, 3))
MC_P = 1.5
MC_PRODUCT_SAMPLES = 1_200_000


def _warm(body, B) -> None:
    """Run the exact conversions the estimator needs, so they count as set-up."""
    for factor in (body.base, body.dual):
        core = factor.core if isinstance(factor, B.DiagonalImageBody) else factor
        if isinstance(core, B.PolytopeBody):
            core.vertices()
            core.extreme_vertices()


def _check_capacity(low, high, est) -> str | None:
    return _fail(low <= est.value <= high, f"capacity {est.value} outside [{low}, {high}]")


def capacity_pool() -> list[tuple[str, str, object]]:
    """(estimator, kind, argument) for every body the seed may add."""
    full, sym = "capacity_estimate", "symmetric_capacity_estimate"
    return ([(full, "hanner", h) for h in HANNER3]
            + [(full, "image", i) for i in range(len(CROSS3_IMAGES))]
            + [(full, "reduce", r) for r in REDUCTIONS]
            + [(sym, "hanner", h) for h in HANNER3]
            + [(sym, "cross3", None)]
            + [(sym, "image", i) for i in range(len(CROSS3_IMAGES))])


def build_capacity(ml, seed: int) -> list[Op]:
    """Capacity estimates on K x K° for cross3, 3-dimensional Hanner trees,
    the l_1.5 ball in R^2 and integer linear images of cross3, on one-step
    reductions of these, symmetric estimates, the round ball B^4, and a Monte
    Carlo volume of a Lagrangian product."""
    B, V, SY, C = ml.bodies, ml.volume, ml.symplectic, ml.capacity
    rng = np.random.default_rng([seed, 3])

    def body(kind, arg):
        """K x K°, or its one-step reduction, with conversions done."""
        if kind == "cross3":
            K = B.PolytopeBody.cross(3)
        elif kind == "hanner":
            K = B.hanner_body(arg)
        elif kind == "lp":
            K = B.LpBallBody(arg, 2)
        elif kind == "image":
            K = B.PolytopeBody.cross(3).linear_image(
                [[Fraction(x) for x in row] for row in CROSS3_IMAGES[arg]])
        elif kind == "reduce":
            image, normal = arg
            S = body("cross3", None) if image is None else body("image", image)
            S = SY.reduce_product(S, [Fraction(x) for x in normal])
            _warm(S, B)
            return S
        S = B.lagrangian_product(K)
        _warm(S, B)
        return S

    full = "capacity_estimate"
    pool = capacity_pool()
    extra = pool[int(rng.integers(len(pool)))]
    M = [[Fraction(x) for x in row] for row in FAULT_IMAGE]
    fault = SY.reduce_product(B.lagrangian_product(B.PolytopeBody.cross(3).linear_image(M)),
                              FAULT_NORMAL)
    _warm(fault, B)
    cases = [
        ("full cross3", full, body("cross3", None), False),
        (f"full lp{MC_P}", full, body("lp", MC_P), False),
        ("symmetric X(S, L(S, S))", "symmetric_capacity_estimate",
         body("hanner", "X(S, L(S, S))"), False),
        (f"{extra[0]} {extra[1]} {extra[2]}", extra[0], body(extra[1], extra[2]), False),
        ("full reduce fault", full, fault, True),
    ]
    ball = B.LpBallBody(2.0, 4)
    ops = [Op("full ball B4",
              lambda: C.capacity_estimate(ball, m=EST_M, starts=EST_STARTS, seed=EST_SEED),
              lambda est: _check_capacity(O.BALL_LOW, O.BALL_HIGH, est))]
    for label, name, S, known in cases:
        # the estimator is looked up by name at call time so tracing sees it
        ops.append(Op(label,
                      lambda S=S, name=name: getattr(C, name)(
                          S, m=EST_M, starts=EST_STARTS, seed=EST_SEED),
                      lambda est: _check_capacity(O.CAPACITY_LOW, O.CAPACITY_HIGH, est),
                      known_fault=known))
    S_mc = body("lp", MC_P)
    q = MC_P / (MC_P - 1.0)
    mc_want = O.lp_ball_volume(MC_P, 2) * O.lp_ball_volume(q, 2)
    mc_seed = int(rng.integers(2**31))
    ops.append(Op(f"mc volume lp{MC_P} x lp{q:g}",
                  lambda: V.mc_volume(S_mc, MC_PRODUCT_SAMPLES, mc_seed),
                  lambda res: _fail(abs(res.value - mc_want) <= 3.0 * res.ci_halfwidth,
                                    f"volume {res.value} vs {mc_want}"),
                  mc_rel_ci=lambda res: res.ci_halfwidth / res.value))
    return ops


WORKLOADS = {"exact": build_exact, "sampling": build_sampling, "capacity": build_capacity}
