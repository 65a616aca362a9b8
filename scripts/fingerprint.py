#!/usr/bin/env python3
"""Bit-level fingerprint of the library's outputs, one line per output.

    python scripts/fingerprint.py [--quick] > fp.txt
    python scripts/fingerprint.py --compare base.txt change.txt

Each line starts with its kind:

* `exact`: cube and cross n = 3..6, every binary Hanner tree of 2 to 5
  leaves, sections and projections of cubes and Hanner polytopes by seeded
  rational normals, the integer linear images of cross3 of the `capacity`
  workload, reduction bounds, and the bodies of acceptance criteria 1-3 and
  10.  Each body gives three lines: the body, its polar taken after the
  body's volume (`polar`), and the polar of a fresh copy taken before that
  copy's hull exists (`polar-first`), each with the exact volume (a
  Fraction, or `(r, d)` for r sqrt(d)), the sorted vertex and facet lists,
  `describe()` and the SHA-256 of the float vertex and normal arrays.  A
  reduction bound adds its two exact sides.  Last come the SHA-256 of the
  float frame of each l_p section the `sampling` workload draws at seeds
  71..80.
* `capacity`: the estimate on B^4, on the fixed cases of the `capacity`
  workload and on every entry of its `capacity_pool()`, at the workload's
  settings: the value as float hex, the SHA-256 of the loop, the iteration
  and restart counts and `converged`.
* `mc`: every `mc_volume` call of the benchmark's Monte Carlo operations at
  seed 71, of a cube4 section by a float normal and its polar, and of six
  products of criterion 4: the value and CI half-width as float hex, the
  hit count and the sample count.
* `sampling`: the other results of the `sampling` workload at seed 71, the
  Crofton reports, embedding profiles and checks and reduced balls, with
  floats as hex and arrays as SHA-256.

Workload constants and operations are read from perfbench/workloads.py.
`--quick` keeps only the first case of every kind.  Two checkouts whose
outputs are bit-identical print the same lines; `--compare` reads two such
outputs and exits 1 on any difference, naming each differing line.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import itertools
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np

SEED = 71  # the workload seed of the `mc` and `sampling` lines
SAMPLING_SEEDS = range(71, 81)
MODULES = ("bodies", "volume", "symplectic", "capacity", "crofton", "embedding", "cli")
CUBE4_NORMAL = (0.3, -0.7, 0.5, 0.41)
CRITERION4 = {"p_values": (1.5, 3.0, 6.0), "n_values": (3, 4), "trials": 1,
              "samples": 10**6, "seed": 4}


def import_library() -> None:
    """Import mahlerlab and perfbench/workloads.py as this module's globals.
    Only printing needs them; `--compare` reads two text files alone."""
    global W, B, C, SY, V, random_hanner_expr, random_rational_normal, suite_sections_lp
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads as W
    from mahlerlab import bodies as B
    from mahlerlab import capacity as C
    from mahlerlab import symplectic as SY
    from mahlerlab import volume as V
    from mahlerlab.verify import random_hanner_expr, random_rational_normal, suite_sections_lp


def first(items, quick: bool) -> list:
    items = list(items)
    return items[:1] if quick else items


def digest(array) -> str:
    return hashlib.sha256(np.asarray(array, dtype=float).tobytes()).hexdigest()


def workload_ops(build):
    """The operations of a workload at SEED, on the namespace of modules the
    benchmark passes."""
    ml = types.SimpleNamespace(**{name: importlib.import_module(f"mahlerlab.{name}")
                                  for name in MODULES})
    return build(ml, SEED)


# ---------------------------------------------------------------------------
# exact


def hanner_exprs(leaves: int) -> list[str]:
    """Every binary tree of X and L nodes over the given number of leaves."""
    if leaves == 1:
        return ["S"]
    out = []
    for k in range(1, leaves):
        for left, right in itertools.product(hanner_exprs(k), hanner_exprs(leaves - k)):
            out += [f"X({left}, {right})", f"L({left}, {right})"]
    return out


def points_text(points) -> str:
    return json.dumps([[B.format_rational(x) for x in p] for p in points],
                      separators=(",", ":"))


def volume_text(res: V.VolumeResult) -> str:
    if res.exact is not None:
        return str(res.exact)
    r, d = res.exact_sqrt
    return f"({r}, {d})"


def body_line(label: str, body) -> str:
    """The exact volume first, as `mahler_product` takes it, then the lists."""
    vol = volume_text(V.exact_polytope_volume(body))
    core = body.core if isinstance(body, B.DiagonalImageBody) else body
    normals = [a for a, _ in core.halfspaces()]
    facets = json.dumps([[points_text([a]), B.format_rational(c)] for a, c in core.hull().facets()],
                        separators=(",", ":"))
    desc = json.dumps(body.describe(), sort_keys=True, separators=(",", ":"))
    return (f"{label} vol={vol} V={points_text(core.vertices())} "
            f"E={points_text(core.extreme_vertices())} H={points_text(normals)} F={facets} "
            f"describe={desc} fV={digest(core._floats('V'))} fA={digest(core._floats('A'))}")


def pair_lines(label: str, make) -> list[str]:
    """The body of ``make()``, then its polar taken after the body's volume,
    as `mahler_product` takes it, then the polar of a second copy taken
    before that copy's hull exists."""
    body = make()
    return [body_line(f"{label} body", body), body_line(f"{label} polar", body.polar()),
            body_line(f"{label} polar-first", make().polar())]


def bound_lines(label: str, body, u) -> list[str]:
    rep = V.reduction_volume_bound(body, u)
    return [f"{label} lhs={rep.lhs_exact} rhs={rep.rhs_exact}",
            *pair_lines(f"{label} projection", lambda: B.hyperplane_projection(body, u))]


def exact_cases(quick: bool):
    """(label, kind, make): kind "body" for a body and its polar, "bound"
    for a reduction bound ``(body, u)``."""
    def take(items):
        return first(items, quick)

    out = []
    for n in take(range(3, 7)):
        out.append((f"cube{n}", "body", lambda n=n: B.PolytopeBody.cube(n)))
        out.append((f"cross{n}", "body", lambda n=n: B.PolytopeBody.cross(n)))
    for leaves in take(range(2, 6)):
        for expr in take(hanner_exprs(leaves)):
            out.append((f"hanner {expr}", "body", lambda e=expr: B.hanner_body(e)))
    rng = np.random.default_rng(22)
    for n in take(range(3, 7)):
        for _ in take(range(6)):
            u = W.random_normal(rng, n)
            for cut in ("section", "projection"):
                out.append((f"{cut} cube{n} {u}", "body",
                            lambda n=n, u=u, cut=cut: getattr(B, f"hyperplane_{cut}")(
                                B.PolytopeBody.cube(n), u)))
    for leaves in take(range(3, 6)):
        for _ in take(range(4)):
            expr = random_hanner_expr(leaves, rng)
            u = W.random_normal(rng, leaves)
            for cut in ("section", "projection"):
                out.append((f"{cut} {expr} {u}", "body",
                            lambda e=expr, u=u, cut=cut: getattr(B, f"hyperplane_{cut}")(
                                B.hanner_body(e), u)))
            out.append((f"bound {expr} {u}", "bound", lambda e=expr, u=u: (B.hanner_body(e), u)))
    for M in take(W.CROSS3_IMAGES + (W.FAULT_IMAGE,)):
        out.append((f"image cross3 {M}", "body", lambda M=M: B.PolytopeBody.cross(3).linear_image(
            [[Fraction(x) for x in row] for row in M])))
    # the bodies of acceptance criteria 1, 2, 3 and 10, drawn as the tests draw them
    for n in take(range(1, 7)):
        for kind in ("cube", "cross"):
            out.append((f"criterion 1 {kind}{n}", "body",
                        lambda n=n, kind=kind: getattr(B.PolytopeBody, kind)(n)))
    rng = np.random.default_rng(2024)
    for _ in take(range(30)):
        expr = random_hanner_expr(int(rng.integers(2, 7)), rng)
        out.append((f"criterion 2 {expr}", "body", lambda e=expr: B.hanner_body(e)))
    rng = np.random.default_rng(3)
    for n in take((3, 4, 5)):
        for _ in take(range(200)):
            u = random_rational_normal(rng, n, max_num=7, max_den=5)
            out.append((f"criterion 3 cube{n} {u}", "body",
                        lambda n=n, u=u: B.hyperplane_section(B.PolytopeBody.cube(n), u)))
    rng = np.random.default_rng(10)
    for n in take((3, 4, 5)):
        for _ in take(range(34 if n != 5 else 32)):
            expr = random_hanner_expr(n, rng)
            u = random_rational_normal(rng, n)
            out.append((f"criterion 10 {expr} {u}", "bound",
                        lambda e=expr, u=u: (B.hanner_body(e), u)))
    for n in take((3, 4, 5)):
        for axis in take(range(n)):
            u = tuple(Fraction(int(i == axis)) for i in range(n))
            out.append((f"criterion 10 cube{n} e{axis}", "bound",
                        lambda n=n, u=u: (B.PolytopeBody.cube(n), u)))
    return out


def exact_lines(quick: bool):
    for label, kind, make in exact_cases(quick):
        yield from pair_lines(label, make) if kind == "body" else bound_lines(label, *make())
    # the frame of each l_p section of the `sampling` workload: its normals
    # drawn as `build_sampling` draws them, one Monte Carlo seed after each
    for seed in first(SAMPLING_SEEDS, quick):
        rng = np.random.default_rng([seed, 2])
        for p in (1.5, 3.0, 6.0):
            for n in (3, 4):
                for k in range(3):
                    u = rng.normal(size=n)
                    u /= np.linalg.norm(u)
                    rng.integers(2**31)
                    frame = B.orthogonal_complement_basis(u)
                    yield f"sampling seed={seed} p={p} n={n} k={k} frame={digest(frame)}"


# ---------------------------------------------------------------------------
# capacity


def product(kind, arg):
    """K x K°, or its one-step reduction, as the workload builds it."""
    if kind == "cross3":
        K = B.PolytopeBody.cross(3)
    elif kind == "hanner":
        K = B.hanner_body(arg)
    elif kind == "lp":
        K = B.LpBallBody(arg, 2)
    elif kind == "image":
        K = B.PolytopeBody.cross(3).linear_image(
            [[Fraction(x) for x in row] for row in W.CROSS3_IMAGES[arg]])
    elif kind == "reduce":
        image, normal = arg
        S = product("cross3", None) if image is None else product("image", image)
        return SY.reduce_product(S, [Fraction(x) for x in normal])
    elif kind == "fault":
        K = B.PolytopeBody.cross(3).linear_image(
            [[Fraction(x) for x in row] for row in W.FAULT_IMAGE])
        return SY.reduce_product(B.lagrangian_product(K), W.FAULT_NORMAL)
    else:
        raise ValueError(kind)
    return B.lagrangian_product(K)


def capacity_lines(quick: bool):
    """B^4, the fixed cases, then the pool."""
    full, sym = "capacity_estimate", "symmetric_capacity_estimate"
    cases = [("full ball B4", full, lambda: B.LpBallBody(2.0, 4)),
             ("full cross3", full, lambda: product("cross3", None)),
             (f"full lp{W.MC_P}", full, lambda: product("lp", W.MC_P)),
             ("symmetric X(S, L(S, S))", sym, lambda: product("hanner", "X(S, L(S, S))")),
             ("full reduce fault", full, lambda: product("fault", None))]
    for name, kind, arg in W.capacity_pool():
        cases.append((f"{name} {kind} {arg}", name, lambda kind=kind, arg=arg: product(kind, arg)))
    for label, name, make in first(cases, quick):
        est = getattr(C, name)(make(), m=W.EST_M, starts=W.EST_STARTS, seed=W.EST_SEED)
        loop = hashlib.sha256(est.loop.vertices.tobytes()).hexdigest()
        yield (f"{label:<40} {est.value.hex()} {loop} iterations={est.iterations} "
               f"restarts={est.restarts} converged={est.converged}")


# ---------------------------------------------------------------------------
# mc


def mc_lines(quick: bool):
    """One line per `mc_volume` call of each case; a case makes one or two."""
    kinds = [
        [(op.label, op.run) for op in workload_ops(build) if op.label.startswith(prefix)]
        for build, prefix in ((W.build_sampling, "mc mahler"), (W.build_exact, "cli volume mc"),
                              (W.build_capacity, "mc volume"))
    ] + [
        [("mc mahler cube4 section", lambda: V.mahler_product(
            B.hyperplane_section(B.PolytopeBody.cube(4), CUBE4_NORMAL),
            samples=10**5, seed=SEED))],
        [("criterion 4 sections", lambda: suite_sections_lp(**CRITERION4))],
    ]
    calls = []
    mc_volume = V.mc_volume

    def recording(body, samples, seed, **kw):
        res = mc_volume(body, samples, seed, **kw)
        calls.append((body, res))
        return res

    V.mc_volume = recording  # the CLI and volume_of look it up on the module
    try:
        for i, (label, run) in enumerate(case for kind in kinds for case in first(kind, quick)):
            run()
            for j, (body, res) in enumerate(calls):
                box = float(np.prod(2.0 * body.bounding_halfwidths()))
                hits = round(res.value / box * res.samples)
                yield (f"{i:02d}.{j:02d} {label:<36} value={res.value.hex()} "
                       f"ci={res.ci_halfwidth.hex()} hits={hits} samples={res.samples}")
            calls.clear()
    finally:
        V.mc_volume = mc_volume


# ---------------------------------------------------------------------------
# sampling


def field_text(value) -> str:
    """A float as hex, an array or a list as the SHA-256 of its floats."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, np.ndarray)):
        return digest(value)
    return str(value)


def sampling_lines(quick: bool):
    """Every result of the `sampling` workload that is not a Monte Carlo
    volume: each field of its report, dict or dataclass, in order.  The
    embedding checks read the profiles the operations before them build."""
    ops = [op for op in workload_ops(W.build_sampling) if not op.label.startswith("mc mahler")]
    if quick:
        ops = [next(op for op in ops if op.label.startswith(kind))
               for kind in ("crofton", "embedding profile", "embedding check", "reduce_ball")]
    for op in ops:
        res = op.run()
        fields = res.items() if isinstance(res, dict) else (
            (f.name, getattr(res, f.name)) for f in dataclasses.fields(res) if f.repr)
        yield f"{op.label} " + " ".join(f"{k}={field_text(v)}" for k, v in fields)


# ---------------------------------------------------------------------------


KINDS = {"exact": exact_lines, "capacity": capacity_lines, "mc": mc_lines,
         "sampling": sampling_lines}


def compare(a: Path, b: Path) -> int:
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    differ = [(x, y) for x, y in zip(la, lb) if x != y]
    for x, y in differ:
        print(f"- {x}\n+ {y}")
    if len(la) != len(lb):
        print(f"line counts differ: {len(la)} != {len(lb)}")
    print(f"{len(differ)} of {min(len(la), len(lb))} lines differ", file=sys.stderr)
    return 1 if differ or len(la) != len(lb) else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="only the first case of every kind")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    import_library()
    for kind, lines in KINDS.items():
        for line in lines(args.quick):
            print(f"{kind} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
