#!/usr/bin/env python3
"""Fingerprint of the exact outputs: volumes, point lists, descriptions and
float arrays of the exact bodies, and the float frames of l_p sections.

    python scripts/exact_fingerprint.py [--quick] > fp.txt
    python scripts/exact_fingerprint.py --compare base.txt change.txt

Covers cube and cross n = 3..6, every binary Hanner tree of 2 to 5 leaves,
sections and projections of cubes and Hanner polytopes by seeded rational
normals, the integer linear images of cross3 of the `capacity` workload,
reduction bounds, and the bodies of acceptance criteria 1-3 and 10 (cube
and cross n = 1..6, 30 Hanner trees, 600 cube sections, 100 Hanner and 9
cube reduction bounds).  For each body it prints three lines: the body,
its polar taken after the body's volume (`polar`), and the polar of a fresh
copy taken before that copy's hull exists (`polar-first`).  Each holds the
exact volume (a Fraction string, or `(r, d)` for r sqrt(d)), the vertex and
facet lists (`vertices()`, `extreme_vertices()`, the `a` of `halfspaces()`
and the hull's `facets()`, each sorted by value), `describe()`, and the
SHA-256 of the float vertex and normal arrays (`_floats("V")`,
`_floats("A")`).  A reduction bound adds its two exact sides.  Last come
the SHA-256 of the float Gram-Schmidt frame of each l_p section the
`sampling` workload draws at seeds 71..80.
`--quick` keeps only the first of every kind of case.

Two checkouts whose exact outputs are identical print the same lines;
`--compare` reads two such outputs and exits 1 on any difference, naming
each differing line.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads as W  # noqa: E402
from mahlerlab import bodies as B  # noqa: E402
from mahlerlab import volume as V  # noqa: E402
from mahlerlab.verify import random_hanner_expr, random_rational_normal  # noqa: E402

SAMPLING_SEEDS = range(71, 81)


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


def float_digest(core: B.PolytopeBody, key: str) -> str:
    return hashlib.sha256(core._floats(key).tobytes()).hexdigest()


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
            f"describe={desc} fV={float_digest(core, 'V')} fA={float_digest(core, 'A')}")


def pair_lines(label: str, make) -> list[str]:
    """The body of ``make()``, then its polar taken after the body's volume,
    as `mahler_product` takes it, then the polar of a second copy taken
    before that copy's hull exists."""
    body = make()
    return [body_line(f"{label} body", body), body_line(f"{label} polar", body.polar()),
            body_line(f"{label} polar-first", make().polar())]


def cases(quick: bool):
    """(label, kind, make): kind "body" for a body and its polar, "bound"
    for a reduction bound ``(body, u)``."""
    def take(items):
        items = list(items)
        return items[:1] if quick else items

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


def bound_lines(label: str, body, u) -> list[str]:
    rep = V.reduction_volume_bound(body, u)
    return [f"{label} lhs={rep.lhs_exact} rhs={rep.rhs_exact}",
            *pair_lines(f"{label} projection", lambda: B.hyperplane_projection(body, u))]


def sampling_lines(quick: bool) -> list[str]:
    """The frame of each l_p section of the `sampling` workload: its normals
    drawn as `build_sampling` draws them, one Monte Carlo seed after each."""
    out = []
    for seed in list(SAMPLING_SEEDS)[:1] if quick else SAMPLING_SEEDS:
        rng = np.random.default_rng([seed, 2])
        for p in (1.5, 3.0, 6.0):
            for n in (3, 4):
                for k in range(3):
                    u = rng.normal(size=n)
                    u /= np.linalg.norm(u)
                    rng.integers(2**31)
                    frame = B.orthogonal_complement_basis(u)
                    out.append(f"sampling seed={seed} p={p} n={n} k={k} "
                               f"frame={hashlib.sha256(frame.tobytes()).hexdigest()}")
    return out


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
    for label, kind, make in cases(args.quick):
        lines = pair_lines(label, make) if kind == "body" else bound_lines(label, *make())
        print("\n".join(lines), flush=True)
    print("\n".join(sampling_lines(args.quick)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
