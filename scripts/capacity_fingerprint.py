#!/usr/bin/env python3
"""Bit-level fingerprint of the capacity estimates of the benchmark's bodies.

    python scripts/capacity_fingerprint.py [--m 48] [--starts 12] [--seed 6] \
        [--max-iters 50000] > fp.txt
    python scripts/capacity_fingerprint.py --compare base.txt change.txt

Runs the estimator on the round ball B^4, on the fixed cases of the
`capacity` workload and on every entry of its `capacity_pool()`, at the
workload's settings by default (bodies, constants and the pool are read
from perfbench/workloads.py).  Prints one line per estimate: the label, the
value as a float hex, the SHA-256 of the loop's bytes, the iteration and
restart counts and `converged`.  Two checkouts whose estimates are
bit-identical print the same lines; `--compare` reads two such outputs and
exits 1 on any difference, naming each differing line.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads as W  # noqa: E402
from mahlerlab import bodies as B  # noqa: E402
from mahlerlab import capacity as C  # noqa: E402
from mahlerlab import symplectic as SY  # noqa: E402


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


def cases():
    """(label, estimator name, body): B^4, the fixed cases, then the pool."""
    full, sym = "capacity_estimate", "symmetric_capacity_estimate"
    out = [("full ball B4", full, B.LpBallBody(2.0, 4)),
           ("full cross3", full, product("cross3", None)),
           (f"full lp{W.MC_P}", full, product("lp", W.MC_P)),
           ("symmetric X(S, L(S, S))", sym, product("hanner", "X(S, L(S, S))")),
           ("full reduce fault", full, product("fault", None))]
    for name, kind, arg in W.capacity_pool():
        out.append((f"{name} {kind} {arg}", name, product(kind, arg)))
    return out


def fingerprint(est) -> str:
    loop = hashlib.sha256(est.loop.vertices.tobytes()).hexdigest()
    return (f"{est.value.hex()} {loop} iterations={est.iterations} "
            f"restarts={est.restarts} converged={est.converged}")


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
    ap.add_argument("--m", type=int, default=W.EST_M)
    ap.add_argument("--starts", type=int, default=W.EST_STARTS)
    ap.add_argument("--seed", type=int, default=W.EST_SEED)
    ap.add_argument("--max-iters", type=int, default=50_000)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for label, name, S in cases():
        est = getattr(C, name)(S, m=args.m, starts=args.starts, seed=args.seed,
                               max_iters=args.max_iters)
        print(f"{label:<40} {fingerprint(est)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
