#!/usr/bin/env python3
"""Calibration table for the capacity estimator.

Runs the loop-descent estimator on bodies with known capacity (round balls,
K x K° products, planar bodies) across polygon resolutions and prints the
relative errors, so estimator regressions stand out at a glance.  A second
table gives each estimate's wall time, descent iterations and microseconds
per iteration.
"""
import argparse
import math
import sys
import time

from mahlerlab import bodies as B
from mahlerlab import capacity as C
from mahlerlab import volume as V


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--starts", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--m", type=int, nargs="+", default=[16, 32, 64])
    args = ap.parse_args()

    hexagon = B.hyperplane_section(B.PolytopeBody.cube(3), [1, 1, 1])
    hex_area = float(V.exact_polytope_volume(hexagon).value)
    cases = [
        ("ball B^4", B.LpBallBody(2.0, 4), math.pi),
        ("ball B^6", B.LpBallBody(2.0, 6), math.pi),
        ("cross2 x cube2", B.lagrangian_product(B.PolytopeBody.cross(2)), 4.0),
        ("cross3 x cube3", B.lagrangian_product(B.PolytopeBody.cross(3)), 4.0),
        ("hexagon (2d)", hexagon, hex_area),
    ]
    print(f"{'body':<16} {'target':>9} " +
          " ".join(f"{'m=%d' % m:>12}" for m in args.m))
    worst = 0.0
    timings = []
    for name, body, target in cases:
        row = [f"{name:<16} {target:9.5f}"]
        for m in args.m:
            t0 = time.perf_counter()
            est = C.capacity_estimate(body, m=m, starts=args.starts,
                                      seed=args.seed)
            seconds = time.perf_counter() - t0
            rel = abs(est.value - target) / target
            worst = max(worst, rel)
            row.append(f"{est.value:9.5f}({100 * rel:4.2f}%)")
            timings.append((name, m, seconds, est.iterations))
        print(" ".join(row))
    print(f"\n{'body':<16} {'m':>4} {'seconds':>9} {'iterations':>10} {'us/iter':>9}")
    for name, m, seconds, iters in timings:
        print(f"{name:<16} {m:4d} {seconds:9.3f} {iters:10d} {1e6 * seconds / max(iters, 1):9.1f}")
    print(f"# worst relative error: {100 * worst:.3f}%", file=sys.stderr)
    return 0 if worst < 0.02 else 2


if __name__ == "__main__":
    sys.exit(main())
