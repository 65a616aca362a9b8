#!/usr/bin/env python3
"""Scan volume products of random central sections.

Exact arithmetic for cube/Hanner sections, Monte Carlo for l_p balls.
Prints one JSON line per case and a summary table.

Examples:
    python scripts/section_scan.py --family cube --n 4 --trials 50
    python scripts/section_scan.py --family lp --p 1.5 --n 4 --trials 10 \
        --samples 200000
"""
import argparse
import json
import sys

import numpy as np

from mahlerlab import bodies as B
from mahlerlab import volume as V
from mahlerlab.verify import random_hanner_expr, random_rational_normal


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=["cube", "hanner", "lp"], default="cube")
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--p", type=float, default=1.5)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--samples", type=int, default=10**5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.trials < 1:
        ap.error(f"--trials must be >= 1, got {args.trials}")

    rng = np.random.default_rng(args.seed)
    bound = float(V.mahler_bound(args.n - 1))
    ratios = []
    for t in range(args.trials):
        if args.family == "lp":
            body = B.LpBallBody(args.p, args.n)
            u = rng.normal(size=args.n)
            u /= np.linalg.norm(u)
            label = f"lp(p={args.p})"
        else:
            expr = ("X(" + ", ".join(["S"] * args.n) + ")"
                    if args.family == "cube" else random_hanner_expr(args.n, rng))
            body = B.hanner_body(expr)
            u = random_rational_normal(rng, args.n)
            label = expr
        sec = B.hyperplane_section(body, u)
        rep = V.mahler_product(sec, samples=args.samples, seed=args.seed + t)
        ratios.append(rep.ratio)
        print(json.dumps({
            "trial": t, "body": label,
            "normal": [str(x) for x in u] if args.family != "lp" else list(u),
            "product": rep.product, "bound": bound, "ratio": rep.ratio,
            "ci": rep.ci_halfwidth,
            "exact_ratio": str(rep.exact_ratio) if rep.exact_ratio is not None else None,
        }))
    ratios = np.array(ratios)
    print(f"# {args.trials} sections of {args.family} in dim {args.n}: "
          f"ratio min {ratios.min():.6f} mean {ratios.mean():.6f} "
          f"max {ratios.max():.6f}", file=sys.stderr)
    return 0 if ratios.min() >= 1 - 1e-9 or args.family == "lp" else 2


if __name__ == "__main__":
    sys.exit(main())
