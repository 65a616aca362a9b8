#!/usr/bin/env python3
"""Certified-radius trend for the planar embedding.

For a sequence of smoothing exponents, prints the rectangle defect
eps = 4/c_n - 1 of the unit curve's Gamma-function area c_n, the certified
radius sqrt((4/pi)(1 - N eps)), the containment fraction at that radius and
the map's Jacobian defect.  The radius should approach sqrt(4/pi) ~ 1.1284
from below as the exponent grows.  Exits 2 when a point falls outside, eps
grows with the exponent, or the Jacobian defect exceeds E.JACOBIAN_TOL, as
`mahlerlab embed` does.
"""
import argparse
import math
import sys

from mahlerlab import embedding as E


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--copies", type=int, default=2)
    ap.add_argument("--nexp", type=int, nargs="+", default=[2, 4, 8, 16, 32])
    ap.add_argument("--samples", type=int, default=10**5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"alpha={args.alpha}, copies={args.copies}, "
          f"radius limit sqrt(4/pi)={E.R_MAX:.6f}")
    print(f"{'n_exp':>6} {'eps':>10} {'radius':>10} {'fraction':>9} {'|detJ-1|':>10}")
    prev_eps = math.inf
    ok = True
    for n in args.nexp:
        prof = E.build_profile(args.alpha, n)
        rep = E.product_embedding_check(args.alpha, args.copies, n,
                                        samples=args.samples, seed=args.seed,
                                        profile=prof)
        jac = E.jacobian_grid_check(prof)
        print(f"{n:>6} {rep['eps']:>10.6f} {rep['radius']:>10.6f} "
              f"{rep['contained_fraction']:>9.6f} "
              f"{jac['max_abs_det_minus_1']:>10.2e}")
        ok &= (rep["contained_fraction"] == 1.0 and rep["eps"] <= prev_eps + 1e-12
               and jac["max_abs_det_minus_1"] <= E.JACOBIAN_TOL)
        prev_eps = rep["eps"]
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
