#!/usr/bin/env python3
"""Bit-level fingerprint of the Monte Carlo volumes of the benchmark and of
acceptance criterion 4.

    python scripts/mc_fingerprint.py [--seed 71] [--quick] > fp.txt
    python scripts/mc_fingerprint.py --compare base.txt change.txt

Runs, at the given workload seed: both halves of every `mc mahler` product
of the `sampling` workload, the two `cli volume mc` calls of `exact` and
the product volume of `capacity` (the operations are built by
perfbench/workloads.py, read, not changed); a section of cube4 by a float
normal and its polar, whose membership runs the fiber search on a polytope
child; and six products of criterion 4 (p in 1.5, 3, 6 and n in 3, 4, one
trial each, 10^6 samples, seed 4).  Prints one line per `mc_volume` call:
the label, the value and the CI half-width as float hex, the hit count and
the sample count.  Two checkouts whose estimates are bit-identical print
the same lines; `--compare` reads two such outputs and exits 1 on any
difference, naming each differing line.  `--quick` keeps only the first
case of every kind.
"""
from __future__ import annotations

import argparse
import importlib
import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads as W  # noqa: E402
from capacity_fingerprint import compare  # noqa: E402
from mahlerlab import bodies as B  # noqa: E402
from mahlerlab import volume as V  # noqa: E402
from mahlerlab import verify  # noqa: E402

MODULES = ("bodies", "volume", "symplectic", "capacity", "crofton", "embedding", "cli")

CUBE4_NORMAL = (0.3, -0.7, 0.5, 0.41)
CRITERION4 = {"p_values": (1.5, 3.0, 6.0), "n_values": (3, 4), "trials": 1,
              "samples": 10**6, "seed": 4}


def cases(seed: int, quick: bool):
    """(label, thunk) per case; each thunk makes one or two mc_volume calls."""
    ml = types.SimpleNamespace(**{name: importlib.import_module(f"mahlerlab.{name}")
                                  for name in MODULES})
    kinds = [
        [(op.label, op.run) for op in W.build_sampling(ml, seed)
         if op.label.startswith("mc mahler")],
        [(op.label, op.run) for op in W.build_exact(ml, seed)
         if op.label.startswith("cli volume mc")],
        [(op.label, op.run) for op in W.build_capacity(ml, seed)
         if op.label.startswith("mc volume")],
        [("mc mahler cube4 section", lambda: V.mahler_product(
            B.hyperplane_section(B.PolytopeBody.cube(4), CUBE4_NORMAL),
            samples=10**5, seed=seed))],
        [("criterion 4 sections", lambda: verify.suite_sections_lp(**CRITERION4))],
    ]
    for kind in kinds:
        yield from kind[:1] if quick else kind


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=71)
    ap.add_argument("--quick", action="store_true",
                    help="only the first case of every kind")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    calls = []
    mc_volume = V.mc_volume

    def recording(body, samples, seed, **kw):
        res = mc_volume(body, samples, seed, **kw)
        calls.append((body, res))
        return res

    V.mc_volume = recording  # the CLI and volume_of look it up on the module
    for i, (label, run) in enumerate(cases(args.seed, args.quick)):
        run()
        for j, (body, res) in enumerate(calls):
            box = float(np.prod(2.0 * body.bounding_halfwidths()))
            hits = round(res.value / box * res.samples)
            print(f"{i:02d}.{j:02d} {label:<36} value={res.value.hex()} "
                  f"ci={res.ci_halfwidth.hex()} hits={hits} samples={res.samples}", flush=True)
        calls.clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
