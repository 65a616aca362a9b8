"""mahlerlab benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; mahlerlab is imported from ./src.
With --trace 0 the last line of standard output carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
Details of every operation, and the spans of a traced run, are written under
perfbench/out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 21

# one BLAS thread, set before numpy loads.  mahlerlab's matrices are small:
# with two threads on a 2-CPU machine a 10^5-point Monte Carlo volume of a
# polytope took 63 ms instead of 12 ms, and its time jumped between runs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import types  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

MAHLERLAB_MODULES = ("exactgeom", "bodies", "volume", "symplectic", "capacity",
                     "crofton", "embedding", "cli")


# The reference kernel: a fixed computation, independent of mahlerlab,
# timed just before and just after every timed call.  A shared host runs
# this machine at two speeds, for stretches of seconds to a minute, and a
# 30-second run may see only one of them.  Each time is divided by the
# kernel's time around it and multiplied by the kernel's reference time, so
# times are reported at one reference speed.  Each workload has a kernel of
# its own kind of work, the one that tracked its slowdown best (see
# README.md, "Reference speed"): rational arithmetic for the exact kernels,
# a small numpy product for the float work.
_REF_X = np.random.default_rng(0).normal(size=(4000, 3))
_REF_A = np.random.default_rng(1).normal(size=(8, 3))


def _rational_kernel() -> None:
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)


def _numpy_kernel() -> None:
    y = np.max(_REF_X @ _REF_A.T, axis=1)
    np.sqrt(np.abs(y)).sum()


# kernel and reference time: about the kernel's time at the fast speed of
# the machine README.md describes
REFERENCE = {"rational": (_rational_kernel, 5e-4), "numpy": (_numpy_kernel, 3e-4)}
WORKLOAD_REFERENCE = {"exact": "rational", "sampling": "numpy", "capacity": "numpy"}


class Reference:
    """Scales measured times to the reference speed of one kernel."""

    def __init__(self, name: str):
        self.name = name
        self.kernel, self.ref_seconds = REFERENCE[name]

    def seconds(self) -> float:
        """The faster of two runs of the kernel (the first warms the caches
        the timed call before it may have emptied)."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t0)
        return best

    def scaled(self, seconds: float, before: float, after: float) -> float:
        """A measured time at the reference speed."""
        return seconds * self.ref_seconds / math.sqrt(before * after)


def import_mahlerlab() -> types.SimpleNamespace:
    """Import mahlerlab from ./src afresh (dropping any earlier copy)."""
    for name in [m for m in sys.modules if m == "mahlerlab" or m.startswith("mahlerlab.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"mahlerlab.{name}") for name in MAHLERLAB_MODULES})


def setup(workload: str, seed: int, ref: Reference, repeats: int = SETUP_REPEATS,
          before_build=None):
    """Import mahlerlab and build the inputs `repeats` times; the last copy
    is kept.  Returns (modules, ops, median seconds at the reference speed)."""
    from workloads import WORKLOADS

    times = []
    for i in range(repeats):
        gc.collect()
        before = ref.seconds()
        t0 = time.perf_counter()
        ml = import_mahlerlab()
        if before_build is not None and i == repeats - 1:
            t_hook = time.perf_counter()
            before_build()
            t0 += time.perf_counter() - t_hook
        ops = WORKLOADS[workload](ml, seed)
        dt = time.perf_counter() - t0
        times.append(ref.scaled(dt, before, ref.seconds()))
    return ml, ops, statistics.median(times)


class Rounds:
    """Whole rounds over the operations until the time is up."""

    def __init__(self, ops, ref: Reference):
        self.ops = ops
        self.ref = ref
        self.times: list[list[float]] = [[] for _ in ops]  # per operation, per round
        self.refs: list[list[tuple[float, float]]] = [[] for _ in ops]  # kernel before, after
        self.round_walls: list[float] = []
        self.rel_ci: dict[int, float] = {}  # Monte Carlo operations: CI / value
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.errors: dict[int, str] = {}

    def run(self, seconds: float) -> int:
        start = time.perf_counter()
        done = 0
        while True:
            wall = 0.0
            for i, op in enumerate(self.ops):
                # every operation starts from the same collector state
                gc.collect()
                ref_before = self.ref.seconds()
                t0 = time.perf_counter()
                try:
                    result = op.run()
                    error = None
                except Exception as e:  # noqa: BLE001 - an operation that raises has failed
                    result, error = None, f"{type(e).__name__}: {e}"
                dt = time.perf_counter() - t0
                ref_after = self.ref.seconds()
                if error is None:
                    try:
                        error = op.check(result)
                    except Exception as e:  # noqa: BLE001 - malformed output fails the check
                        error = f"check raised {type(e).__name__}: {e}"
                wall += self.ref.scaled(dt, ref_before, ref_after)
                self.times[i].append(dt)
                self.refs[i].append((ref_before, ref_after))
                self.attempted += 1
                if error is not None:
                    self.failed += 1
                    self.errors[i] = error
                    if not op.known_fault:
                        self.unexpected.append(f"{op.label}: {error}")
                elif op.mc_rel_ci is not None:
                    self.rel_ci[i] = op.mc_rel_ci(result)
            self.round_walls.append(wall)
            done += 1
            if time.perf_counter() - start >= seconds:
                return done

    def op_times(self) -> list[float]:
        """Each operation's time at the reference speed, as the median over
        its rounds."""
        return [statistics.median(self.ref.scaled(dt, *ref) for dt, ref in zip(t, r))
                for t, r in zip(self.times, self.refs)]

    def mc_figure(self) -> float:
        """Median over Monte Carlo operations of (CI / value) * sqrt(seconds)."""
        op_s = self.op_times()
        figures = [rel * math.sqrt(op_s[i]) for i, rel in self.rel_ci.items()]
        return statistics.median(figures) if figures else 0.0

    def records(self) -> list[dict]:
        return [{"label": op.label, "times": self.times[i], "reference": self.refs[i],
                 "error": self.errors.get(i), "known_fault": op.known_fault}
                for i, op in enumerate(self.ops)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["exact", "sampling", "capacity"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mahlerlab" / "__init__.py").is_file():
        print(f"error: no mahlerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    log = Path("experiments.jsonl")
    log_existed = log.exists()

    from tracer import Tracer, layer_metrics

    tracer = Tracer() if args.trace else None
    # a traced run traces the last set-up's input build
    ref = Reference(WORKLOAD_REFERENCE[args.workload])
    ml, ops, setup_s = setup(args.workload, args.seed, ref,
                             before_build=tracer.install if tracer else None)
    if tracer is not None:
        tracer.uninstall()
    # keep the collector from rescanning modules and inputs in every operation
    gc.collect()
    gc.freeze()
    rounds = Rounds(ops, ref)
    metrics: dict[str, tuple[float, str]]
    if tracer is None:
        n_rounds = rounds.run(args.seconds)
        op_s = rounds.op_times()
        times_ms = [1e3 * t for t in op_s]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(op_s), "s"),
            "op_p50_ms": (statistics.median(times_ms), "ms"),
            "op_p90_ms": (percentile(times_ms, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "mc_rel_ci_x_sqrt_s": (rounds.mc_figure(), "sqrt_s"),
        }
    else:
        # half the time untraced, half traced, on the same inputs
        plain = rounds.run(args.seconds / 2.0)
        plain_wall = statistics.median(rounds.round_walls)
        rounds.round_walls.clear()
        tracer.phase = "rounds"
        tracer.install()
        try:
            n_rounds = rounds.run(args.seconds / 2.0)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, n_rounds)
        metrics["trace.overhead_s"] = (statistics.median(rounds.round_walls) - plain_wall, "s")
        n_rounds += plain

    created_log = log.exists() and not log_existed
    correct = not rounds.unexpected and not created_log
    if created_log:
        rounds.unexpected.append("a run wrote experiments.jsonl")
        log.unlink()
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": n_rounds,
        "blas_threads": BLAS_THREADS, "cpus": len(os.sched_getaffinity(0)),
        "reference_kernel": ref.name, "reference_seconds": ref.ref_seconds,
        "unexpected_failures": rounds.unexpected,
        "operations": rounds.records(),
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT / f"{tag}-spans.json", {"workload": args.workload, "seed": args.seed,
                                               "traced_rounds": n_rounds - plain})
    for text in rounds.unexpected:
        print(f"unexpected failure: {text}", file=sys.stderr)
    print(f"{args.workload}: {n_rounds} rounds, {rounds.attempted} operations, "
          f"{rounds.failed} failed")
    print(json.dumps({
        "correct": correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
