"""Span tracer that instruments mahlerlab from outside the package.

`Tracer.install` replaces public functions and methods of mahlerlab with
timing wrappers by patching module and class attributes; `uninstall` puts the
originals back.  Spans and counters stay in memory until `dump` writes them
out.  A span's self time is its duration minus the durations of its direct
child spans, so each layer is charged only for its own work.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute or Class.method or *.method, span name or None for a
# counter without a span, counters).  A counter is (name, "calls") for one
# per call, or (name, fn) with fn(args, kwargs, result) -> amount.
_OUTERMOST = {"bodies.gauge", "bodies.support_witness"}


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) == 0:
        return 1
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _hull_simplices(args, kwargs, result):
    return len(args[0].facet_simplices)


def _estimate_iterations(args, kwargs, result):
    return result.iterations


def _estimate_restarts(args, kwargs, result):
    return result.restarts


def _crofton_circles(args, kwargs, result):
    return result["samples"] + result["degenerate"]


def _crofton_degenerate(args, kwargs, result):
    return result["degenerate"]


def _embedding_points(args, kwargs, result):
    return result["samples"]


def _mc_points(args, kwargs, result):
    return result.samples


def _points(args, kwargs, result):
    # methods get (body, points, ...); fiber_min_gauge gets (child, x0, ...)
    return _rows(args[1])


SPECS = [
    ("exactgeom", "ExactHull.__init__", "exactgeom.hull",
     [("exactgeom.hull_simplices", _hull_simplices)]),
    ("exactgeom", "ExactHull.volume", "exactgeom.hull", []),
    ("exactgeom", "ExactHull.facets", "exactgeom.hull", []),
    ("exactgeom", "ExactHull.vertex_points", "exactgeom.hull", []),
    ("exactgeom", "dd_vertices", "exactgeom.dd", [("exactgeom.dd_calls", "calls")]),
    ("exactgeom", "bareiss_det", None, [("exactgeom.det_calls", "calls")]),
    ("bodies", "*.gauge", "bodies.gauge", [("bodies.gauge_points", _points)]),
    ("bodies", "*.contains_batch", "bodies.gauge",
     [("bodies.gauge_points", _points)]),
    ("bodies", "*.support_witness", "bodies.support_witness",
     [("bodies.support_witness_rows", _points)]),
    ("bodies", "fiber_min_gauge", "bodies.fiber_min",
     [("bodies.fiber_min_points", _points)]),
    ("bodies", "PolytopeBody.vertices", "bodies.convert", []),
    ("bodies", "PolytopeBody.halfspaces", "bodies.convert", []),
    ("bodies", "PolytopeBody.extreme_vertices", "bodies.convert", []),
    ("bodies", "hyperplane_section", "bodies.convert", []),
    ("bodies", "hyperplane_projection", "bodies.convert", []),
    ("volume", "exact_polytope_volume", "volume.exact", []),
    ("volume", "reduction_volume_bound", "volume.exact", []),
    ("volume", "mahler_product", "volume.dispatch", []),
    ("volume", "volume_of", "volume.dispatch", []),
    ("volume", "mc_volume", "volume.mc", [("volume.mc_points", _mc_points)]),
    ("symplectic", "reduce_product", "symplectic.reduce",
     [("symplectic.reduce_calls", "calls")]),
    ("symplectic", "reduce_ball", "symplectic.reduce_ball", []),
    ("capacity", "capacity_estimate", "capacity.estimate",
     [("capacity.iterations", _estimate_iterations),
      ("capacity.restarts", _estimate_restarts)]),
    ("capacity", "symmetric_capacity_estimate", "capacity.estimate",
     [("capacity.iterations", _estimate_iterations),
      ("capacity.restarts", _estimate_restarts)]),
    ("crofton", "sigma_plus_area", "crofton.area", []),
    ("crofton", "crofton_check", "crofton.count",
     [("crofton.circles", _crofton_circles), ("crofton.degenerate", _crofton_degenerate)]),
    ("embedding", "build_profile", "embedding.profile", []),
    ("embedding", "product_embedding_check", "embedding.check",
     [("embedding.points", _embedding_points)]),
    ("cli", "main", "cli.main", [("cli.calls", "calls")]),
]


class Tracer:
    """In-memory spans [name, start_ns, duration_ns, parent index, phase]
    and counters per phase, filled by the wrappers `install` puts in place.
    The phase ("setup" or "rounds") is whatever `phase` holds when the call
    starts."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.counters: dict[str, dict[str, float]] = {
            "setup": defaultdict(float), "rounds": defaultdict(float)}
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter_ns()

    # -- installation

    def install(self) -> None:
        """Wrap every target in SPECS in the mahlerlab modules now loaded."""
        modules = {name[len("mahlerlab."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("mahlerlab.") and mod is not None}
        for modname, target, span, counters in SPECS:
            mod = modules[modname]
            owner_name, _, attr = target.rpartition(".")
            if owner_name == "*":
                owners = [cls for cls in vars(mod).values()
                          if isinstance(cls, type) and cls.__module__ == mod.__name__
                          and attr in vars(cls)]
            elif owner_name:
                owners = [getattr(mod, owner_name)]
            else:
                owners = []
            if owners:
                for cls in owners:
                    self._patch(cls, attr, self._wrap(vars(cls)[attr], span, counters))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(original, span, counters)
            # a function imported by name elsewhere is patched there too
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapped) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn, span, counters):
        tracer = self

        def count(args, kwargs, result):
            into = tracer.counters[tracer.phase]
            for name, how in counters:
                into[name] += 1 if how == "calls" else how(args, kwargs, result)

        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(args, kwargs, result)
                return result
            return counted

        outermost = span in _OUTERMOST

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # nested gauge / witness calls (a product body asking its
            # factors, a fiber search probing points) are part of the
            # outermost call and get no span of their own
            if outermost and (tracer._open[span] or tracer._open["bodies.fiber_min"]):
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([span, 0, 0, parent, tracer.phase])
            tracer._stack.append(idx)
            tracer._open[span] += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._open[span] -= 1
                tracer._stack.pop()
                rec = tracer.spans[idx]
                rec[1] = start - tracer._t0
                rec[2] = end - start
            count(args, kwargs, result)
            return result

        return traced

    # -- results

    def totals(self, phase: str) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name in one phase: (inclusive, self)."""
        child = [0] * len(self.spans)
        for _, _, dur, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += dur
        incl: dict[str, float] = defaultdict(float)
        excl: dict[str, float] = defaultdict(float)
        for i, (name, _, dur, _, span_phase) in enumerate(self.spans):
            if span_phase == phase:
                incl[name] += dur * 1e-9
                excl[name] += (dur - child[i]) * 1e-9
        return incl, excl

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "counters": dict(self.counters),
                       "span_fields": ["name", "start_ns", "duration_ns", "parent", "phase"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one set-up plus one round: the traced set-up
    counts once, the traced rounds are averaged.  Times are self seconds per
    layer; rates divide work by the inclusive time of the call that did it."""
    r = float(rounds)
    setup_incl, setup_excl = tracer.totals("setup")
    round_incl, round_excl = tracer.totals("rounds")
    incl = {k: setup_incl.get(k, 0.0) + round_incl.get(k, 0.0) / r
            for k in set(setup_incl) | set(round_incl)}
    excl = {k: setup_excl.get(k, 0.0) + round_excl.get(k, 0.0) / r
            for k in set(setup_excl) | set(round_excl)}
    incl, excl = defaultdict(float, incl), defaultdict(float, excl)
    c = defaultdict(float)
    for k in set(tracer.counters["setup"]) | set(tracer.counters["rounds"]):
        c[k] = tracer.counters["setup"][k] + tracer.counters["rounds"][k] / r

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    return {
        "exactgeom.hull_s": (excl["exactgeom.hull"], "s"),
        "exactgeom.hull_simplices": (c["exactgeom.hull_simplices"], "count"),
        "exactgeom.det_calls": (c["exactgeom.det_calls"], "count"),
        "exactgeom.dd_s": (excl["exactgeom.dd"], "s"),
        "exactgeom.dd_calls": (c["exactgeom.dd_calls"], "count"),
        "bodies.gauge_s": (excl["bodies.gauge"], "s"),
        "bodies.gauge_points": (c["bodies.gauge_points"], "count"),
        "bodies.fiber_min_s": (excl["bodies.fiber_min"], "s"),
        "bodies.fiber_min_points": (c["bodies.fiber_min_points"], "count"),
        "bodies.support_witness_s": (excl["bodies.support_witness"], "s"),
        "bodies.support_witness_rows": (c["bodies.support_witness_rows"], "count"),
        "bodies.convert_s": (excl["bodies.convert"], "s"),
        "volume.exact_s": (excl["volume.exact"], "s"),
        "volume.mc_s": (excl["volume.mc"], "s"),
        "volume.mc_points": (c["volume.mc_points"], "count"),
        "volume.mc_points_per_s": (rate(c["volume.mc_points"], incl["volume.mc"]), "1/s"),
        "symplectic.reduce_s": (excl["symplectic.reduce"], "s"),
        "symplectic.reduce_calls": (c["symplectic.reduce_calls"], "count"),
        "symplectic.reduce_ball_s": (excl["symplectic.reduce_ball"], "s"),
        "capacity.estimate_s": (excl["capacity.estimate"], "s"),
        "capacity.iterations": (c["capacity.iterations"], "count"),
        "capacity.iter_us": (1e6 * rate(incl["capacity.estimate"], c["capacity.iterations"]),
                             "us"),
        "capacity.restarts": (c["capacity.restarts"], "count"),
        "crofton.area_s": (excl["crofton.area"], "s"),
        "crofton.count_s": (excl["crofton.count"], "s"),
        "crofton.circles": (c["crofton.circles"], "count"),
        "crofton.circles_per_s": (rate(c["crofton.circles"], excl["crofton.count"]), "1/s"),
        "crofton.degenerate": (c["crofton.degenerate"], "count"),
        "embedding.profile_s": (excl["embedding.profile"], "s"),
        "embedding.check_s": (excl["embedding.check"], "s"),
        "embedding.points_per_s": (rate(c["embedding.points"], incl["embedding.check"]), "1/s"),
        "cli.calls": (c["cli.calls"], "count"),
        "cli.main_s": (incl["cli.main"], "s"),
        "cli.overhead_ms": (1e3 * rate(excl["cli.main"], c["cli.calls"]), "ms"),
    }
