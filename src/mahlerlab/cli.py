"""Command-line front end.

A command that runs to the end (exit code 0 or 2) prints one JSON document
to stdout and, unless ``--no-log`` is given, appends an experiment record
(JSON-lines) to the log.  A run that exits 1 prints only an error message
to stderr (``error: ...``, or argparse's usage message) and appends
nothing: the log keeps no record of failed attempts.  Exit codes: 0
success, 1 usage error (bad arguments, a malformed body, a singular
matrix), 2 mathematical assertion failed (a verified bound was violated).

Environment: MAHLER_LAB_SEED supplies the default seed, MAHLER_LAB_LOG the
default log path (fallback ./experiments.jsonl).
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import bodies as B
from . import capacity as C
from . import crofton as CR
from . import embedding as E
from . import symplectic as SY
from . import volume as V
from .verify import SUITES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2


def body_content_hash(body_or_desc) -> str:
    """Git-style blob hash of the canonical body description."""
    canon = B.canonical_description(body_or_desc).encode()
    return hashlib.sha1(b"blob %d\0" % len(canon) + canon).hexdigest()


def _load_body_arg(text: str) -> B.ConvexBody:
    raw = text.strip()
    if not raw.startswith("{"):
        raw = Path(text).read_text()
    return B.parse_body(raw)


def _parse_normal_arg(text: str):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if any("." in p or "e" in p.lower() for p in parts):
        return np.array([float(p) for p in parts])
    return B.rational_vector(parts)


def _log_path(args) -> Path:
    if args.log:
        return Path(args.log)
    return Path(os.environ.get("MAHLER_LAB_LOG", "experiments.jsonl"))


def _emit(args, command: str, result: dict, seed, body=None, parameters=None,
          exit_code: int = EXIT_OK) -> int:
    record = {
        "version": __version__,
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "seed": seed,
        "parameters": parameters or {},
        "result": result,
    }
    if body is not None:
        record["body_hash"] = body_content_hash(body)
        record["body"] = body.describe()
    print(json.dumps(result, indent=2, default=_json_default))
    if not args.no_log:
        path = _log_path(args)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            fh.write(json.dumps(record, default=_json_default) + "\n")
    return exit_code


def _json_default(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not serializable: {type(x)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_volume(args) -> int:
    body = _load_body_arg(args.body)
    if args.method == "exact":
        res = V.exact_polytope_volume(body)
    elif args.method == "mc":
        res = V.mc_volume(body, args.samples, args.seed)
    else:
        res = V.volume_of(body, samples=args.samples, seed=args.seed)
    return _emit(args, "volume", res.as_dict(), args.seed, body,
                 {"samples": args.samples, "method": args.method})


def cmd_mahler(args) -> int:
    body = _load_body_arg(args.body)
    rep = V.mahler_product(body, samples=args.samples, seed=args.seed)
    return _emit(args, "mahler", rep.as_dict(), args.seed, body,
                 {"samples": args.samples})


def cmd_cut(args) -> int:
    """`section` (body ∩ u^perp) or `project` (body / span(u))."""
    body = _load_body_arg(args.body)
    cut = B.hyperplane_section if args.command == "section" else B.hyperplane_projection
    res = cut(body, _parse_normal_arg(args.normal))
    result = {"body": res.describe()}
    if isinstance(res, (B.PolytopeBody, B.DiagonalImageBody)):
        result["volume"] = V.exact_polytope_volume(res).as_dict()
    return _emit(args, args.command, result, None, body, {"normal": args.normal})


def cmd_reduce(args) -> int:
    body = _load_body_arg(args.body)
    if not isinstance(body, B.LagrangianProductBody):
        print("error: reduce needs a Lagrangian product body", file=sys.stderr)
        return EXIT_USAGE
    reduced = body
    for text in args.normal:
        reduced = SY.reduce_product(reduced, _parse_normal_arg(text))
    result = {"body": reduced.describe(), "dim": reduced.dim}
    if isinstance(reduced.base, (B.PolytopeBody, B.DiagonalImageBody)):
        vol_prod = V.volume_of(reduced)
        result["volume_product"] = vol_prod.as_dict()
    return _emit(args, "reduce", result, None, body,
                 {"normals": args.normal})


def cmd_capacity(args) -> int:
    body = _load_body_arg(args.body)
    fn = C.symmetric_capacity_estimate if args.symmetric else C.capacity_estimate
    est = fn(body, m=args.points, starts=args.starts, seed=args.seed,
             max_iters=args.max_iters)
    return _emit(args, "capacity", est.as_dict(include_loop=not args.no_loop),
                 args.seed, body,
                 {"points": args.points, "starts": args.starts,
                  "symmetric": args.symmetric})


def cmd_crofton(args) -> int:
    if args.epsilon == 0.0:
        slc = CR.linear_slice(2)
    else:
        slc = CR.perturbed_slice(2, args.epsilon, args.g)
    rep = CR.crofton_check(slc, R=args.radius, samples=args.samples, seed=args.seed)
    rep["agrees"] = CR.crofton_agrees(slc, rep)
    code = EXIT_OK if rep["agrees"] else EXIT_ASSERTION
    return _emit(args, "crofton", rep, args.seed, None,
                 {"epsilon": args.epsilon, "g": args.g,
                  "samples": args.samples, "radius": args.radius}, code)


def cmd_embed(args) -> int:
    prof = E.build_profile(args.alpha, args.nexp)
    rep = E.product_embedding_check(
        args.alpha, args.copies, args.nexp, samples=args.samples, seed=args.seed,
        profile=prof, r_factor=args.radius_factor)
    rep["area_rel_err"] = E.area_rel_err(prof)
    rep["jacobian_dev"] = E.jacobian_grid_check(prof)["max_abs_det_minus_1"]
    rep["oddness"] = E.oddness_check(prof)
    code = EXIT_OK if E.embedding_certified(rep, args.radius_factor) else EXIT_ASSERTION
    return _emit(args, "embed", rep, args.seed, None,
                 {"alpha": args.alpha, "nexp": args.nexp,
                  "copies": args.copies, "samples": args.samples,
                  "radius_factor": args.radius_factor}, code)


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    takes = inspect.signature(suite).parameters
    params: dict = {"seed": args.seed}
    for option, value in (("trials", args.trials), ("samples", args.samples),
                          ("n", args.n)):
        if value is None:
            continue
        name = "n_values" if option == "n" and "n_values" in takes else option
        if name not in takes:
            print(f"error: suite {args.suite} takes no --{option}", file=sys.stderr)
            return EXIT_USAGE
        params[name] = [value] if name == "n_values" else value
    if args.trials is not None and args.trials < 1:
        print(f"error: --trials must be >= 1, got {args.trials}", file=sys.stderr)
        return EXIT_USAGE
    rep = suite(**params)
    code = EXIT_OK if rep["passed"] else EXIT_ASSERTION
    return _emit(args, "verify", rep, args.seed, None,
                 {"suite": args.suite, **params}, code)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mahlerlab",
        description="volume products, symplectic reductions, capacity and "
                    "embedding experiments for symmetric convex bodies",
    )
    ap.add_argument("--log", default=None, help="experiment log path (JSONL)")
    ap.add_argument("--no-log", action="store_true", help="skip log append")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_body(p):
        p.add_argument("--body", required=True,
                       help="body description: inline JSON or a file path")

    p = sub.add_parser("volume", help="volume of a body")
    add_body(p)
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--method", choices=["auto", "exact", "mc"], default="auto")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("mahler", help="volume product vs 4^n/n!")
    add_body(p)
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_mahler)

    for name, text in (("section", "central hyperplane section"),
                       ("project", "projection to a hyperplane")):
        p = sub.add_parser(name, help=text)
        add_body(p)
        p.add_argument("--normal", required=True, help="comma-separated rationals")
        p.set_defaults(func=cmd_cut)

    p = sub.add_parser("reduce", help="linear symplectic reduction of K x K°")
    add_body(p)
    p.add_argument("--normal", action="append", required=True,
                   help="repeatable: one reduction step per normal")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("capacity", help="capacity estimate via loop descent")
    add_body(p)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--starts", type=int, default=16)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--max-iters", type=int, default=50_000)
    p.add_argument("--no-loop", action="store_true",
                   help="omit the argmin loop vertices from the output")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("crofton", help="circle-average identity at N=2")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--g", default="q2^3", help="odd polynomial, e.g. 'q2^3'")
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--radius", type=float, default=1.0)
    p.set_defaults(func=cmd_crofton)

    p = sub.add_parser("embed", help="ball-into-product containment check")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--nexp", type=int, default=8)
    p.add_argument("--copies", type=int, default=2)
    p.add_argument("--radius-factor", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=list(SUITES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return ap


def _join_negative_normals(argv: list[str]) -> list[str]:
    """``--normal <value>`` as ``--normal=<value>`` when the value starts
    with a minus sign and a digit or a dot, which argparse would otherwise
    read as an option; an option name after ``--normal`` is left to fail."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--normal" and re.match(r"-[\d.]", token):
            out[-1] = f"--normal={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_join_negative_normals(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        if getattr(args, "seed", 0) is None:  # --seed not given: the environment
            args.seed = int(os.environ.get("MAHLER_LAB_SEED", "0"))
        return args.func(args)
    except (ValueError, OSError) as e:  # BodyError, CroftonError, EmbeddingError among them
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
