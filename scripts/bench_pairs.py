"""Paired benchmark runs of two source checkouts.

    python scripts/bench_pairs.py BASE CHANGE --workload sampling --pairs 10 \
        --seconds 30 [--seed 71] [--trace 0] [--out pairs.json]

Runs `perfbench/run.py` in each checkout, pair by pair, in alternating order
(BASE first in even pairs, CHANGE first in odd ones) so that a slow stretch
of a shared machine falls on both sides alike.  Pair i uses seed `--seed + i`
on both sides.  Prints, per metric, each side's median and quartiles and the
share of pairs the change wins; "better" comes from BENCHMARK.json (lower
when a metric is not listed there).  `--out` also writes every run's
metrics as JSON.

`setup_s` times the import of mahlerlab, which is faster from compiled
bytecode: both sides run with PYTHONDONTWRITEBYTECODE=1, and the script
refuses to start while either checkout's src/mahlerlab/__pycache__ holds
compiled files.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def compiled_files(root: Path) -> list[Path]:
    """The compiled bytecode files in the checkout's src/mahlerlab/__pycache__."""
    return sorted((root / "src" / "mahlerlab" / "__pycache__").glob("*.pyc"))


def better_directions(root: Path) -> dict[str, str]:
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        return {}
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[dict], change: list[dict], better: dict[str, str]) -> list[dict]:
    rows = []
    for name in base[0]["metrics"]:
        a = [r["metrics"][name] for r in base]
        b = [r["metrics"][name] for r in change]
        higher = better.get(name, "lower") == "higher"
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        rows.append({"name": name, "base_median": qa[1], "base_q1": qa[0], "base_q3": qa[2],
                     "change_median": qb[1], "change_q1": qb[0], "change_q3": qb[2],
                     "wins": wins, "pairs": len(a)})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=["exact", "sampling", "capacity"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=71)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    for root in (args.base, args.change):
        if compiled_files(root):
            ap.exit(2, f"{root / 'src' / 'mahlerlab' / '__pycache__'} holds compiled files, "
                       "which would speed up that side's import in setup_s; remove them\n")

    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            root = args.base if side == "base" else args.change
            res = run_once(root.resolve(), args.workload, args.seed + i, args.seconds,
                           args.trace)
            runs[side].append(res)
            print(f"pair {i} {side}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']}", file=sys.stderr)
    rows = summarize(runs["base"], runs["change"], better_directions(args.change.resolve()))
    print(f"{'metric':34s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  wins")
    for r in rows:
        print(f"{r['name']:34s} {r['base_median']:12.6g} [{r['base_q1']:.6g}, {r['base_q3']:.6g}]"
              f" {r['change_median']:12.6g} [{r['change_q1']:.6g}, {r['change_q3']:.6g}]"
              f"  {r['wins']}/{r['pairs']}")
    if args.out is not None:
        args.out.write_text(json.dumps({"args": {k: str(v) for k, v in vars(args).items()},
                                        "runs": runs, "summary": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
