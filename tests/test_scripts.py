"""Smoke runs of the scripts in scripts/: each runs at its smallest
arguments and ends in exit 0 or 2 (a check it reports failed), never in a
traceback."""
import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
SMALLEST = {
    "capacity_calibration.py": ["--starts", "1", "--m", "4"],
    "embedding_certificate.py": ["--nexp", "2", "--samples", "10"],
    "fingerprint.py": ["--quick"],
    "section_scan.py": ["--family", "cube", "--n", "2", "--trials", "1"],
}
# runs perfbench in two whole checkouts, pair after pair: a benchmark driver
# with no small form; its summary and its refusal are tested in-process below
NOT_RUN = {"bench_pairs.py"}


def run_script(name: str, args: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})


def test_every_script_has_a_smoke_run():
    assert {p.name for p in SCRIPTS.glob("*.py")} == set(SMALLEST) | NOT_RUN


@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_script_runs_at_its_smallest_arguments(name, request):
    # the fingerprint's run is the one its own tests below read
    proc = (request.getfixturevalue("fingerprint") if name == "fingerprint.py"
            else run_script(name, SMALLEST[name]))
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_section_scan_refuses_an_empty_scan(trials):
    proc = run_script("section_scan.py", ["--trials", trials])
    assert proc.returncode == 2
    assert "--trials must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def fingerprint() -> subprocess.CompletedProcess:
    """One `--quick` run of fingerprint.py, shared by its tests."""
    proc = run_script("fingerprint.py", ["--quick"])
    assert proc.returncode == 0, proc.stderr
    return proc


def kind_lines(proc, kind: str) -> list[str]:
    """The lines of one kind, without the kind's prefix."""
    return [x[len(kind) + 1:] for x in proc.stdout.splitlines() if x.startswith(kind + " ")]


def one_bit_up(hex_value: str) -> str:
    return np.nextafter(float.fromhex(hex_value), np.inf).hex()


@pytest.fixture(scope="module")
def compare(tmp_path_factory):
    """`fingerprint.py --compare` on two texts, in-process: (exit code, output)."""
    main = load_script("fingerprint.py").main
    a, b = (tmp_path_factory.mktemp("compare") / name for name in ("a.txt", "b.txt"))

    def run(text_a: str, text_b: str) -> tuple[int, str]:
        a.write_text(text_a)
        b.write_text(text_b)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--compare", str(a), str(b)])
        return code, out.getvalue()

    return run


def assert_compare_flags(compare, text: str, old: str, new: str):
    """`--compare` passes on equal outputs and fails, naming the line, when
    the first ``old`` is replaced by ``new``."""
    assert compare(text, text)[0] == 0
    code, out = compare(text, text.replace(old, new, 1))
    assert code == 1 and new in out


def test_fingerprint_is_deterministic(fingerprint):
    assert run_script("fingerprint.py", ["--quick"]).stdout == fingerprint.stdout


def test_fingerprint_compare_runs_without_the_library(tmp_path):
    """`--compare` reads two text files and nothing else: it runs from any
    directory with no PYTHONPATH."""
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("exact cube3 body vol=8\n")
    b.write_text("exact cube3 body vol=9\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for other, code in ((a, 0), (b, 1)):
        proc = subprocess.run([sys.executable, str(SCRIPTS / "fingerprint.py"), "--compare",
                               str(a), str(other)], capture_output=True, text=True,
                              timeout=60, cwd=tmp_path, env=env)
        assert proc.returncode == code, proc.stderr
        assert f"{code} of 1 lines differ" in proc.stderr


def test_fingerprint_compare_summarizes_moves_by_kind(tmp_path):
    """A capacity value moved by 1e-6 relative, an mc value by one bit, and
    an exact volume changed: each kind's count and largest move go to
    stderr, and the per-line output and the exit code stay."""
    lines = ["exact cube3 body vol=8 V=x",
             f"capacity full cross3 {(4.0).hex()} abc iterations=7",
             f"capacity full lp1.5 {(4.5).hex()} def iterations=9",
             f"mc 00.00 cube value={(2.0).hex()} ci={(0.25).hex()} hits=5",
             f"sampling reduce_ball value={(-3.0).hex()}"]
    moved = list(lines)
    moved[0] = "exact cube3 body vol=9 V=x"
    moved[1] = lines[1].replace((4.0).hex(), (4.0 * (1 + 1e-6)).hex())
    moved[3] = lines[3].replace((2.0).hex(), np.nextafter(2.0, 3.0).hex())
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("\n".join(lines) + "\n")
    b.write_text("\n".join(moved) + "\n")
    main = load_script("fingerprint.py").main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--compare", str(a), str(b)])
    assert code == 1
    assert out.getvalue().count("\n+ ") == 3 and "vol=9" in out.getvalue()
    summary = err.getvalue().splitlines()
    assert summary == ["exact: 1 lines differ",
                       "capacity: 1 lines differ, largest relative move 1e-06",
                       "mc: 1 lines differ, largest relative move 2.22e-16",
                       "sampling: 0 lines differ",
                       "3 of 5 lines differ"]


def test_fingerprint_compare_flags_a_shorter_output(fingerprint, compare):
    short = "\n".join(fingerprint.stdout.splitlines()[:-1]) + "\n"
    code, out = compare(fingerprint.stdout, short)
    assert code == 1 and "line counts differ" in out


def test_capacity_fingerprint_compare_flags_any_difference(fingerprint, compare):
    lines = kind_lines(fingerprint, "capacity")
    # B^4 at the workload's settings, with a float hex, a loop digest and
    # the counters
    assert len(lines) == 1 and lines[0].startswith("full ball B4")
    assert all(" 0x" in x and "iterations=" in x and "converged=" in x for x in lines)
    value = lines[0].split()[3]
    assert_compare_flags(compare, fingerprint.stdout, value, one_bit_up(value))


def test_exact_fingerprint_compare_flags_any_difference(fingerprint, compare):
    lines = kind_lines(fingerprint, "exact")
    # a body line and a polar line per case, with the volume, the lists and
    # the float digests; a reduction bound's sides; the l_p section frames
    assert lines[0].startswith("cube3 body vol=8 ") and lines[1].startswith("cube3 polar vol=4/3 ")
    bodies = [x for x in lines if " vol=" in x]
    assert bodies and all(" V=" in x and " F=" in x and " describe=" in x and " fA=" in x
                          for x in bodies)
    assert any(" lhs=" in x and " rhs=" in x for x in lines)
    assert any("(" in x.split(" vol=")[1].split(" V=")[0] for x in bodies)  # an r sqrt(d)
    assert sum(x.startswith("sampling ") for x in lines) == 18
    assert_compare_flags(compare, fingerprint.stdout, "vol=8 ", "vol=9 ")


def test_mc_fingerprint_compare_flags_a_one_bit_change(fingerprint, compare):
    lines = kind_lines(fingerprint, "mc")
    # both halves of a sampling product, a CLI volume, the capacity product
    # volume, the cube4 section and its polar, and six criterion-4 products
    assert len(lines) == 18
    assert all(" value=0x" in x and " ci=0x" in x and " hits=" in x for x in lines)
    assert sum("criterion 4" in x for x in lines) == 12
    value = lines[0].split(" value=")[1].split()[0]
    assert_compare_flags(compare, fingerprint.stdout, value, one_bit_up(value))


def test_sampling_fingerprint_compare_flags_a_one_bit_change(fingerprint, compare):
    lines = kind_lines(fingerprint, "sampling")
    # the first Crofton report, embedding profile, embedding check and
    # reduced ball, floats as hex and arrays as digests
    assert [x.split("=")[0].rsplit(" ", 1)[0] for x in lines] == [
        "crofton linear", "embedding profile", "embedding check", "reduce_ball"]
    assert " lhs=0x" in lines[0] and " mean_count=0x" in lines[0]
    assert " c_n=0x" in lines[1] and len(lines[1].split(" area_table=")[1].split()[0]) == 64
    assert " contained_fraction=0x" in lines[2] and " value=0x" in lines[3]
    value = lines[0].split(" lhs=")[1].split()[0]
    assert_compare_flags(compare, fingerprint.stdout, value, one_bit_up(value))


def test_exact_fingerprint_prints_both_polar_routes_alike(fingerprint):
    """Each body line is followed by its polar taken after the body's
    volume and by the polar of a fresh copy taken before its hull exists,
    and the two polar lines agree past their labels: volume, lists,
    description and float digests."""
    lines = kind_lines(fingerprint, "exact")
    bodies = [i for i, x in enumerate(lines) if " body vol=" in x]
    assert bodies
    for i in bodies:
        label = lines[i].split(" body vol=")[0]
        after, before = lines[i + 1], lines[i + 2]
        assert after.startswith(f"{label} polar vol=")
        assert before == after.replace(f"{label} polar vol=", f"{label} polar-first vol=", 1)


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_refuses_a_checkout_with_compiled_files(tmp_path, monkeypatch, capsys):
    # compiled bytecode on one side only would make its import, and setup_s,
    # look faster
    bench_pairs = load_script("bench_pairs.py")

    def run_once(*args):
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    for side in ("base", "change"):
        roots = {name: tmp_path / side / name for name in ("base", "change")}
        for root in roots.values():
            (root / "src" / "mahlerlab" / "__pycache__").mkdir(parents=True)
        (roots[side] / "src" / "mahlerlab" / "__pycache__" / "bodies.cpython-312.pyc") \
            .write_bytes(b"")
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main([str(roots["base"]), str(roots["change"]), "--workload", "exact",
                              "--pairs", "1"])
        assert exit_info.value.code == 2
        assert "compiled files" in capsys.readouterr().err


def _runs(**metrics):
    """One synthetic run per position of the value lists."""
    count = len(next(iter(metrics.values())))
    return [{"metrics": {name: values[i] for name, values in metrics.items()}}
            for i in range(count)]


def test_bench_pairs_quartiles():
    bench_pairs = load_script("bench_pairs.py")
    assert bench_pairs.quartiles([0.25]) == (0.25, 0.25, 0.25)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_bench_pairs_counts_wins_in_the_better_direction():
    bench_pairs = load_script("bench_pairs.py")
    base = _runs(wall_s=[1.0, 2.0, 3.0, 4.0], rate=[10.0, 10.0, 10.0, 10.0],
                 other=[5.0, 5.0, 5.0, 5.0])
    change = _runs(wall_s=[0.5, 2.5, 2.0, 4.0], rate=[11.0, 9.0, 12.0, 10.0],
                   other=[4.0, 6.0, 4.0, 4.0])
    rows = {r["name"]: r for r in bench_pairs.summarize(
        base, change, {"wall_s": "lower", "rate": "higher"})}
    assert list(rows) == ["wall_s", "rate", "other"]
    # lower is better: pairs 0 and 2 win, a tie (pair 3) does not
    assert rows["wall_s"]["wins"] == 2 and rows["wall_s"]["pairs"] == 4
    # higher is better: pairs 0 and 2 win
    assert rows["rate"]["wins"] == 2
    # a metric BENCHMARK.json does not list counts as lower-is-better
    assert rows["other"]["wins"] == 3
    assert (rows["wall_s"]["base_q1"], rows["wall_s"]["base_median"],
            rows["wall_s"]["base_q3"]) == bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0])
    assert rows["wall_s"]["change_median"] == 2.25
    # the directions come from BENCHMARK.json, and none from a tree without it
    better = bench_pairs.better_directions(ROOT)
    assert better["wall_s"] == "lower" and better["volume.mc_points_per_s"] == "higher"
    assert bench_pairs.better_directions(SCRIPTS) == {}


def test_bench_pairs_summarizes_a_single_pair():
    bench_pairs = load_script("bench_pairs.py")
    rows = bench_pairs.summarize(_runs(wall_s=[0.34]), _runs(wall_s=[0.25]), {})
    assert rows == [{"name": "wall_s", "base_median": 0.34, "base_q1": 0.34, "base_q3": 0.34,
                     "change_median": 0.25, "change_q1": 0.25, "change_q3": 0.25,
                     "wins": 1, "pairs": 1}]
