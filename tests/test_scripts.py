"""Smoke runs of the scripts in scripts/: each runs at its smallest
arguments and ends in exit 0 or 2 (a check it reports failed), never in a
traceback."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
SMALLEST = {
    "capacity_calibration.py": ["--starts", "1", "--m", "4"],
    "embedding_certificate.py": ["--nexp", "2", "--samples", "10"],
    "section_scan.py": ["--family", "cube", "--n", "2", "--trials", "1"],
}
# runs perfbench in two whole checkouts, pair after pair: a benchmark driver
# with no small form
NOT_RUN = {"bench_pairs.py"}


def run_script(name: str, args: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})


def test_every_script_has_a_smoke_run():
    assert {p.name for p in SCRIPTS.glob("*.py")} == set(SMALLEST) | NOT_RUN


@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_script_runs_at_its_smallest_arguments(name):
    proc = run_script(name, SMALLEST[name])
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_section_scan_refuses_an_empty_scan(trials):
    proc = run_script("section_scan.py", ["--trials", trials])
    assert proc.returncode == 2
    assert "--trials must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bench_pairs_refuses_a_checkout_with_compiled_files(tmp_path, monkeypatch, capsys):
    # compiled bytecode on one side only would make its import, and setup_s,
    # look faster
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    base, change = tmp_path / "base", tmp_path / "change"
    for root in (base, change):
        (root / "src" / "mahlerlab" / "__pycache__").mkdir(parents=True)
    (base / "src" / "mahlerlab" / "__pycache__" / "bodies.cpython-312.pyc").write_bytes(b"")

    def run_once(*args):
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(base), str(change), "--workload", "exact", "--pairs", "1"])
    assert exit_info.value.code == 2
    assert "compiled files" in capsys.readouterr().err
