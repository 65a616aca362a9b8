"""The benchmark's span tracer names mahlerlab functions by string; each name
must still exist, or a traced benchmark run stops at start-up."""
import importlib
import importlib.util
from pathlib import Path

import pytest

import mahlerlab.cli  # noqa: F401 - loads every module the tracer wraps

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


SPECS = load_tracer().SPECS


@pytest.mark.parametrize("modname, target", [(m, t) for m, t, _, _ in SPECS])
def test_tracer_target_resolves(modname, target):
    mod = importlib.import_module(f"mahlerlab.{modname}")
    owner, _, attr = target.rpartition(".")
    if owner == "*":
        classes = [c for c in vars(mod).values()
                   if isinstance(c, type) and c.__module__ == mod.__name__
                   and attr in vars(c)]
        assert classes, f"no class in mahlerlab.{modname} defines {attr}"
    elif owner:
        assert attr in vars(getattr(mod, owner)), f"mahlerlab.{modname}.{target}"
    else:
        assert callable(getattr(mod, attr)), f"mahlerlab.{modname}.{target}"


def test_tracer_install_round_trip():
    from mahlerlab import capacity, volume

    originals = (capacity.capacity_estimate, volume.mahler_product)
    tr = load_tracer().Tracer()
    try:
        tr.install()
        assert capacity.capacity_estimate is not originals[0]
    finally:
        tr.uninstall()
    assert (capacity.capacity_estimate, volume.mahler_product) == originals
