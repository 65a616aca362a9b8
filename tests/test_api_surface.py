"""Every public function, class and method of mahlerlab has a caller outside
the tests.

A definition counts as used when its name is referenced from `src/`,
`scripts/` or `perfbench/` outside its own body: as a name, an attribute,
an imported name, or a target string of the benchmark tracer's `SPECS`.
Names are matched without their owner, so a method shares its uses with
every attribute of the same name; the test catches names that nothing
outside the tests reaches, not every method that is never dispatched to.
"""
import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mahlerlab"
CALLER_DIRS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# qualified name -> why it stays without a caller
ALLOWED = {
    # warm-started subdivision of a finished estimate, documented in the
    # README as a library capability for interactive use
    "capacity.refine_estimate",
}


def _tracer_names() -> set[str]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {part for _, target, _, _ in tracer.SPECS for part in target.split(".")}


def _references() -> list[tuple[Path, int, str]]:
    """(file, line, name) of every name, attribute and import in the callers."""
    refs = []
    for top in CALLER_DIRS:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.append((path, node.lineno, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    refs.append((path, node.lineno, node.attr))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        refs += [(path, node.lineno, part) for part in alias.name.split(".")]
    return refs


def _public_definitions() -> list[tuple[str, Path, int, int, str]]:
    """(qualified name, file, first line, last line, name) of the public
    module-level functions and classes and their public methods."""
    defs = []
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, kinds) or node.name.startswith("_"):
                continue
            defs.append((f"{path.stem}.{node.name}", path, node.lineno, node.end_lineno,
                         node.name))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{m.name}", path, m.lineno, m.end_lineno,
                          m.name)
                         for m in node.body
                         if isinstance(m, kinds) and not m.name.startswith("_")]
    return defs


def unused_public_names() -> list[str]:
    refs = _references()
    from_tracer = _tracer_names()
    unused = []
    for qualname, path, first, last, name in _public_definitions():
        used = name in from_tracer or any(
            ref == name and not (where == path and first <= line <= last)
            for where, line, ref in refs)
        if not used:
            unused.append(qualname)
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unused_public_names()
    assert sorted(set(unused) - ALLOWED) == [], (
        "public names reached only from tests or from nowhere; delete them, "
        "make them private, or move them into the tests")


def test_allowed_names_exist():
    assert ALLOWED <= {q for q, *_ in _public_definitions()}
