"""The sampling contract: every Monte Carlo draw is a Philox block keyed by
(seed, stream, block), and no sampler in the package builds a generator of
its own."""
import ast
from pathlib import Path

import numpy as np

from mahlerlab import sampling as S

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mahlerlab"
# the capacity optimizer's starts and the suites' case draws keep their own
# sequential generators
OWN_GENERATORS = {"capacity.py", "verify.py"}


def test_blocks_cover_the_draw_in_order():
    got = list(S.blocks(5, 3, 10, 4))
    assert [m for _, m in got] == [4, 4, 2]
    for b, (rng, _) in enumerate(got):
        assert rng.random(3).tolist() == S.block_rng(5, 3, b).random(3).tolist()
    assert list(S.blocks(5, 3, 0, 4)) == []


def test_block_keys_separate_seeds_streams_and_blocks():
    def draw(seed, stream, block):
        return S.block_rng(seed, stream, block).random(4).tolist()

    keys = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1)]
    assert len({tuple(draw(*k)) for k in keys}) == len(keys)
    assert draw(0, 2, 5) == draw(0, 2, 5)
    # the seed enters mod 2^64, every bit of it: negative seeds and seeds of
    # 2^63 or more do not fold onto others
    assert draw(-1, 0, 0) == draw(2**64 - 1, 0, 0)
    assert draw(-1, 0, 0) != draw(0, 0, 0)
    assert draw(2**63 + 1, 0, 0) != draw(2**63 + 2, 0, 0)


def test_block_key_layout():
    # stream s, block b is the key word s * 2^32 + b; stream 0 is the key
    # (seed, block) of the samplers before streams were added
    for (seed, stream, block), key in [((7, 0, 3), [7, 3]), ((7, 1, 0), [7, 2**32]),
                                       ((7, 5, 9), [7, 5 * 2**32 + 9])]:
        ref = np.random.Generator(np.random.Philox(key=key))
        assert S.block_rng(seed, stream, block).random(4).tolist() == ref.random(4).tolist()


def _random_calls(tree: ast.AST):
    """(line, name) of every call to an attribute of numpy.random, and of
    every import from numpy.random or the random module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if isinstance(owner, ast.Attribute) and owner.attr == "random" \
                    and isinstance(owner.value, ast.Name) and owner.value.id in ("np", "numpy"):
                yield node.lineno, node.func.attr
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy.random", "random"):
            yield node.lineno, f"from {node.module} import"
        elif isinstance(node, ast.Import) and any(a.name in ("numpy.random", "random")
                                                  for a in node.names):
            yield node.lineno, "import random"


def test_only_sampling_builds_generators():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "sampling.py":
            continue
        allowed = {"default_rng"} if path.name in OWN_GENERATORS else set()
        stray += [f"{path.name}:{line} {name}"
                  for line, name in _random_calls(ast.parse(path.read_text()))
                  if name not in allowed]
    assert not stray, stray


def test_philox_and_default_rng_stay_where_they_belong():
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        if path.name != "sampling.py":
            assert "Philox" not in text, path.name
        if path.name not in OWN_GENERATORS:
            assert "default_rng" not in text, path.name


def test_guard_sees_a_stray_generator():
    stray = "import numpy as np\nx = np.random.default_rng(0).normal()\n" \
            "g = np.random.Generator(np.random.Philox(key=[0, 0]))\n"
    assert sorted(name for _, name in _random_calls(ast.parse(stray))) == \
        ["Generator", "Philox", "default_rng"]
