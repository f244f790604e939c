"""Every generator in the library is seeded by its caller: no default_rng() without a seed."""

import ast
from pathlib import Path

import spindbm

PACKAGE = Path(spindbm.__file__).resolve().parent


def _unseeded_generators(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and not node.args and not node.keywords:
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "default_rng":
                yield node.lineno


def test_scan_finds_an_unseeded_call():
    tree = ast.parse("import numpy as np\nrng = np.random.default_rng()\n"
                     "ok = np.random.default_rng(0)\n")
    assert list(_unseeded_generators(tree)) == [2]


def test_library_makes_no_unseeded_generator():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{p.name}:{line}" for p in sources
             for line in _unseeded_generators(ast.parse(p.read_text(), str(p)))]
    assert found == []
