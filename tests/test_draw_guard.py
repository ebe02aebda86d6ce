"""Tooling guard: every random draw of the package goes through ``rng.draws``.

Each module of ``src/diversity_lab`` is parsed with ``ast``. Only ``rng``
may call ``substream`` or anything under ``np.random``; importing a name
is not a call (``simulator`` imports ``substream`` for the benchmark
tracer's test).
"""

import ast
from pathlib import Path

import pytest

import diversity_lab

PACKAGE = Path(diversity_lab.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def dotted(node) -> str:
    """``a.b.c`` for a chain of names and attributes; empty for anything else, such as a call's result."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and f"{base}.{node.attr}"
    return ""


def draws_outside_rng(source: str) -> list[str]:
    """The calls of ``substream`` and of anything under ``np.random`` in ``source``, and imports of ``numpy.random``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = dotted(node.func)
            if name.rpartition(".")[2] == "substream" or name.startswith(("np.random.", "numpy.random.")):
                found.append(name)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("numpy.random") or module == "numpy" and any(a.name == "random" for a in node.names):
                found.append(f"from {module} import")
        elif isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.startswith("numpy.random")]
    return found


def source_of(module: str) -> str:
    return (PACKAGE / module).read_text(encoding="utf-8")


@pytest.mark.parametrize("module", [name for name in MODULES if name != "rng.py"])
def test_only_rng_draws(module):
    assert draws_outside_rng(source_of(module)) == []


def test_guard_sees_the_draws_of_rng():
    assert {"np.random.default_rng", "np.random.SeedSequence", "substream"} <= set(draws_outside_rng(source_of("rng.py")))


@pytest.mark.parametrize(
    "source",
    [
        "rng.substream(0).random()",
        "np.random.default_rng(0)",
        "numpy.random.Generator(bits)",
        "from numpy.random import default_rng",
        "from numpy import random",
        "import numpy.random",
    ],
)
def test_guard_flags_each_form(source):
    assert draws_outside_rng(source)


def test_guard_passes_imports_and_annotations():
    source = "from .rng import substream\ndef f(rng: np.random.Generator) -> None: ...\n"
    assert draws_outside_rng(source) == []
