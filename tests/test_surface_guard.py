"""Tooling guard: every public name of ``diversity_lab`` is used by a command, script or benchmark.

Each name in ``diversity_lab.__all__`` must appear as an ``ast.Name`` or
``ast.Attribute`` in a module of ``src/diversity_lab`` other than
``__init__.py``, in ``scripts/`` or in ``benchmarks/``. Defining a name
or importing it is no use, and neither is a test's call: a name that only
the tests call leaves the package.
"""

import ast
from pathlib import Path

import pytest

import diversity_lab
from test_draw_guard import MODULES, dotted, source_of

ROOT = Path(__file__).resolve().parent.parent


def uses(source: str) -> set[str]:
    """The last part of each name and attribute chain in ``source``: ``b`` of ``a.b``."""
    return {
        dotted(node).rpartition(".")[2]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def surface_sources() -> list[str]:
    """The package modules but ``__init__.py``, and the files of ``scripts/`` and ``benchmarks/``."""
    sources = [source_of(module) for module in MODULES if module != "__init__.py"]
    for folder in ("scripts", "benchmarks"):
        sources += [path.read_text(encoding="utf-8") for path in sorted((ROOT / folder).glob("*.py"))]
    return sources


USED = set().union(*map(uses, surface_sources()))


@pytest.mark.parametrize("name", diversity_lab.__all__)
def test_public_name_is_used(name):
    assert name in USED


def test_guard_sees_the_uses_of_benchmarks_and_cli():
    assert {"load_similarity_matrix", "bundled_similarity_path", "substream", "from_samples"} <= USED
    assert {"cli", "load_similarity_matrix", "simulator", "substream"} <= uses(
        "cli.load_similarity_matrix(path)\nwrap(simulator.substream)\n"
    )


@pytest.mark.parametrize(
    "source",
    [
        "def choose(n, k): ...",
        "class McConfig: ...",
        "from diversity_lab import heron_area",
        "import diversity_lab.scheduler as walks",
        "print('steady_state')",
        "f(search_length=1)",
    ],
)
def test_guard_passes_definitions_imports_and_strings(source):
    assert not uses(source) & set(diversity_lab.__all__)
