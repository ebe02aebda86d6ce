"""Tooling guard: importing the package loads neither ``numpy.random`` nor ``importlib.resources``.

NumPy loads ``numpy.random`` on its first use, so a CLI start that draws
nothing never pays for it, and the bundled matrix is found next to the
package without ``importlib.resources``. Each module of
``src/diversity_lab`` is parsed with ``ast``: an import inside a function
body runs only when the function does, and is allowed; any other is not.

A process also imports only the engines it runs: a fresh interpreter
that imports ``diversity_lab.cli`` and loads the fixture has loaded no
engine module, nor ``fractions`` or ``logging``, and each command loads
just its own engines. Public names of the package resolve on first use.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diversity_lab

PACKAGE = Path(diversity_lab.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
FORBIDDEN = ("numpy.random", "importlib.resources")
UNDER_FORBIDDEN = tuple(f"{name}." for name in FORBIDDEN)


def import_time_imports(source: str) -> list[str]:
    """The dotted names that ``source`` imports when it is itself imported, outside any function body."""
    found = []
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            nodes += ast.iter_child_nodes(node)
    return found


def forbidden_imports(source: str) -> list[str]:
    """The import-time imports of ``source`` that load a ``FORBIDDEN`` module or a name under one."""
    return [name for name in import_time_imports(source) if name in FORBIDDEN or name.startswith(UNDER_FORBIDDEN)]


@pytest.mark.parametrize("module", MODULES)
def test_no_import_time_import_of_forbidden_modules(module):
    assert forbidden_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy.random",
        "import numpy.random as npr",
        "from numpy import random",
        "from numpy.random import default_rng",
        "import importlib.resources",
        "from importlib import resources",
        "from importlib.resources import files",
        "try:\n    from importlib import resources\nexcept ImportError:\n    pass\n",
        "class Loader:\n    from numpy.random import Generator\n",
    ],
)
def test_guard_flags_each_form(source):
    assert forbidden_imports(source)


def test_guard_passes_function_level_and_unrelated_imports():
    source = (
        "import numpy as np\nimport importlib\nfrom numpy import randomize\n"
        "def f():\n    from importlib import resources\n    import numpy.random\n"
    )
    assert forbidden_imports(source) == []


def test_cli_start_leaves_numpy_random_unloaded():
    code = (
        "import sys\nimport diversity_lab.cli\n"
        "diversity_lab.cli.load_similarity_matrix(diversity_lab.cli.bundled_similarity_path())\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


#: The engine modules, and two standard ones that only some commands need.
WATCHED = ("analytic", "rng", "scenario", "scheduler", "simulator", "fractions", "logging")
CLI_START = "import diversity_lab.cli as cli\ncli.load_similarity_matrix(cli.bundled_similarity_path())\n"


def watched_after(code: str, *argv: str) -> list[str]:
    """The ``WATCHED`` modules that a fresh interpreter has loaded after running ``code`` with ``argv``."""
    report = (
        "\nimport sys\n"
        f"loaded = [name for name in {WATCHED!r} if name in sys.modules or 'diversity_lab.' + name in sys.modules]\n"
        "print(' '.join(loaded))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code + report, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout.splitlines()[-1].split()


def test_cli_start_loads_no_engine():
    assert watched_after(CLI_START) == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["analytic", "--m", "3", "--n", "2"], ["analytic", "fractions"]),
        (["schedule", "--steps", "5"], ["rng", "scheduler"]),
        (["mc", "--trials", "5", "--intervals", "10"], ["rng", "scheduler", "simulator"]),
        (["scenario", "--T", "60", "--samples", "5", "--exploit", "0"], ["rng", "scenario", "scheduler"]),
    ],
    ids=["analytic", "schedule", "mc", "scenario"],
)
def test_command_loads_only_its_engines(tmp_path, argv, loaded):
    code = "import sys\nfrom diversity_lab.cli import main\nassert main(sys.argv[1:]) == 0\n"
    assert watched_after(code, *argv, "--outdir", str(tmp_path)) == loaded


def test_public_name_loads_only_its_home_module():
    assert watched_after("from diversity_lab import McConfig") == ["rng", "scheduler", "simulator"]
    assert diversity_lab.McConfig is diversity_lab.simulator.McConfig


def test_public_names_resolve_and_others_are_missing():
    assert set(diversity_lab.__all__) <= set(dir(diversity_lab))
    namespace = {}
    exec("from diversity_lab import *", namespace)
    assert all(namespace[name] is getattr(diversity_lab, name) for name in diversity_lab.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        diversity_lab.no_such_name
