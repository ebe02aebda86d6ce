"""Temporal platform rotation defenses: analytics, scheduling, simulation.

The library models a defense that migrates a critical application across
heterogeneous platforms. It provides closed-form combinatorial and
Markov-chain attacker metrics, diversity-optimal migration scheduling
over a platform similarity matrix, an interval Monte Carlo study of
competing policies, and an event-driven continuous-time scenario engine.

Importing the package loads none of its modules: each public name
resolves on first use (PEP 562), importing only its home module, so a
process that runs one engine never imports the others.
"""

import importlib

__version__ = "0.1.0"

#: Each module's public names; ``_HOME`` maps a name back to its module.
_HOMES = {
    "analytic": (
        "MarkovParams",
        "RepeatMode",
        "choose",
        "expected_control_fraction",
        "expected_time_to_compromise",
        "p_success_aggregate",
        "p_success_finite_window",
        "steady_state",
    ),
    "core": ("PolicyKind", "SimilarityMatrix", "bundled_similarity_path", "load_similarity_matrix"),
    "rng": ("substream",),
    "scenario": ("DEFAULT_EXPLOITS", "ExploitSpec", "ScenarioConfig", "run_scenario_study"),
    "scheduler": ("heron_area", "search_length", "walk_bounds", "walks"),
    "simulator": ("EmpiricalCdf", "McConfig", "compute_metrics", "run_mc_study"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    """A public name, from its home module; any other name, such as a submodule not yet imported, is missing."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
