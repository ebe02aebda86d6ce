"""Temporal platform rotation defenses: analytics, scheduling, simulation.

The library models a defense that migrates a critical application across
heterogeneous platforms. It provides closed-form combinatorial and
Markov-chain attacker metrics, diversity-optimal migration scheduling
over a platform similarity matrix, an interval Monte Carlo study of
competing policies, and an event-driven continuous-time scenario engine.
"""

__version__ = "0.1.0"

from .analytic import (
    MarkovParams,
    RepeatMode,
    choose,
    expected_control_fraction,
    expected_time_to_compromise,
    p_success_aggregate,
    p_success_finite_window,
    steady_state,
)
from .core import (
    PolicyKind,
    SimilarityMatrix,
    bundled_similarity_path,
    load_similarity_matrix,
)
from .rng import substream
from .scenario import (
    DEFAULT_EXPLOITS,
    ExploitSpec,
    ScenarioConfig,
    run_scenario_study,
)
from .scheduler import heron_area, search_length, walk_bounds, walks
from .simulator import (
    EmpiricalCdf,
    McConfig,
    compute_metrics,
    run_mc_study,
)

__all__ = [
    "__version__",
    "DEFAULT_EXPLOITS",
    "EmpiricalCdf",
    "ExploitSpec",
    "MarkovParams",
    "McConfig",
    "PolicyKind",
    "RepeatMode",
    "ScenarioConfig",
    "SimilarityMatrix",
    "bundled_similarity_path",
    "choose",
    "compute_metrics",
    "expected_control_fraction",
    "expected_time_to_compromise",
    "heron_area",
    "load_similarity_matrix",
    "p_success_aggregate",
    "p_success_finite_window",
    "run_mc_study",
    "run_scenario_study",
    "search_length",
    "steady_state",
    "substream",
    "walk_bounds",
    "walks",
]
