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
    RunLengthChain,
    choose,
    expected_control_fraction,
    expected_time_to_compromise,
    p_success_aggregate,
    p_success_finite_window,
    run_length_chain,
    steady_state,
)
from .core import (
    PlatformSet,
    PolicyKind,
    SimilarityMatrix,
    bundled_similarity_path,
    load_bundled_similarity,
    load_similarity_matrix,
    save_similarity_matrix,
)
from .rng import substream
from .scenario import (
    DEFAULT_EXPLOITS,
    ExploitSpec,
    ScenarioConfig,
    max_control_run,
    run_scenario_study,
)
from .scheduler import check_pool, detect_periodicity, heron_area, schedule
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
    "PlatformSet",
    "PolicyKind",
    "RepeatMode",
    "RunLengthChain",
    "ScenarioConfig",
    "SimilarityMatrix",
    "bundled_similarity_path",
    "check_pool",
    "choose",
    "compute_metrics",
    "detect_periodicity",
    "expected_control_fraction",
    "expected_time_to_compromise",
    "heron_area",
    "load_bundled_similarity",
    "load_similarity_matrix",
    "max_control_run",
    "p_success_aggregate",
    "p_success_finite_window",
    "run_length_chain",
    "run_mc_study",
    "run_scenario_study",
    "save_similarity_matrix",
    "schedule",
    "steady_state",
    "substream",
]
