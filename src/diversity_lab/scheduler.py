"""Migration scheduling policies.

Diversity-optimal selection picks each next platform to be jointly most
dissimilar from the recent history: plain maximum distance when only one
prior platform is relevant, maximum triangle area (Heron's formula on
pairwise distances) for a two-platform history, and maximum summed
pairwise distance for longer histories. Ties break toward the lowest
platform index so schedules are fully deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .core import MigrationPolicy, PlatformSet, PolicyKind, SimilarityMatrix
from .rng import as_generator

logger = logging.getLogger(__name__)


def heron_area(a, b, c):
    """Triangle area from side lengths, elementwise over arrays of sides.

    Similarity-derived distances need not satisfy the triangle
    inequality, in which case the squared area comes out negative; such
    entries are clamped to zero, and each call that clamps logs one debug
    line with the count of clamped entries.
    """
    half = (a + b + c) / 2.0
    squared = half * (half - a) * (half - b) * (half - c)
    negative = squared < 0.0
    clamped = np.count_nonzero(negative)
    if clamped:
        logger.debug("clamped %d negative squared triangle area(s) to zero", clamped)
        squared = np.where(negative, 0.0, squared)
    return np.sqrt(squared)


@dataclass
class ScheduleState:
    """Mutable per-trial scheduling state.

    ``history`` keeps the platforms still relevant to the policy (the
    last k-1 for diversity, just the current one otherwise), most recent
    last; the current platform is ``history[-1]``. Each trial owns its
    state; distinct trials may run concurrently.
    """

    policy: MigrationPolicy
    n_platforms: int
    history: list[int] = field(default_factory=list)
    step: int = 0
    rng: np.random.Generator | None = None

    @property
    def current(self) -> int:
        return self.history[-1]

    def _window(self) -> int:
        if self.policy.kind is PolicyKind.DIVERSITY:
            assert self.policy.k is not None
            return self.policy.k - 1
        return 1


def check_pool(policy: MigrationPolicy, n_platforms: int) -> None:
    """Raise ValueError when ``policy`` cannot schedule over ``n_platforms`` platforms."""
    if policy.kind is PolicyKind.RANDOM_K and policy.k > n_platforms:
        raise ValueError(f"cannot rotate over k={policy.k} of {n_platforms} platforms")
    if policy.kind is PolicyKind.DIVERSITY and policy.k > n_platforms:
        raise ValueError(
            f"policy requires k={policy.k} distinct platforms, only {n_platforms} available"
        )
    if policy.kind in (PolicyKind.DIVERSITY, PolicyKind.UNIFORM) and n_platforms < 2:
        raise ValueError("migration without repeat needs at least two platforms")
    if policy.kind is PolicyKind.FIXED_PERIODIC and max(policy.sequence) >= n_platforms:
        raise ValueError("fixed periodic sequence references unknown platforms")


def new_schedule_state(
    policy: MigrationPolicy,
    n_platforms: int,
    start: int | None = None,
    rng: np.random.Generator | None = None,
) -> ScheduleState:
    """Initial state positioned on the starting platform.

    Fixed periodic policies always start at the head of their sequence.
    Random policies need ``rng`` (or a seeded policy) to drive later
    draws; if ``start`` is omitted for the uniform policy it is drawn
    uniformly from the full platform set.
    """
    if n_platforms < 1:
        raise ValueError("n_platforms must be >= 1")
    check_pool(policy, n_platforms)
    if rng is None and policy.rng_seed is not None:
        rng = as_generator(policy.rng_seed)
    if policy.kind is PolicyKind.FIXED_PERIODIC:
        assert policy.sequence is not None
        start = policy.sequence[0]
    elif start is None:
        if policy.kind is PolicyKind.UNIFORM and rng is not None:
            start = int(rng.integers(n_platforms))
        else:
            raise ValueError("a start platform is required for this policy")
    if not 0 <= start < n_platforms:
        raise ValueError(f"start platform {start} out of range")
    return ScheduleState(policy=policy, n_platforms=n_platforms, history=[start], rng=rng)


def _most_diverse(dist: np.ndarray, hist: list[int]) -> int:
    """Index of the candidate scoring highest against ``hist`` (most recent last).

    All candidates are scored at once; the current platform is excluded
    and ties go to the lowest index. Distances are symmetric, so row
    ``p`` of ``dist`` holds every candidate's distance to platform ``p``.
    """
    current = hist[-1]
    if len(hist) == 1:
        scores = dist[current].copy()
    elif len(hist) == 2:
        scores = heron_area(dist[hist[0]], dist[hist[1]], dist[hist[0], hist[1]])
    else:
        # added in history order: the order fixes the rounding, and so the ties
        scores = dist[hist[0]].copy()
        for prior in hist[1:]:
            scores += dist[prior]
    scores[current] = -np.inf
    return int(np.argmax(scores))


def next_platform_diversity(state: ScheduleState, sim: SimilarityMatrix) -> int:
    """Most dissimilar next platform given the recent history.

    Never returns the current platform. With a single relevant prior
    platform this is the argmin of similarity to it; with two it
    maximizes the Heron triangle area over pairwise distances; with more
    it maximizes the summed distance to the history.
    """
    if not state.history:
        raise ValueError("diversity selection needs at least one platform of history")
    assert state.policy.k is not None
    return _most_diverse(sim.distances(), state.history[-(state.policy.k - 1):])


def next_platform_uniform(state: ScheduleState) -> int:
    """Uniform draw over every platform except the current one."""
    if state.n_platforms < 2:
        raise ValueError("uniform no-repeat selection needs at least two platforms")
    if state.rng is None:
        raise ValueError("uniform policy requires a random generator")
    draw = int(state.rng.integers(state.n_platforms - 1))
    if draw >= state.current:
        draw += 1
    return draw


def next_platform(state: ScheduleState, sim: SimilarityMatrix | None = None) -> int:
    """Dispatch to the policy's selection rule without advancing the state."""
    kind = state.policy.kind
    if kind is PolicyKind.DIVERSITY:
        if sim is None:
            raise ValueError("diversity policy requires a similarity matrix")
        return next_platform_diversity(state, sim)
    if kind is PolicyKind.UNIFORM:
        return next_platform_uniform(state)
    if kind is PolicyKind.FIXED_PERIODIC:
        assert state.policy.sequence is not None
        return state.policy.sequence[(state.step + 1) % len(state.policy.sequence)]
    raise ValueError(f"policy kind {kind} must be realized before scheduling")


def advance(state: ScheduleState, platform: int) -> None:
    """Record ``platform`` as the newly active platform."""
    state.history.append(platform)
    window = state._window()
    if len(state.history) > window:
        del state.history[: len(state.history) - window]
    state.step += 1


def step_schedule(state: ScheduleState, sim: SimilarityMatrix | None = None) -> int:
    """Select the next platform, advance the state, and return the choice."""
    choice = next_platform(state, sim)
    advance(state, choice)
    return choice


def diversity_schedule(sim: SimilarityMatrix, start: int, steps: int, k: int) -> list[int]:
    """Deterministic diversity trace of ``steps`` platforms beginning at ``start``."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    check_pool(MigrationPolicy.diversity(k), sim.count)
    if not 0 <= start < sim.count:
        raise ValueError(f"start platform {start} out of range")
    dist = sim.distances()
    trace = [start]
    for _ in range(steps - 1):
        trace.append(_most_diverse(dist, trace[-(k - 1):]))
    return trace


def make_random_k_policy(platforms: PlatformSet | int, k: int, seed) -> MigrationPolicy:
    """Realize a random-k policy: draw ``k`` distinct platforms, rotate periodically.

    The subset is uniform over all k-subsets and the rotation order is a
    uniformly random arrangement of it. ``seed`` may be an int seed or a
    Generator.
    """
    count = platforms if isinstance(platforms, int) else len(platforms)
    if k < 2:
        raise ValueError("random-k rotation requires k >= 2")
    check_pool(MigrationPolicy.random_k(k), count)
    rng = as_generator(seed)
    subset = rng.choice(count, size=k, replace=False)
    return MigrationPolicy.fixed_periodic(tuple(int(p) for p in subset))


@dataclass(frozen=True)
class Periodicity:
    """Detected eventual periodicity: cycle length and transient prefix length."""

    period: int
    transient: int


def detect_periodicity(trace: list[int] | tuple[int, ...]) -> Periodicity | None:
    """Smallest period p and transient t with trace[i] == trace[i+p] for all i >= t.

    Requires at least two full periods after the transient to call a
    trace periodic; returns None otherwise.
    """
    length = len(trace)
    if length < 2:
        raise ValueError("trace must contain at least two entries")
    for period in range(1, length // 2 + 1):
        transient = 0
        for i in range(length - period - 1, -1, -1):
            if trace[i] != trace[i + period]:
                transient = i + 1
                break
        if length - transient >= 2 * period:
            return Periodicity(period=period, transient=transient)
    return None
