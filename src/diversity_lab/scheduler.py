"""Migration scheduling policies.

Diversity-optimal selection picks each next platform to be jointly most
dissimilar from the recent history: plain maximum distance when only one
prior platform is relevant, maximum triangle area (Heron's formula on
pairwise distances) for a two-platform history, and maximum summed
pairwise distance for longer histories. Ties break toward the lowest
platform index so schedules are fully deterministic. ``trace`` builds
the whole schedule of any policy as one array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

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


def trace(
    policy: MigrationPolicy,
    sim: SimilarityMatrix,
    start: int | None,
    steps: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Platform of each of ``steps`` intervals under ``policy``, beginning at ``start``.

    Diversity and fixed periodic traces draw nothing; a fixed periodic
    trace begins at the head of its sequence and ignores ``start``. A
    uniform trace makes no immediate repeat and draws one batched
    ``integers(N - 1, size=steps - 1)`` from ``rng``: the same values,
    and the same generator state afterwards, as one scalar draw per
    step. A random-k policy is realized with ``make_random_k_policy``
    first. The caller checks the pool with ``check_pool``.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if policy.kind is PolicyKind.FIXED_PERIODIC:
        return np.resize(np.array(policy.sequence), steps)
    if policy.kind is PolicyKind.DIVERSITY:
        return np.array(diversity_schedule(sim, start, steps, policy.k))
    if policy.kind is not PolicyKind.UNIFORM:
        raise ValueError(f"policy kind {policy.kind} must be realized before scheduling")
    if rng is None:
        raise ValueError("uniform policy requires a random generator")
    # a draw over the other N - 1 platforms skips the current one
    chosen = [start]
    for draw in rng.integers(sim.count - 1, size=steps - 1).tolist():
        chosen.append(draw + (draw >= chosen[-1]))
    return np.array(chosen)


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
