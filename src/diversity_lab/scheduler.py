"""Migration scheduling policies.

Diversity-optimal selection picks each next platform to be jointly most
dissimilar from the recent history: plain maximum distance when only one
prior platform is relevant, maximum triangle area (Heron's formula on
pairwise distances) for a two-platform history, and maximum summed
pairwise distance for longer histories. Ties break toward the lowest
platform index so schedules are fully deterministic. From step k-1 on,
a step is a pure function of the last k-1 platforms, so a diversity
walk is periodic from its first repeated window; ``diversity_walks``
stops there and repeats the cycle. A policy is a ``PolicyKind`` and its
``k``: ``check_pool`` says whether it can schedule over a pool, and
``schedule`` builds its whole schedule as one array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import PolicyKind, SimilarityMatrix

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


def check_pool(kind: PolicyKind, k: int, count: int) -> None:
    """Raise ValueError when a ``kind`` policy with horizon ``k`` cannot schedule over ``count`` platforms."""
    if kind is not PolicyKind.UNIFORM and k < 2:
        raise ValueError(f"{kind.value} policy requires k >= 2")
    if kind is PolicyKind.RANDOM_K and k > count:
        raise ValueError(f"cannot rotate over k={k} of {count} platforms")
    if kind is PolicyKind.DIVERSITY and k > count:
        raise ValueError(f"policy requires k={k} distinct platforms, only {count} available")
    if kind is not PolicyKind.RANDOM_K and count < 2:
        raise ValueError("migration without repeat needs at least two platforms")


def _most_diverse(dist: np.ndarray, hist) -> np.ndarray:
    """Index of the candidate scoring highest against each history row (most recent last).

    ``hist`` holds one history per row, in its last axis. All candidates
    of every row are scored at once, with the same elementwise operations
    for one row as for many; the current platform is excluded and ties go
    to the lowest index. Distances are symmetric, so row ``p`` of
    ``dist`` holds every candidate's distance to platform ``p``.
    """
    hist = np.asarray(hist)
    first = hist[..., 0]
    # take copies the rows, so the scores can be written
    scores = np.take(dist, first, axis=0)
    if hist.shape[-1] == 2:
        second = hist[..., 1]
        scores = heron_area(scores, np.take(dist, second, axis=0), dist[first, second][..., None])
    elif hist.shape[-1] > 2:
        # added in history order: the order fixes the rounding, and so the ties
        for prior in np.moveaxis(hist[..., 1:], -1, 0):
            scores += np.take(dist, prior, axis=0)
    current = hist[..., -1]
    scores[(*np.indices(current.shape, sparse=True), current)] = -np.inf
    return scores.argmax(axis=-1)


def diversity_walks(dist: np.ndarray, starts: np.ndarray, steps: int, k: int) -> np.ndarray:
    """The diversity trace of ``steps`` platforms from each start, one row per start.

    The walks advance in lockstep, so each step scores every row at once.
    Each window of k-1 platforms is compared with one checkpoint window,
    moved to the current step whenever the distance to it reaches a power
    of two (Brent's cycle search). Once every row has repeated a window,
    the remaining columns repeat each row's cycle.
    """
    walks = np.empty((len(starts), steps), dtype=np.intp)
    walks[:, 0] = starts
    width = k - 1
    period = np.zeros(len(starts), dtype=np.intp)  # 0 until the row's window repeats
    checkpoint, reach = width - 1, 1
    for step in range(1, steps):
        walks[:, step] = _most_diverse(dist, walks[:, max(0, step - width) : step])
        if step <= checkpoint:
            continue
        window = walks[:, step - width + 1 : step + 1]
        repeated = (window == walks[:, checkpoint - width + 1 : checkpoint + 1]).all(axis=1)
        period[repeated & (period == 0)] = step - checkpoint
        if period.all():
            # columns from first on repeat every period columns, and first + period - 1 <= step
            first = (step - width + 1 - period)[:, None]
            later = first + (np.arange(step + 1, steps) - first) % period[:, None]
            walks[:, step + 1 :] = np.take_along_axis(walks, later, axis=1)
            break
        if step - checkpoint == reach:
            checkpoint, reach = step, 2 * reach
    return walks


def uniform_walks(starts: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """No-repeat walks, one row per start: move ``m`` goes to the m-th of the other platforms.

    Both engines walk with it; starts and moves may be integers or integral doubles
    below 2**53, which are cast to platform indices once. The walks are
    Fortran-ordered (step-major), so each step, and each column a stay-major scan
    reads, is contiguous.
    """
    walks = np.empty((len(starts), moves.shape[1] + 1), dtype=np.intp, order="F")
    walks[:, 0] = starts
    walks[:, 1:] = moves
    for previous, step in zip(walks.T, walks.T[1:]):
        step += step >= previous
    return walks


def schedule(
    kind: PolicyKind, sim: SimilarityMatrix, k: int, start: int | None, steps: int, rng: np.random.Generator
) -> np.ndarray:
    """Platform of each of ``steps`` intervals under a ``kind`` policy with horizon ``k``, from ``start``.

    A diversity trace draws nothing. A uniform trace makes no immediate
    repeat and draws one batched ``integers(N - 1, size=(1, steps - 1))``
    from ``rng``: the same values, and the same generator state
    afterwards, as one scalar draw per step. A random-k trace draws
    ``choice(N, k, replace=False)`` and rotates through it from its head,
    ignoring ``start``; the other policies reject a ``start`` outside the
    pool. The caller checks the pool with ``check_pool``.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if kind is PolicyKind.RANDOM_K:
        return np.resize(rng.choice(sim.count, k, replace=False), steps)
    if start is None or not 0 <= start < sim.count:
        raise ValueError(f"start platform {start} out of range")
    if kind is PolicyKind.DIVERSITY:
        return diversity_walks(sim.distances(), np.array([start]), steps, k)[0]
    return uniform_walks(np.array([start]), rng.integers(sim.count - 1, size=(1, steps - 1)))[0]


@dataclass(frozen=True)
class Periodicity:
    """Detected eventual periodicity: cycle length and transient prefix length."""

    period: int
    transient: int


def detect_periodicity(trace: list[int] | tuple[int, ...], k: int) -> Periodicity | None:
    """Smallest period p and transient t with trace[i] == trace[i+p] for all i >= t.

    Requires at least two full periods after the transient to call a
    trace periodic, and a repeat of at least k - 1 entries: a step of a
    k-diversity walk depends on its last k - 1 platforms, so a shorter
    repeat proves no period. Returns None otherwise.
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
        if length - transient >= period + max(period, k - 1):
            return Periodicity(period=period, transient=transient)
    return None
