"""Migration scheduling policies.

Diversity-optimal selection picks each next platform to be jointly most
dissimilar from the recent history: plain maximum distance when only one
prior platform is relevant, maximum triangle area (Heron's formula on
pairwise distances) for a two-platform history, and maximum summed
pairwise distance for longer histories. Ties break toward the lowest
platform index so schedules are fully deterministic. From step k-1 on,
a step is a pure function of the last k-1 platforms, so a diversity
walk is periodic from its first repeated window; ``diversity_walks``
finds that window with Brent's cycle search, stops there, returns the
cycle's length as the walk's period and repeats the cycle. A policy is
a ``PolicyKind`` and its ``k``: ``walk_bounds`` refuses a pool it cannot
schedule over and lists the draws its walk takes, as ``rng.draw_plan``
takes them, ``walks`` turns the decoded draws into walks and their
periods, and ``search_length`` says how far a ``schedule`` report walks.
The study and the command schedule through these alone, and no other
module tells one kind from another, so each policy is stated here once.
"""

from __future__ import annotations

import numpy as np

from .core import PolicyKind
from .rng import _floyd_bounds, _random_k_subsets

#: ``uniform_walks`` takes its closed form below this many rows and its loop over
#: steps from it on: the loop costs per step, the closed form per cell, and on a
#: 2-vCPU VM they cross at 100 to 200 rows for 43 to 1,000 steps.
CLOSED_FORM_ROWS = 128


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
        import logging  # here, not at import: no default study clamps, so most processes never load it

        logging.getLogger(__name__).debug("clamped %d negative squared triangle area(s) to zero", clamped)
        squared = np.where(negative, 0.0, squared)
    return np.sqrt(squared)


def _most_diverse(dist: np.ndarray, hist: np.ndarray) -> np.ndarray:
    """Index of the candidate scoring highest against each row of ``hist``.

    ``hist`` is a (rows, width) integer array, one walk's last platforms
    per row, most recent last; width is at most k − 1. All candidates of
    every row are scored at once, with the same elementwise operations for
    one row as for many, so a row's choice does not depend on the others;
    the current platform is excluded and ties go to the lowest index.
    Distances are symmetric, so row ``p`` of ``dist`` holds every
    candidate's distance to platform ``p``.
    """
    # indexing with an array copies the rows, so the scores can be written
    scores = dist[hist[:, 0]]
    if hist.shape[1] == 2:
        scores = heron_area(scores, dist[hist[:, 1]], dist[hist[:, 0], hist[:, 1]][:, None])
    else:
        # added in history order: the order fixes the rounding, and so the ties
        for prior in range(1, hist.shape[1]):
            scores += dist[hist[:, prior]]
    scores[np.arange(len(hist)), hist[:, -1]] = -np.inf
    return scores.argmax(axis=1)


def diversity_walks(dist: np.ndarray, starts: np.ndarray, steps: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The diversity trace of ``steps`` platforms from each start, one row per start, and each row's period.

    The walks advance in lockstep, so each step scores every row at once.
    Each window of k-1 platforms is compared with one checkpoint window,
    moved to the current step whenever the distance to it reaches a power
    of two (Brent's cycle search). The distance at the first repeat is the
    row's period, the length of its cycle, or 0 while no window has
    repeated. Once every row has repeated a window, the remaining columns
    repeat each row's cycle.
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
    return walks, period


def uniform_walks(starts: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """No-repeat walks, one row per start: move ``m`` goes to the m-th of the other platforms.

    Both engines walk with it; starts and moves may be integers or integral doubles
    below 2**53, which are cast to platform indices once. The walks are
    Fortran-ordered (step-major), so each step, and each column a stay-major scan
    reads, is contiguous.

    Move m_t lands on m_t + b_t, with b_t = [m_t >= the platform before]. From
    ``CLOSED_FORM_ROWS`` rows on, the steps are taken one column at a time.
    Fewer rows take a closed form with no loop over steps: counting the start
    as move 0 with b_0 = 0, b_t is 1 after a larger move, 0 after a smaller
    one, and flips at each step of a run of equal moves. Each head of a run
    stores ``2t + (b_t ^ t & 1)`` and every other step 0; the running maximum
    carries the head's value along its run, and its low bit xor ``t & 1`` is b_t.
    """
    walks = np.empty((len(starts), moves.shape[1] + 1), dtype=np.intp, order="F")
    walks[:, 0] = starts
    walks[:, 1:] = moves
    steps = walks.T
    if len(starts) >= CLOSED_FORM_ROWS:
        for previous, step in zip(steps, steps[1:]):
            step += step >= previous
        return walks
    previous, current = steps[:-1], steps[1:]
    odd = (np.arange(len(steps)) & 1).astype(bool)[:, None]
    # in place in one step-major array: the closed form holds one int per cell beside the walks
    heads = np.zeros(steps.shape, dtype=np.intp)
    np.greater(current, previous, out=heads[1:])
    heads[1:] ^= odd[1:]
    heads[1:] += np.arange(2, 2 * len(steps), 2)[:, None]
    heads[1:] *= current != previous
    np.maximum.accumulate(heads, axis=0, out=heads)
    heads &= 1
    heads ^= odd
    steps += heads
    return walks


def walk_bounds(kind: PolicyKind, count: int, k: int, steps: int, start: bool = False) -> list[int]:
    """The bounds of the ``integers`` draws of one ``kind`` walk of ``steps`` platforms over ``count``.

    After its start, a diversity walk draws nothing, a uniform walk one
    ``integers(N - 1)`` per move, and a random-k walk ``rng._floyd_bounds``,
    the draws of ``choice(N, k, replace=False)``. With ``start``, a walk
    that has a start, every kind but random-k, first draws it, ``integers(N)``.
    A pool that a ``kind`` walk with horizon ``k`` cannot be scheduled over raises ValueError.
    """
    if kind is not PolicyKind.UNIFORM and k < 2:
        raise ValueError(f"{kind.value} policy requires k >= 2")
    if kind is PolicyKind.RANDOM_K:
        if k > count:
            raise ValueError(f"cannot rotate over k={k} of {count} platforms")
        return _floyd_bounds(count, k)
    if kind is PolicyKind.DIVERSITY and k > count:
        raise ValueError(f"policy requires k={k} distinct platforms, only {count} available")
    if count < 2:
        raise ValueError("migration without repeat needs at least two platforms")
    moves = [count - 1] * (steps - 1) if kind is PolicyKind.UNIFORM else []
    return [count] * start + moves


def search_length(kind: PolicyKind, count: int, k: int, steps: int) -> int:
    """The platforms a ``schedule`` report of ``steps`` walks: Brent's search finds every cycle it shows within them."""
    # a uniform walk has no cycle; a random-k walk's period, k, may exceed steps
    return steps if kind is PolicyKind.UNIFORM else 2 * steps + min(k, count)


def walks(
    kind: PolicyKind, dist: np.ndarray, k: int, steps: int, values: np.ndarray, starts=None
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``kind`` walk of ``steps`` platforms, as a rows × steps matrix, and each row's period.

    ``dist`` is the pool's ``SimilarityMatrix.distances``; ``values`` holds
    the draws of ``walk_bounds``, one column per row, as ``rng.draws``
    decodes them. They begin with the starts, unless ``starts`` gives them;
    a random-k walk rotates through its subset from its head and has none.
    A row's period is the length of the cycle its walk has entered: k for
    random-k, the cycle ``diversity_walks`` found or 0, and 0 for a uniform
    walk, which has no cycle. A diversity walk draws nothing after its
    start, so it depends on the start alone: ``diversity_walks`` walks each
    distinct start once, and the rows that share a start share its walk.
    """
    if kind is PolicyKind.RANDOM_K:
        subsets = _random_k_subsets(values, len(dist), k)
        return subsets[:, np.arange(steps) % k], np.full(len(subsets), k)
    if starts is None:
        starts, values = values[0].astype(np.intp), values[1:]
    elif outside := [start for start in np.asarray(starts).tolist() if start not in range(len(dist))]:
        raise ValueError(f"start platform {outside[0]} out of range")
    if kind is PolicyKind.DIVERSITY:
        distinct, row = np.unique(starts, return_inverse=True)
        walked, period = diversity_walks(dist, distinct, steps, k)
        return walked[row], period[row]
    return uniform_walks(starts, values.T), np.zeros(len(starts), dtype=np.intp)
