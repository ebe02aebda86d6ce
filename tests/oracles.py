"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (Pascal's
triangle, brute-force enumeration, power iteration, direct random walks)
rather than reusing the library's code paths.
"""

from __future__ import annotations

import itertools

import numpy as np


def pascal_choose(x: int, y: int) -> int:
    """Binomial coefficient via additive Pascal-triangle recursion."""
    row = [1]
    for _ in range(x):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[y]


def power_iteration_stationary(matrix: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Stationary distribution by power iteration.

    Iterates the lazy chain (P + I) / 2, which has the same stationary
    distribution and converges even for periodic chains.
    """
    size = matrix.shape[0]
    lazy = 0.5 * (np.asarray(matrix, dtype=float) + np.eye(size))
    vec = np.full(size, 1.0 / size)
    for _ in range(500_000):
        nxt = vec @ lazy
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - vec)) < tol:
            return nxt
        vec = nxt
    raise AssertionError("power iteration did not converge")


def simulate_hitting_times(
    m: int, n: int, k: int, walks: int, rng: np.random.Generator
) -> np.ndarray:
    """First time a no-repeat platform walk shows k consecutive vulnerable platforms.

    Platforms 0..m-1 are vulnerable. The walk starts on a uniformly
    random platform and moves to a uniformly random *other* platform each
    step. Returns the 1-based step index at which the k-th consecutive
    vulnerable platform appears, per walk. Vectorized over walks.
    """
    total = m + n
    times = np.zeros(walks, dtype=np.int64)
    current = rng.integers(0, total, size=walks)
    run = np.where(current < m, 1, 0)
    done = run >= k
    times[done] = 1
    live = np.flatnonzero(~done)
    current = current[live]
    run = run[live]
    step = 1
    while live.size:
        step += 1
        if step > 10_000_000:
            raise AssertionError("hitting-time walk did not terminate")
        draw = rng.integers(0, total - 1, size=live.size)
        nxt = draw + (draw >= current)
        run = np.where(nxt < m, run + 1, 0)
        done = run >= k
        times[live[done]] = step
        keep = ~done
        live = live[keep]
        current = nxt[keep]
        run = run[keep]
    return times


def simulate_control_fraction(
    m: int, n: int, k: int, steps: int, rng: np.random.Generator
) -> float:
    """Long-run fraction of steps inside vulnerable runs of length >= k.

    Simulates the no-repeat platform walk directly and counts the steps
    belonging to maximal all-vulnerable runs that reached length k.
    """
    total = m + n
    draws = rng.integers(0, total - 1, size=steps - 1).tolist()
    vulnerable = np.empty(steps, dtype=bool)
    current = int(rng.integers(total))
    vulnerable[0] = current < m
    for i, draw in enumerate(draws):
        nxt = draw + 1 if draw >= current else draw
        vulnerable[i + 1] = nxt < m
        current = nxt
    padded = np.concatenate(([False], vulnerable, [False])).astype(np.int8)
    edges = np.diff(padded)
    lengths = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
    return float(lengths[lengths >= k].sum()) / steps


def naive_trace_metrics(vulnerable, k: int):
    """Double-loop recount of the three per-trial metrics."""
    intervals = len(vulnerable)
    compromised_intervals = []
    for i in range(intervals):
        if i + 1 >= k and all(vulnerable[i - k + 1 : i + 1]):
            compromised_intervals.append(i + 1)
    vulnerable_fraction = sum(1 for v in vulnerable if v) / intervals
    first = compromised_intervals[0] if compromised_intervals else None
    compromised_fraction = len(compromised_intervals) / intervals
    return vulnerable_fraction, first, compromised_fraction


def enumerate_labelings(scores) -> list[tuple[tuple[bool, ...], float]]:
    """Every (flags, probability) outcome of the similarity-seeded labeling draw.

    The seed platform is uniform over the N platforms and is vulnerable;
    each other platform is vulnerable with probability equal to its
    similarity to the seed. Returns the N * 2**(N-1) (seed, outcome)
    pairs as flag tuples with their probabilities; the same flags may
    appear under several seeds.
    """
    scores = np.asarray(scores, dtype=float)
    count = scores.shape[0]
    outcomes = []
    for seed in range(count):
        others = [i for i in range(count) if i != seed]
        for hits in itertools.product((False, True), repeat=count - 1):
            flags = [False] * count
            flags[seed] = True
            prob = 1.0 / count
            for platform, hit in zip(others, hits):
                flags[platform] = hit
                score = float(scores[seed, platform])
                prob *= score if hit else 1.0 - score
            outcomes.append((tuple(flags), prob))
    return outcomes


def exact_uniform_compromised_fraction(flags, intervals: int, k: int) -> float:
    """Expected compromised fraction of a uniform no-repeat walk on fixed flags.

    The walk starts on a uniformly random platform and each interval moves
    to a uniformly random *other* platform. Dynamic program over
    (platform, vulnerable run length capped at k): interval t counts as
    compromised when the run ending at it is at least k long.
    """
    count = len(flags)
    vulnerable = np.asarray(flags, dtype=bool)
    prob = np.zeros((count, k + 1))
    prob[np.arange(count), np.where(vulnerable, 1, 0)] = 1.0 / count
    compromised = prob[:, k].sum()
    for _ in range(intervals - 1):
        # mass arriving at each platform from every other platform
        arriving = (prob.sum(axis=0) - prob) / (count - 1)
        nxt = np.zeros_like(prob)
        nxt[~vulnerable, 0] = arriving[~vulnerable].sum(axis=1)
        nxt[vulnerable, 1:] = arriving[vulnerable, :k]
        nxt[vulnerable, k] += arriving[vulnerable, k]
        prob = nxt
        compromised += prob[:, k].sum()
    return float(compromised) / intervals


def exact_uniform_mean_compromised_fraction(scores, intervals: int, k: int) -> float:
    """Expected compromised fraction of the uniform policy, over all labelings."""
    return sum(
        prob * exact_uniform_compromised_fraction(flags, intervals, k)
        for flags, prob in enumerate_labelings(scores)
    )


def triangle_area_from_sides(a: float, b: float, c: float) -> float:
    """Heron's formula with the non-metric radicand clamped at zero."""
    s = (a + b + c) / 2.0
    return max(0.0, s * (s - a) * (s - b) * (s - c)) ** 0.5


def scalar_diversity_trace(dist, start: int, steps: int, k: int) -> list[int]:
    """Candidate-by-candidate diversity walk in Python floats, ties to the lowest index."""
    count = dist.shape[0]
    trace = [start]
    for _ in range(steps - 1):
        hist = trace[-(k - 1):]
        best, best_score = -1, -1.0
        for candidate in range(count):
            if candidate == hist[-1]:
                continue
            sides = [float(dist[candidate, prior]) for prior in hist]
            if len(hist) == 1:
                score = sides[0]
            elif len(hist) == 2:
                score = triangle_area_from_sides(*sides, float(dist[hist[0], hist[1]]))
            else:
                score = sum(sides)
            if score > best_score:
                best, best_score = candidate, score
        trace.append(best)
    return trace


def reference_schedule(name: str, dist, k: int, start, steps: int, rng) -> list[int]:
    """One policy's platform per interval, drawn one scalar at a time from ``rng``.

    random-k draws ``k`` distinct platforms and cycles them from the first,
    ignoring ``start``; diversity walks ``scalar_diversity_trace`` from
    ``start``; uniform draws one scalar ``integers(N - 1)`` per step,
    skipping the current platform.
    """
    count = len(dist)
    if name == "random_k":
        subset = rng.choice(count, size=k, replace=False).tolist()
        return [subset[i % k] for i in range(steps)]
    if name == "diversity":
        return scalar_diversity_trace(dist, start, steps, k)
    chosen = [start]
    for _ in range(steps - 1):
        draw = int(rng.integers(count - 1))
        chosen.append(draw + 1 if draw >= chosen[-1] else draw)
    return chosen


def reference_labeling(scores, rng) -> np.ndarray:
    """One bool flag per platform, drawn one scalar at a time from ``rng``.

    The seed platform is uniform and vulnerable; every other platform, in
    index order, is vulnerable when a ``random()`` falls below its
    similarity to the seed.
    """
    count = len(scores)
    seed_platform = int(rng.integers(count))
    flags = [i == seed_platform or bool(rng.random() < scores[seed_platform, i]) for i in range(count)]
    return np.array(flags, dtype=bool)


#: Stream id per policy name; stream 0 draws the labeling.
POLICY_STREAMS = {"diversity": 1, "uniform": 2, "random_k": 3}


def reference_study(config, sim):
    """The Monte Carlo study rebuilt one scalar draw and one step at a time.

    Trial streams are PCG64 generators seeded with ``(master seed, trial,
    stream id)``. Stream 0 draws ``reference_labeling``'s
    labeling. Each policy stream draws a start, except random-k's,
    and then ``reference_schedule``'s draws. Metrics come from
    ``naive_trace_metrics``. Returns {policy name: (vulnerable fractions,
    first compromises, compromised fractions)}.
    """
    scores = np.asarray(sim.scores, dtype=float)
    count = len(scores)
    columns = {kind.value: ([], [], []) for kind in config.policy_kinds}

    def stream(trial, stream_id):
        entropy = (config.master_seed, trial, stream_id)
        return np.random.default_rng(np.random.SeedSequence(entropy=entropy))

    for trial in range(config.trials):
        flags = reference_labeling(scores, stream(trial, 0))
        for name, column in columns.items():
            rng = stream(trial, POLICY_STREAMS[name])
            start = None if name == "random_k" else int(rng.integers(count))
            chosen = reference_schedule(name, 1.0 - scores, config.k, start, config.intervals, rng)
            metrics = naive_trace_metrics([flags[p] for p in chosen], config.k)
            for values, value in zip(column, metrics):
                values.append(value)
    return columns
