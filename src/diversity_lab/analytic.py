"""Closed-form combinatorics and run-length Markov analytics.

Models a system that migrates across ``m`` vulnerable and ``n``
invulnerable platforms. Because platforms within a class are
exchangeable, the vulnerable/invulnerable status of the active platform
is an exact two-state Markov chain; runs of consecutive vulnerable
intervals are tracked by a small (k+1)-state chain whose states count
the current run length, saturating at ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

#: Row-stochasticity tolerance for run-length transition matrices.
ROW_SUM_TOLERANCE = 1e-12


class RepeatMode(Enum):
    """Whether the migration discipline may repeat the current platform."""

    WITH_REPEAT = "with"
    WITHOUT_REPEAT = "without"


@dataclass(frozen=True)
class MarkovParams:
    """Vulnerable/invulnerable platform counts and the induced transition probabilities.

    Uniform selection without immediate repeat picks the next platform
    among the other ``m + n - 1``; with repeat, among all ``m + n``. When
    a conditional probability's conditioning event is impossible (no
    vulnerable platform for p_vv, none invulnerable for p_ii) the
    probability is reported as 0.
    """

    m: int
    n: int
    repeat_mode: RepeatMode = RepeatMode.WITHOUT_REPEAT

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("platform counts must be non-negative")
        total = self.m + self.n
        if total < 1:
            raise ValueError("at least one platform is required")
        if self.repeat_mode is RepeatMode.WITHOUT_REPEAT and total < 2:
            raise ValueError("migration without repeat requires at least two platforms")

    @property
    def total(self) -> int:
        return self.m + self.n

    @property
    def p_vulnerable(self) -> float:
        """Probability that a uniformly selected platform is vulnerable."""
        return self.m / self.total

    @property
    def p_vv(self) -> float:
        """Probability the next platform is vulnerable given the current one is."""
        if self.m == 0:
            return 0.0
        if self.repeat_mode is RepeatMode.WITH_REPEAT:
            return self.m / self.total
        return (self.m - 1) / (self.total - 1)

    @property
    def p_ii(self) -> float:
        """Probability the next platform is invulnerable given the current one is."""
        if self.n == 0:
            return 0.0
        if self.repeat_mode is RepeatMode.WITH_REPEAT:
            return self.n / self.total
        return (self.n - 1) / (self.total - 1)


def choose(x: int, y: int) -> int:
    """Binomial coefficient x! / (y! (x-y)!), exact arbitrary precision."""
    if x < 0 or y < 0:
        raise ValueError("choose() arguments must be non-negative")
    if y > x:
        raise ValueError(f"choose({x}, {y}): y must not exceed x")
    return math.comb(x, y)


def p_success_aggregate(m: int, n: int, j: int, p, strict: bool = False) -> float:
    """Probability the attacker controls at least a fraction ``p`` of a random j-subset.

    The defender subselects ``j`` of the ``m + n`` platforms uniformly;
    the attacker wins if the vulnerable share of the subset reaches ``p``
    (``strict=True`` requires strictly exceeding ``p``, which only
    matters when ``p * j`` is an integer). ``p`` may be a float, an exact
    decimal string such as ``"0.5"``, or a :class:`~fractions.Fraction`.
    """
    if m < 0 or n < 0:
        raise ValueError("platform counts must be non-negative")
    if not 1 <= j <= m + n:
        raise ValueError(f"subselection size j={j} must satisfy 1 <= j <= {m + n}")
    frac_p = Fraction(p)
    if not 0 < frac_p <= 1:
        raise ValueError(f"required fraction p={p} must lie in (0, 1]")
    threshold = frac_p * j
    if strict and threshold.denominator == 1:
        lowest = int(threshold) + 1
    else:
        lowest = math.ceil(threshold)
    lowest = max(lowest, j - n)  # need j - i <= n invulnerable picks
    highest = min(m, j)
    total = choose(m + n, j)
    mass = Fraction(0)
    for i in range(lowest, highest + 1):
        mass += Fraction(choose(m, i) * choose(n, j - i), total)
    return float(mass)


@dataclass(frozen=True)
class RunLengthChain:
    """Markov chain over run lengths 0..k of consecutive vulnerable intervals.

    State r < k means the last r intervals (and no more) were vulnerable;
    state k absorbs all runs of length >= k. Rows are validated to sum
    to 1 within ``ROW_SUM_TOLERANCE``.
    """

    params: MarkovParams
    k: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (self.k + 1, self.k + 1):
            raise ValueError(f"expected a {self.k + 1}x{self.k + 1} matrix")
        if np.any(matrix < 0.0) or np.any(matrix > 1.0):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_sums = matrix.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOLERANCE):
            raise ValueError("every transition-matrix row must sum to 1")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)


def run_length_chain(params: MarkovParams, k: int) -> RunLengthChain:
    """Build the (k+1)-state run-length transition matrix for ``params``."""
    if k < 1:
        raise ValueError("run length k must be >= 1")
    p_vv = params.p_vv
    p_ii = params.p_ii
    matrix = np.zeros((k + 1, k + 1), dtype=float)
    matrix[0, 0] = p_ii
    matrix[0, 1] = 1.0 - p_ii
    for r in range(1, k):
        matrix[r, 0] = 1.0 - p_vv
        matrix[r, r + 1] = p_vv
    matrix[k, 0] = 1.0 - p_vv
    matrix[k, k] = p_vv
    return RunLengthChain(params, k, matrix)


def steady_state(chain: RunLengthChain) -> np.ndarray:
    """Stationary distribution of the run-length chain.

    Solved directly from (P^T - I) x = 0 with a normalization row.
    Degenerate chains (p_vv of 0 or 1) are reducible but still have a
    unique stationary distribution on their reachable states, which the
    solve recovers.
    """
    transition = chain.matrix
    size = transition.shape[0]
    system = transition.T - np.eye(size)
    system[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    try:
        vector = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        vector, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if np.any(vector < -1e-9):
        raise ValueError("stationary solve produced negative probabilities")
    vector = np.clip(vector, 0.0, None)
    vector /= vector.sum()
    return vector


def expected_control_fraction(params: MarkovParams, k: int) -> float:
    """Long-run fraction of intervals lying in vulnerable runs of length >= k.

    This is the fractional-payoff control measure: a vulnerable interval
    counts once the run it belongs to reaches ``k`` consecutive
    vulnerable intervals, including the intervals that led up to the
    run's completion. Equals p_v * p_vv^(k-1) * (k - (k-1) * p_vv),
    the reduced form of the steady-state run-weighting sum.
    """
    if k < 1:
        raise ValueError("run length k must be >= 1")
    p_v = params.p_vulnerable
    p_vv = params.p_vv
    return p_v * p_vv ** (k - 1) * (k - (k - 1) * p_vv)


def expected_time_to_compromise(params: MarkovParams, k: int) -> float:
    """Expected number of migration steps until the first run of ``k`` vulnerable intervals.

    The count includes the interval that completes the run; the first
    interval's platform is drawn uniformly. Returns ``math.inf`` when a
    run of length ``k`` is combinatorially impossible (no vulnerable
    platform, or k >= 2 with p_vv = 0).
    """
    if k < 1:
        raise ValueError("run length k must be >= 1")
    if params.m == 0:
        return math.inf
    p_v = params.p_vulnerable
    p_vv = params.p_vv
    p_ii = params.p_ii
    # p_ii == 1 is only possible when m == 0, handled above.
    if k == 1:
        return 1.0 + (1.0 - p_v) / (1.0 - p_ii)
    if p_vv == 0.0:
        return math.inf
    if p_vv == 1.0:
        return float(k)
    restart_factor = p_vv ** (1 - k) - 1.0
    mean_partial_run = (1.0 - k * p_vv ** (k - 1) + (k - 1) * p_vv**k) / (
        (1.0 - p_vv ** (k - 1)) * (1.0 - p_vv)
    )
    mean_invulnerable_stay = 1.0 / (1.0 - p_ii)
    return (
        k
        + (1.0 - p_v) * mean_invulnerable_stay
        + restart_factor * (mean_partial_run + mean_invulnerable_stay)
    )


def p_success_finite_window(d: float, a: float, s: float) -> float:
    """Success probability of an attack needing ``a`` seconds in a trial of ``d`` seconds.

    ``s`` is the span of the uniformly random attack start window; with
    ``s = d`` this is the probability that a start drawn uniformly over
    the trial leaves at least ``a`` seconds before the trial ends.
    """
    if d <= 0 or a <= 0 or s <= 0:
        raise ValueError("d, a, and s must all be positive")
    return min(1.0, max(0.0, (d - a) / s))
