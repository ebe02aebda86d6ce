"""Closed-form attacker metrics for a rotation over ``m`` vulnerable and ``n`` invulnerable platforms.

The model is a Markov chain. Platforms within a class are exchangeable,
so whether the active platform is vulnerable is an exact two-state chain
(``MarkovParams``), and the runs of consecutive vulnerable intervals form
a (k+1)-state chain whose state counts the current run length,
saturating at ``k``. Every quantity here is stated in closed form from
that chain: its stationary law (``steady_state``), the long-run control
fraction and the expected time to compromise; the aggregate and
finite-window success probabilities are one-shot draws beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

#: Most platforms ``m + n`` that ``p_success_aggregate`` takes. Its exact sum
#: costs about the square of ``m + n``: 0.3 s at the bound on a 2-vCPU Xeon VM.
MAX_AGGREGATE_PLATFORMS = 40_000


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
    """One-shot probability that the attacker controls at least a fraction ``p`` of a random j-subset.

    The defender subselects ``j`` of the ``m + n`` platforms uniformly;
    the attacker wins if the vulnerable share of the subset reaches ``p``
    (``strict=True`` requires strictly exceeding ``p``, which only
    matters when ``p * j`` is an integer). ``p`` may be a float, an exact
    decimal string such as ``"0.5"``, or a :class:`~fractions.Fraction`.
    The sum is exact: each term ``C(m, i)·C(n, j-i)`` follows from the one
    before by an integer ratio, and one ``Fraction`` divides the total.
    """
    if m < 0 or n < 0:
        raise ValueError("platform counts must be non-negative")
    if m + n > MAX_AGGREGATE_PLATFORMS:
        raise ValueError(f"platform count m + n = {m + n} exceeds {MAX_AGGREGATE_PLATFORMS}")
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
    if lowest > highest:
        return 0.0
    term = choose(m, lowest) * choose(n, j - lowest)
    mass = term
    for i in range(lowest, highest):
        # C(m, i+1)·C(n, j-i-1) is an integer, so the floor division is exact
        term = term * (m - i) * (j - i) // ((i + 1) * (n - j + i + 1))
        mass += term
    return float(Fraction(mass, choose(m + n, j)))


def steady_state(params: MarkovParams, k: int) -> np.ndarray:
    """Stationary run-length law per interval: entry r is the long-run share of intervals at run length r.

    Entry 0 is the invulnerable share n / (m + n). A run of exactly r < k
    vulnerable intervals has share p_v (1 - p_vv) p_vv^(r-1), and the
    saturating state k takes p_v p_vv^(k-1). The vulnerable share is
    p_v = m / (m + n) in both repeat modes, and p_vv of 0 or 1 needs no
    special case.
    """
    if k < 1:
        raise ValueError("run length k must be >= 1")
    p_v = params.p_vulnerable
    p_vv = params.p_vv
    vec = np.empty(k + 1)
    vec[0] = params.n / params.total
    vec[1:k] = p_v * (1.0 - p_vv) * p_vv ** np.arange(k - 1)
    vec[k] = p_v * p_vv ** (k - 1)
    return vec


def expected_control_fraction(params: MarkovParams, k: int) -> float:
    """Long-run fraction of intervals that lie in vulnerable runs of length >= k, counting whole runs.

    This is the fractional-payoff control measure: a vulnerable interval
    counts once the run it belongs to reaches ``k`` consecutive
    vulnerable intervals, including the intervals that led up to the
    run's completion. It reduces the ``steady_state`` vector, entry r
    weighted by p_vv^(k-r), the chance that a run at length r reaches k,
    to p_v * p_vv^(k-1) * (k - (k-1) * p_vv).
    """
    if k < 1:
        raise ValueError("run length k must be >= 1")
    p_v = params.p_vulnerable
    p_vv = params.p_vv
    return p_v * p_vv ** (k - 1) * (k - (k - 1) * p_vv)


def expected_time_to_compromise(params: MarkovParams, k: int) -> float:
    """Expected steps from a uniformly drawn first platform until the first run of ``k`` vulnerable intervals.

    The count includes the first interval and the interval that completes
    the run. Returns ``math.inf`` when a run of length ``k`` is
    combinatorially impossible (no vulnerable platform, or k >= 2 with
    p_vv = 0), and whenever the expectation exceeds the float range (with
    p_vv = 0.5, from k = 1024).
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
    try:
        restart_factor = p_vv ** (1 - k) - 1.0
    except OverflowError:  # the expectation exceeds the float range
        return math.inf
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
    """One-shot success probability of an attack needing ``a`` seconds in a trial of ``d`` seconds.

    ``s`` is the span of the uniformly random attack start window; with
    ``s = d`` this is the probability that a start drawn uniformly over
    the trial leaves at least ``a`` seconds before the trial ends.
    """
    if not all(0 < x < math.inf for x in (d, a, s)):
        raise ValueError("d, a, and s must all be finite and positive")
    return min(1.0, max(0.0, (d - a) / s))
