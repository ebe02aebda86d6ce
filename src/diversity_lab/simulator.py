"""Interval-based Monte Carlo engine.

Each trial draws a vulnerability labeling from the similarity matrix
(one uniformly chosen seed platform is vulnerable; every other platform
is vulnerable with probability equal to its similarity to the seed),
then evaluates every configured policy on that same labeling so policy
comparisons are paired. Streams derive from (master seed, trial index,
stream id): stream 0 is the labeling and each policy has a fixed stream
id, so trials are order-independent and safe to run concurrently.

A study draws nothing trial by trial. Each stream states its draws as
an ``rng.draw_plan``, and ``rng.draws`` gives them for a chunk of trials
at once:

- labeling: ``integers(N)`` for the seed platform, then a ``random()``
  double for each other platform;
- diversity: ``integers(N)`` for the start;
- uniform: the start and then one ``integers(N - 1)`` per move;
- random-k: ``choice(N, k, replace=False)``'s draws, ``rng._floyd_bounds``.

Each policy's trials × intervals vulnerability matrix is built as
arrays: ``scheduler.uniform_walks``, the no-repeat walk the scenario
engine also uses, steps every trial at once, and the diversity trace,
which depends only on (similarity, k, start), comes from one batched
walk over the distinct starts that stops once every start's cycle is
found. The metrics stay arrays up to the CLI's writers. With N above
``rng.FLOYD_POOL_LIMIT``, where NumPy may draw a random-k subset by a
tail shuffle, each trial's subset comes from ``choice`` on its
``substream``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PlatformSet,
    PolicyKind,
    SimilarityMatrix,
    is_int,
    is_number_list,
    list_of,
    manifest_value,
)
from .rng import FLOYD_POOL_LIMIT, WORD_CELLS, _floyd_bounds, _random_k_subsets, draw_plan, draws, substream
from .scheduler import check_pool, diversity_walks, uniform_walks

LABELING_STREAM = 0
#: The study policies, each with a stable stream id, so a policy's trials are
#: identical whether it runs alone or alongside the others.
POLICY_STREAM = {
    PolicyKind.DIVERSITY: 1,
    PolicyKind.UNIFORM: 2,
    PolicyKind.RANDOM_K: 3,
}
DEFAULT_POLICY_KINDS = tuple(POLICY_STREAM)
POLICY_BY_NAME = {kind.value: kind for kind in POLICY_STREAM}


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo study configuration."""

    trials: int = 500
    intervals: int = 100
    k: int = 3
    policy_kinds: tuple[PolicyKind, ...] = DEFAULT_POLICY_KINDS
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.k < 2:
            raise ValueError("persistence requirement k must be >= 2")
        if self.intervals < self.k:
            raise ValueError("intervals must be at least k")
        if not self.policy_kinds:
            raise ValueError("at least one policy is required")
        if len(set(self.policy_kinds)) != len(self.policy_kinds):
            raise ValueError("policy kinds must be unique")
        if self.master_seed < 0:
            raise ValueError("master seed must be non-negative")

    def to_manifest(self, sim: SimilarityMatrix) -> dict:
        """The run manifest fields of a study of this config on ``sim``."""
        return {
            "seed": self.master_seed,
            "trials": self.trials,
            "intervals": self.intervals,
            "k": self.k,
            "policies": [kind.value for kind in self.policy_kinds],
            "similarity": {"platforms": list(sim.platforms.names), "scores": sim.scores.tolist()},
        }

    @classmethod
    def from_manifest(cls, manifest: dict) -> tuple[McConfig, SimilarityMatrix]:
        """The config and similarity matrix that ``to_manifest`` wrote, each key's type checked."""
        seed, trials, intervals, k = (
            manifest_value(manifest, key, is_int) for key in ("seed", "trials", "intervals", "k")
        )
        policies = manifest_value(
            manifest, "policies", list_of(lambda name: isinstance(name, str) and name in POLICY_BY_NAME)
        )
        similarity = manifest_value(manifest, "similarity", lambda value: isinstance(value, dict))
        names = manifest_value(
            similarity, "platforms", list_of(lambda name: isinstance(name, str)), "similarity.platforms"
        )
        scores = manifest_value(similarity, "scores", list_of(is_number_list), "similarity.scores")
        config = cls(trials, intervals, k, tuple(POLICY_BY_NAME[name] for name in policies), seed)
        return config, SimilarityMatrix(PlatformSet(tuple(names)), np.array(scores, dtype=float))


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF evaluated at the observed values.

    ``total`` may exceed the number of samples (e.g. trials that never
    produced a value), in which case the curve plateaus below 1.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]

    @classmethod
    def from_samples(cls, samples, total: int | None = None) -> EmpiricalCdf:
        values, counts = np.unique(np.asarray(samples, dtype=float), return_counts=True)
        size = int(counts.sum())
        total = size if total is None else total
        if total < max(1, size):
            raise ValueError("total must cover all samples")
        return cls(tuple(values.tolist()), tuple((np.cumsum(counts) / total).tolist()))

    def auc(self, upper: float = 1.0) -> float:
        """Area under the CDF over [0, upper]; 1 - auc() is the sample mean for values in [0, 1]."""
        return float(np.dot(self.probs, np.diff(self.values, append=upper)))


@dataclass(frozen=True, eq=False)
class PolicyMetrics:
    """Per-trial evaluation metrics for one policy, one read-only array entry per trial.

    An interval is compromised when the ``k`` most recent intervals
    (ending at it) were all vulnerable. ``time_to_first_compromise``
    entries are 1-based interval indices, or 0 for trials that were
    never compromised.
    """

    k: int
    intervals: int
    vulnerable_fraction: np.ndarray
    time_to_first_compromise: np.ndarray
    compromised_fraction: np.ndarray

    @property
    def trials(self) -> int:
        return len(self.vulnerable_fraction)

    @property
    def mean_vulnerable_fraction(self) -> float:
        return float(np.mean(self.vulnerable_fraction))

    @property
    def mean_compromised_fraction(self) -> float:
        return float(np.mean(self.compromised_fraction))

    @property
    def compromise_incidence(self) -> float:
        """Fraction of trials compromised at least once."""
        return np.count_nonzero(self.time_to_first_compromise) / self.trials

    @property
    def mean_time_to_first_compromise(self) -> float | None:
        """Mean over compromised trials only; None when no trial was compromised."""
        finite = self.time_to_first_compromise[self.time_to_first_compromise > 0]
        return float(np.mean(finite)) if finite.size else None

    def cdf_vulnerable_fraction(self) -> EmpiricalCdf:
        return EmpiricalCdf.from_samples(self.vulnerable_fraction)

    def cdf_compromised_fraction(self) -> EmpiricalCdf:
        return EmpiricalCdf.from_samples(self.compromised_fraction)

    def cdf_time_to_first_compromise(self) -> EmpiricalCdf:
        finite = self.time_to_first_compromise[self.time_to_first_compromise > 0]
        return EmpiricalCdf.from_samples(finite, total=self.trials)


def compute_metrics(vulnerable, k: int) -> PolicyMetrics:
    """The three study metrics of a trials × intervals vulnerability matrix, persistence ``k``."""
    vulnerable = np.asarray(vulnerable, dtype=bool)
    if vulnerable.ndim != 2 or not vulnerable.size:
        raise ValueError("vulnerability must be a non-empty trials × intervals matrix")
    if k < 1:
        raise ValueError("persistence requirement k must be >= 1")
    intervals = vulnerable.shape[1]
    # hits[t, i]: the k intervals ending at interval i of trial t were all vulnerable
    hits = vulnerable.copy()
    hits[:, : k - 1] = False
    for lag in range(1, k):
        hits[:, lag:] &= vulnerable[:, :-lag]
    compromised = np.count_nonzero(hits, axis=1)
    fields = (
        np.count_nonzero(vulnerable, axis=1) / intervals,
        np.where(compromised > 0, hits.argmax(axis=1) + 1, 0),
        compromised / intervals,
    )
    for array in fields:
        array.flags.writeable = False
    return PolicyMetrics(k, intervals, *fields)


def run_mc_study(config: McConfig, sim: SimilarityMatrix) -> dict[str, PolicyMetrics]:
    """Metrics per policy name, in config order, of the paired-policy study; reproducible from the seed.

    A policy's trial draws from its own stream, in order: the random-k
    subset, or else the start platform, then for the uniform policy its
    moves. A chunk of trials, at most ``WORD_CELLS`` trial × interval or
    trial × platform cells, takes one ``rng.draws`` call per stream.
    """
    policies = config.policy_kinds
    for kind in policies:
        check_pool(kind, config.k, sim.count)
    seed, count, intervals, k = config.master_seed, sim.count, config.intervals, config.k
    vulnerable = {kind: np.empty((config.trials, intervals), dtype=bool) for kind in policies}
    trials = np.arange(config.trials)
    if PolicyKind.DIVERSITY in policies:
        # a diversity trace draws nothing after its start: one walk per distinct start serves all
        starts = draws(draw_plan([count]), seed, trials, POLICY_STREAM[PolicyKind.DIVERSITY])[0]
        distinct, walk_of = np.unique(starts.astype(np.intp), return_inverse=True)
        walks = diversity_walks(sim.distances(), distinct, intervals, k)
    labeling = draw_plan([count] + [0] * (count - 1))
    if PolicyKind.UNIFORM in policies:
        uniform_plan = draw_plan([count] + [count - 1] * (intervals - 1))
    if PolicyKind.RANDOM_K in policies:
        random_k_plan = draw_plan(_floyd_bounds(count, k))
    chunk = max(1, WORD_CELLS // max(intervals, count))
    for first in range(0, config.trials, chunk):
        rows = trials[first : first + chunk]
        flags = _labelings(draws(labeling, seed, rows, LABELING_STREAM), sim.scores)
        for kind in policies:
            if kind is PolicyKind.DIVERSITY:
                chosen = walks[walk_of[rows]]
            elif kind is PolicyKind.UNIFORM:
                values = draws(uniform_plan, seed, rows, POLICY_STREAM[kind])
                chosen = uniform_walks(values[0], values[1:].T)
            else:
                stream = POLICY_STREAM[kind]
                if count > FLOYD_POOL_LIMIT:  # NumPy may shuffle a tail, in an order no plan states
                    subsets = np.array([substream(seed, t, stream).choice(count, k, replace=False) for t in rows])
                else:
                    subsets = _random_k_subsets(draws(random_k_plan, seed, rows, stream), count, k)
                chosen = subsets[:, np.arange(intervals) % k]
            vulnerable[kind][rows] = np.take_along_axis(flags, chosen, axis=1)
    return {kind.value: compute_metrics(vulnerable[kind], config.k) for kind in config.policy_kinds}


def _labelings(values: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Each trial's labeling from its draws, one column per trial: (trials, N) flags.

    Row 0 holds the seed platforms; rows 1 to N-1 hold the ``random()``
    doubles of the other platforms, in index order.
    """
    count = len(scores)
    seeds = values[0].astype(np.intp)[:, None]
    others = np.arange(count - 1) + (np.arange(count - 1) >= seeds)
    flags = np.ones((len(seeds), count), dtype=bool)
    np.put_along_axis(flags, others, values[1:].T < scores[seeds, others], axis=1)
    return flags
