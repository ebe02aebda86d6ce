"""Interval-based Monte Carlo engine.

Each trial draws a vulnerability labeling from the similarity matrix
(one uniformly chosen seed platform is vulnerable; every other platform
is vulnerable with probability equal to its similarity to the seed),
then evaluates every configured policy on that same labeling so policy
comparisons are paired. Streams derive from (master seed, trial index,
stream id): stream 0 is the labeling and each policy has a fixed stream
id, so trials are order-independent and safe to run concurrently.

A study draws nothing trial by trial. Each stream states its draws as
an ``rng.draw_plan``, and one ``rng.draws`` call gives every stream's
draws for a chunk of trials at once:

- labeling: ``integers(N)`` for the seed platform, then a ``random()``
  double for each other platform;
- each policy: ``scheduler.walk_bounds`` with the start, which also
  refuses, in policy order and before any draw, a pool it cannot schedule.

Each policy's vulnerability matrix of a chunk, chunk trials × intervals,
is built as arrays by one ``scheduler.walks`` call, as the ``schedule``
command builds its walk, and reduced to per-trial metrics at once; this
module branches on no policy kind and keeps no walk or matrix from one
chunk to the next. The metrics stay arrays up to the CLI's writers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_STEPS,
    POLICY_BY_NAME,
    PolicyKind,
    SimilarityMatrix,
    is_int,
    is_number_list,
    list_of,
    manifest_value,
)
from .rng import WORD_CELLS, draw_plan, draws
from .rng import substream  # unused here: the benchmark tracer's test wraps simulator.substream
from .scheduler import walk_bounds, walks

LABELING_STREAM = 0
#: The study policies, each with a stable stream id, so a policy's trials are
#: identical whether it runs alone or alongside the others.
POLICY_STREAM = {
    PolicyKind.DIVERSITY: 1,
    PolicyKind.UNIFORM: 2,
    PolicyKind.RANDOM_K: 3,
}
DEFAULT_POLICY_KINDS = tuple(POLICY_STREAM)
#: Trials per study, like ``scenario.MAX_SAMPLES``: every trial index stays a one-word key part.
MAX_TRIALS = 100_000_000


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
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}")
        if self.k < 2:
            raise ValueError("persistence requirement k must be >= 2")
        if self.intervals < self.k:
            raise ValueError("intervals must be at least k")
        if self.intervals > MAX_STEPS:
            raise ValueError(f"intervals must be at most {MAX_STEPS}")
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
            "similarity": {"platforms": list(sim.names), "scores": sim.scores.tolist()},
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
        return config, SimilarityMatrix(tuple(names), scores)


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF evaluated at the observed values.

    ``total`` may exceed the number of samples (e.g. trials that never
    produced a value), in which case the curve plateaus below 1. For samples
    in [0, 1], the area under the curve over [0, 1] is 1 minus their mean.
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
    hits = vulnerable.copy(order="K")
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

    A policy's trial draws from its own stream what ``walk_bounds`` lists
    with the start. A chunk of trials, at most ``WORD_CELLS`` trial × interval or
    trial × platform cells, takes one ``rng.draws`` call for all its
    streams, keyed stream-major with a plan each. ``compute_metrics``
    reduces each policy's matrix of a chunk as it is built, so a study
    holds one chunk's matrices and per-trial metrics, whatever its length.
    """
    policies = config.policy_kinds
    seed, count, intervals, k = config.master_seed, sim.count, config.intervals, config.k
    # each policy's metrics, chunk by chunk: no vulnerability matrix outlives its chunk
    metrics: dict[PolicyKind, list[PolicyMetrics]] = {kind: [] for kind in policies}
    trials = np.arange(config.trials)
    # every stream, each with its plan, drawn together chunk by chunk
    plans = {LABELING_STREAM: draw_plan([count] + [0] * (count - 1))}
    for kind in policies:
        plans[POLICY_STREAM[kind]] = draw_plan(walk_bounds(kind, count, k, intervals, start=True))
    streams = np.array(list(plans))[:, None]
    dist = sim.distances()
    chunk = max(1, WORD_CELLS // max(intervals, count))
    for first in range(0, config.trials, chunk):
        rows = trials[first : first + chunk]
        values = dict(zip(plans, draws(list(plans.values()), seed, rows, streams)))
        flags = _labelings(values.pop(LABELING_STREAM), sim.scores).ravel()
        # trial i's flags start at cell i·N of the flat labelings
        offsets = (np.arange(len(rows)) * count)[:, None]
        for kind in policies:
            chosen = walks(kind, dist, k, intervals, values[POLICY_STREAM[kind]])[0]
            chosen += offsets
            # step-major: compute_metrics reduces many short rows faster across them than along each
            metrics[kind].append(compute_metrics(np.asfortranarray(flags.take(chosen)), k))
    return {kind.value: _joined(metrics[kind]) for kind in policies}


def _joined(chunks: list[PolicyMetrics]) -> PolicyMetrics:
    """The metrics of consecutive chunks of trials as one study's: ``compute_metrics`` reduces row by row."""
    fields = [
        np.concatenate([getattr(chunk, name) for chunk in chunks])
        for name in ("vulnerable_fraction", "time_to_first_compromise", "compromised_fraction")
    ]
    for array in fields:
        array.flags.writeable = False
    return PolicyMetrics(chunks[0].k, chunks[0].intervals, *fields)


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
