"""Interval-based Monte Carlo engine.

Each trial draws a vulnerability labeling from the similarity matrix
(one uniformly chosen seed platform is vulnerable; every other platform
is vulnerable with probability equal to its similarity to the seed),
then evaluates every configured policy on that same labeling so policy
comparisons are paired. Streams derive from (master seed, trial index,
stream id): stream 0 is the labeling and each policy has a fixed stream
id, so trials are order-independent and safe to run concurrently. The
study takes every trial's streams, in (trial, stream id) order, from
``rng.substreams``, which derives them in bulk and equals ``substream``
on each key.

A study holds one boolean vulnerability row per trial and policy and
reduces each policy's trials × intervals matrix in one array pass. The
diversity trace depends only on (similarity, k, start), so a study
computes it once per start platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    MigrationPolicy,
    PlatformSet,
    PolicyKind,
    SimilarityMatrix,
    VulnerabilityLabeling,
    is_int,
    is_number,
    list_of,
    manifest_value,
)
# ``substream`` stays importable here as ``simulator.substream``, the name the
# benchmark tracer wraps; the study itself derives its streams with ``substreams``
from .rng import substream, substreams  # noqa: F401
from .scheduler import check_pool, make_random_k_policy, trace

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
        scores = manifest_value(similarity, "scores", list_of(list_of(is_number)), "similarity.scores")
        config = cls(trials, intervals, k, tuple(POLICY_BY_NAME[name] for name in policies), seed)
        return config, SimilarityMatrix(PlatformSet(tuple(names)), np.array(scores, dtype=float))


def assign_vulnerabilities(sim: SimilarityMatrix, rng: np.random.Generator) -> VulnerabilityLabeling:
    """Draw a labeling: uniform seed platform, then per-platform Bernoulli by similarity."""
    count = sim.count
    seed_platform = int(rng.integers(count))
    others = np.arange(count) != seed_platform
    flags = np.ones(count, dtype=bool)
    flags[others] = rng.random(count - 1) < sim.scores[seed_platform, others]
    return VulnerabilityLabeling(tuple(flags.tolist()))


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


@dataclass(frozen=True)
class PolicyMetrics:
    """Per-trial evaluation metrics for one policy.

    An interval is compromised when the ``k`` most recent intervals
    (ending at it) were all vulnerable. ``time_to_first_compromise``
    entries are 1-based interval indices, or None for trials that were
    never compromised.
    """

    k: int
    intervals: int
    vulnerable_fraction: tuple[float, ...]
    time_to_first_compromise: tuple[int | None, ...]
    compromised_fraction: tuple[float, ...]

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
        hits = sum(1 for t in self.time_to_first_compromise if t is not None)
        return hits / self.trials

    @property
    def mean_time_to_first_compromise(self) -> float | None:
        """Mean over compromised trials only; None when no trial was compromised."""
        finite = [t for t in self.time_to_first_compromise if t is not None]
        if not finite:
            return None
        return float(np.mean(finite))

    def cdf_vulnerable_fraction(self) -> EmpiricalCdf:
        return EmpiricalCdf.from_samples(self.vulnerable_fraction)

    def cdf_compromised_fraction(self) -> EmpiricalCdf:
        return EmpiricalCdf.from_samples(self.compromised_fraction)

    def cdf_time_to_first_compromise(self) -> EmpiricalCdf:
        finite = [t for t in self.time_to_first_compromise if t is not None]
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
    first = hits.argmax(axis=1) + 1
    return PolicyMetrics(
        k=k,
        intervals=intervals,
        vulnerable_fraction=tuple((np.count_nonzero(vulnerable, axis=1) / intervals).tolist()),
        time_to_first_compromise=tuple(
            at if count else None for at, count in zip(first.tolist(), compromised.tolist())
        ),
        compromised_fraction=tuple((compromised / intervals).tolist()),
    )


@dataclass(frozen=True)
class MetricsReport:
    """Study results: metrics per policy name, keyed as in the config order."""

    config: McConfig
    per_policy: dict[str, PolicyMetrics] = field(default_factory=dict)


def run_mc_study(config: McConfig, sim: SimilarityMatrix) -> MetricsReport:
    """Run the full paired-policy study; fully reproducible from the master seed.

    A policy's trial draws from its own stream, in order: the random-k
    subset, or else the start platform, then for the uniform policy its
    batched moves.
    """
    policies = {kind: MigrationPolicy(kind, config.k) for kind in config.policy_kinds}
    for policy in policies.values():
        check_pool(policy, sim.count)
    shape = (config.trials, config.intervals)
    vulnerable = {kind: np.empty(shape, dtype=bool) for kind in config.policy_kinds}
    diversity_traces: dict[int, np.ndarray] = {}
    stream_ids = [LABELING_STREAM] + [POLICY_STREAM[kind] for kind in config.policy_kinds]
    streams = substreams(config.master_seed, np.arange(config.trials)[:, None], stream_ids)
    for trial in range(config.trials):
        flags = np.array(assign_vulnerabilities(sim, next(streams)).flags)
        for kind, policy in policies.items():
            rng = next(streams)
            if kind is PolicyKind.RANDOM_K:
                rotation = make_random_k_policy(sim.platforms, config.k, rng)
                chosen = trace(rotation, sim, None, config.intervals)
            elif kind is PolicyKind.UNIFORM:
                chosen = trace(policy, sim, int(rng.integers(sim.count)), config.intervals, rng)
            else:
                # a diversity trace draws nothing, so each start's trace is built once
                start = int(rng.integers(sim.count))
                if start not in diversity_traces:
                    diversity_traces[start] = trace(policy, sim, start, config.intervals)
                chosen = diversity_traces[start]
            vulnerable[kind][trial] = flags[chosen]
    per_policy = {
        kind.value: compute_metrics(vulnerable[kind], config.k) for kind in config.policy_kinds
    }
    return MetricsReport(config=config, per_policy=per_policy)
