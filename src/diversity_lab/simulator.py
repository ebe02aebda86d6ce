"""Interval-based Monte Carlo engine.

Each trial draws a vulnerability labeling from the similarity matrix
(one uniformly chosen seed platform is vulnerable; every other platform
is vulnerable with probability equal to its similarity to the seed),
then evaluates every configured policy on that same labeling so policy
comparisons are paired. Streams derive from (master seed, trial index,
stream id): stream 0 is the labeling and each policy has a fixed stream
id, so trials are order-independent and safe to run concurrently.

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
    PolicyKind,
    SimilarityMatrix,
    VulnerabilityLabeling,
)
from .rng import as_generator, substream
from .scheduler import check_pool, diversity_schedule, make_random_k_policy

LABELING_STREAM = 0
#: Stable stream id per policy, so a policy's trials are identical whether
#: it runs alone or alongside the others.
POLICY_STREAM = {
    PolicyKind.DIVERSITY: 1,
    PolicyKind.UNIFORM: 2,
    PolicyKind.RANDOM_K: 3,
}

DEFAULT_POLICY_KINDS = (PolicyKind.DIVERSITY, PolicyKind.UNIFORM, PolicyKind.RANDOM_K)


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

    def policy_for(self, kind: PolicyKind) -> MigrationPolicy:
        if kind is PolicyKind.DIVERSITY:
            return MigrationPolicy.diversity(self.k)
        if kind is PolicyKind.UNIFORM:
            return MigrationPolicy.uniform()
        if kind is PolicyKind.RANDOM_K:
            return MigrationPolicy.random_k(self.k)
        raise ValueError(f"{kind} is not a study-level policy")


@dataclass(frozen=True)
class TrialTrace:
    """Per-interval platform choices and vulnerability flags for one trial."""

    chosen: tuple[int, ...]
    vulnerable: tuple[bool, ...]
    labeling: VulnerabilityLabeling

    def __post_init__(self) -> None:
        if len(self.chosen) != len(self.vulnerable):
            raise ValueError("chosen and vulnerable sequences must have equal length")
        for platform, flag in zip(self.chosen, self.vulnerable):
            if self.labeling.flags[platform] != flag:
                raise ValueError("vulnerability flags are inconsistent with the labeling")

    @property
    def intervals(self) -> int:
        return len(self.chosen)


def assign_vulnerabilities(sim: SimilarityMatrix, rng: np.random.Generator) -> VulnerabilityLabeling:
    """Draw a labeling: uniform seed platform, then per-platform Bernoulli by similarity."""
    count = sim.count
    seed_platform = int(rng.integers(count))
    others = np.arange(count) != seed_platform
    flags = np.ones(count, dtype=bool)
    flags[others] = rng.random(count - 1) < sim.scores[seed_platform, others]
    return VulnerabilityLabeling(tuple(flags.tolist()))


def _platform_trace(
    policy: MigrationPolicy,
    sim: SimilarityMatrix,
    intervals: int,
    rng: np.random.Generator,
    diversity_traces: dict[int, np.ndarray],
) -> np.ndarray:
    """One trial's platform per interval under ``policy``, drawn from ``rng``.

    Draws, in order: the random-k subset, or else the start platform
    (fixed periodic policies draw nothing), then for the uniform policy
    one batched draw of ``intervals - 1`` moves. ``diversity_traces``
    caches diversity traces by start platform; the caller owns it and
    must not share it across similarity matrices, k or interval counts.
    """
    count = sim.count
    if policy.kind is PolicyKind.RANDOM_K:
        assert policy.k is not None
        policy = make_random_k_policy(sim.platforms, policy.k, rng)
    if policy.kind is PolicyKind.FIXED_PERIODIC:
        return np.resize(np.array(policy.sequence), intervals)
    start = int(rng.integers(count))
    if policy.kind is PolicyKind.DIVERSITY:
        trace = diversity_traces.get(start)
        if trace is None:
            assert policy.k is not None
            trace = np.array(diversity_schedule(sim, start, intervals, policy.k))
            diversity_traces[start] = trace
        return trace
    # uniform no-repeat walk: a draw over the other count - 1 platforms
    # skips the current one
    chosen = [start]
    for draw in rng.integers(count - 1, size=intervals - 1).tolist():
        chosen.append(draw + (draw >= chosen[-1]))
    return np.array(chosen)


def run_mc_trial(
    config: McConfig,
    policy: MigrationPolicy,
    labeling: VulnerabilityLabeling,
    sim: SimilarityMatrix,
    seed,
) -> TrialTrace:
    """Generate one trial's platform trace under ``policy``; deterministic given ``seed``."""
    if len(labeling) != sim.count:
        raise ValueError("labeling does not cover the platform set")
    check_pool(policy, sim.count)
    chosen = _platform_trace(policy, sim, config.intervals, as_generator(seed), {})
    vulnerable = np.array(labeling.flags)[chosen]
    return TrialTrace(tuple(chosen.tolist()), tuple(vulnerable.tolist()), labeling)


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
        samples = sorted(float(s) for s in samples)
        total = len(samples) if total is None else total
        if total < max(1, len(samples)):
            raise ValueError("total must cover all samples")
        values: list[float] = []
        probs: list[float] = []
        seen = 0
        for value in samples:
            seen += 1
            if values and values[-1] == value:
                probs[-1] = seen / total
            else:
                values.append(value)
                probs.append(seen / total)
        return cls(tuple(values), tuple(probs))

    def auc(self, upper: float = 1.0) -> float:
        """Area under the CDF over [0, upper]; 1 - auc() is the sample mean for values in [0, 1]."""
        area = 0.0
        for i, value in enumerate(self.values):
            end = self.values[i + 1] if i + 1 < len(self.values) else upper
            area += self.probs[i] * (end - value)
        return area


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


def _reduce(vulnerable: np.ndarray, k: int) -> PolicyMetrics:
    """The three study metrics of a trials × intervals vulnerability matrix."""
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


def compute_metrics(traces: list[TrialTrace], k: int) -> PolicyMetrics:
    """Evaluate the three study metrics over ``traces`` with persistence requirement ``k``."""
    if not traces:
        raise ValueError("at least one trace is required")
    intervals = traces[0].intervals
    if any(trace.intervals != intervals for trace in traces):
        raise ValueError("all traces must have the same interval count")
    if k < 1:
        raise ValueError("persistence requirement k must be >= 1")
    return _reduce(np.array([trace.vulnerable for trace in traces], dtype=bool), k)


@dataclass(frozen=True)
class MetricsReport:
    """Study results: metrics per policy name, keyed as in the config order."""

    config: McConfig
    per_policy: dict[str, PolicyMetrics] = field(default_factory=dict)


def run_mc_study(config: McConfig, sim: SimilarityMatrix) -> MetricsReport:
    """Run the full paired-policy study; fully reproducible from the master seed."""
    policies = {kind: config.policy_for(kind) for kind in config.policy_kinds}
    for policy in policies.values():
        check_pool(policy, sim.count)
    shape = (config.trials, config.intervals)
    vulnerable = {kind: np.empty(shape, dtype=bool) for kind in config.policy_kinds}
    diversity_traces: dict[int, np.ndarray] = {}
    for trial in range(config.trials):
        labeling = assign_vulnerabilities(
            sim, substream(config.master_seed, trial, LABELING_STREAM)
        )
        flags = np.array(labeling.flags)
        for kind, policy in policies.items():
            rng = substream(config.master_seed, trial, POLICY_STREAM[kind])
            chosen = _platform_trace(policy, sim, config.intervals, rng, diversity_traces)
            vulnerable[kind][trial] = flags[chosen]
    per_policy = {kind.value: _reduce(vulnerable[kind], config.k) for kind in config.policy_kinds}
    return MetricsReport(config=config, per_policy=per_policy)
