"""Interval-based Monte Carlo engine.

Each trial draws a vulnerability labeling from the similarity matrix
(one uniformly chosen seed platform is vulnerable; every other platform
is vulnerable with probability equal to its similarity to the seed),
then evaluates every configured policy on that same labeling so policy
comparisons are paired. Streams derive from (master seed, trial index,
stream id): stream 0 is the labeling and each policy has a fixed stream
id, so trials are order-independent and safe to run concurrently.

A study draws nothing trial by trial. It takes the raw PCG64 words of
each stream from one ``rng.stream_words`` call per chunk of trials, at
most ``rng.WORD_CELLS`` cells, and decodes them as NumPy's
``Generator`` would draw them. ``integers(m)`` takes one 32-bit half
of a word (the low half of a fresh word, then its high half) by
Lemire's method; ``random()`` takes a whole word ``w`` as
``(w >> 11)·2**-53``. Per stream:

- labeling: half 0 is the seed platform, ``integers(N)``; words 1 to
  N-1 are the ``random()`` doubles of the other platforms;
- diversity: half 0 is the start;
- uniform: halves 0 to intervals-1 are the start and then the moves;
  with N = 2 a move is ``integers(1)``, which takes nothing;
- random-k: ``choice(N, k, replace=False)`` is Floyd's algorithm, a
  Lemire draw on ``[0, j]`` for j = N-k to N-1 (none when j = 0), then
  a Fisher–Yates shuffle with a Lemire draw on ``[0, i]`` for i = k-1
  down to 1.

Each policy's trials × intervals vulnerability matrix is built as
arrays: ``scheduler.uniform_walks``, the no-repeat walk the scenario
engine also uses, steps every trial at once, and the diversity trace,
which depends only on (similarity, k, start), comes from one batched
walk over the distinct starts that stops once every start's cycle is
found. The metrics stay arrays up to the CLI's writers. A trial with a
draw NumPy would redraw, or a random-k trial with N > 10,000 (where
NumPy may draw by a tail shuffle), reruns through ``_scalar_trial`` on
its ``substream``s.
The layout reimplements NumPy internals, not documented guarantees; if
a NumPy release changes them,
``tests/test_simulator.py::TestDecodedDrawsEqualGeneratorDraws`` and
``TestStudyMatchesPerStepReference`` fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    MigrationPolicy,
    PlatformSet,
    PolicyKind,
    SimilarityMatrix,
    is_int,
    is_number_list,
    list_of,
    manifest_value,
)
from .rng import WORD_CELLS, _bounded32, _halves, stream_words, substream
from .scheduler import check_pool, diversity_walks, make_random_k_policy, trace, uniform_walks

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
#: Trial × interval cells decoded in one array pass; it bounds the memory of a pass.
DECODE_CELLS = 16384
#: Above this pool size ``Generator.choice`` may draw a random-k subset by a
#: tail shuffle, which the decoding does not follow; such trials run scalar.
FLOYD_POOL_LIMIT = 10_000


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


def assign_vulnerabilities(sim: SimilarityMatrix, rng: np.random.Generator) -> np.ndarray:
    """Draw a bool flag per platform: uniform seed platform, then per-platform Bernoulli by similarity."""
    count = sim.count
    seed_platform = int(rng.integers(count))
    others = np.arange(count) != seed_platform
    flags = np.ones(count, dtype=bool)
    flags[others] = rng.random(count - 1) < sim.scores[seed_platform, others]
    return flags


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
    moves. Each stream's raw words come from one ``stream_words`` call
    per chunk of trials, at most ``WORD_CELLS`` trial × word cells, and
    are decoded as NumPy's ``Generator`` would draw them,
    ``DECODE_CELLS`` trial × interval cells at a time. A trial with a
    draw NumPy would redraw runs again through ``_scalar_trial``.
    """
    policies = {kind: MigrationPolicy(kind, config.k) for kind in config.policy_kinds}
    for policy in policies.values():
        check_pool(policy, sim.count)
    seed, count, intervals, k = config.master_seed, sim.count, config.intervals, config.k
    vulnerable = {kind: np.empty((config.trials, intervals), dtype=bool) for kind in policies}
    trials = np.arange(config.trials)
    rerun = np.zeros(config.trials, dtype=bool)
    if PolicyKind.DIVERSITY in policies:
        # a diversity trace draws nothing after its start: one walk per distinct start serves all
        start_words = stream_words(seed, trials, POLICY_STREAM[PolicyKind.DIVERSITY], words=1)
        starts, rerun = _bounded_draws(start_words, [count])
        distinct, walk_of = np.unique(starts[:, 0], return_inverse=True)
        walks = diversity_walks(sim.distances(), distinct, intervals, k)
    bounds = {
        PolicyKind.UNIFORM: [count] + [count - 1] * (intervals - 1),
        PolicyKind.RANDOM_K: _floyd_bounds(count, k),
    }
    words = {LABELING_STREAM: count}
    for kind in policies:
        if kind in bounds:  # one 32-bit half per bound above 1
            words[POLICY_STREAM[kind]] = (np.count_nonzero(np.array(bounds[kind]) > 1) + 1) // 2
    block = max(1, DECODE_CELLS // max(intervals, count))
    chunk = block * max(1, WORD_CELLS // (block * max(words.values())))
    for start in range(0, config.trials, chunk):
        chunk_rows = trials[start : start + chunk]
        chunk_raw = {stream: stream_words(seed, chunk_rows, stream, words=n) for stream, n in words.items()}
        for first in range(0, len(chunk_rows), block):
            rows = chunk_rows[first : first + block]
            raw = {stream: values[first : first + block] for stream, values in chunk_raw.items()}
            flags, rejected = _labelings(raw[LABELING_STREAM], sim.scores)
            for kind in policies:
                if kind is PolicyKind.DIVERSITY:
                    chosen = walks[walk_of[rows]]
                elif kind is PolicyKind.UNIFORM:
                    draws, redrawn = _bounded_draws(raw[POLICY_STREAM[kind]], bounds[kind])
                    chosen = uniform_walks(draws[:, 0], draws[:, 1:])
                    rejected |= redrawn
                else:
                    subsets, redrawn = _random_k_subsets(raw[POLICY_STREAM[kind]], count, k)
                    chosen = subsets[:, np.arange(intervals) % k]
                    rejected |= redrawn
                vulnerable[kind][rows] = np.take_along_axis(flags, chosen, axis=1)
            rerun[rows] |= rejected
    for trial in np.flatnonzero(rerun).tolist():
        for kind, row in _scalar_trial(config, sim, trial).items():
            vulnerable[kind][trial] = row
    return {kind.value: compute_metrics(vulnerable[kind], config.k) for kind in config.policy_kinds}


def _scalar_trial(config: McConfig, sim: SimilarityMatrix, trial: int) -> dict:
    """One trial's vulnerability row per policy kind, drawn call by call from its ``substream``s."""
    flags = assign_vulnerabilities(sim, substream(config.master_seed, trial, LABELING_STREAM))
    rows = {}
    for kind in config.policy_kinds:
        rng = substream(config.master_seed, trial, POLICY_STREAM[kind])
        if kind is PolicyKind.RANDOM_K:
            rotation = make_random_k_policy(sim.platforms, config.k, rng)
            chosen = trace(rotation, sim, None, config.intervals)
        else:
            policy = MigrationPolicy(kind, config.k)
            chosen = trace(policy, sim, int(rng.integers(sim.count)), config.intervals, rng)
        rows[kind] = flags[chosen]
    return rows


def _bounded_draws(raw: np.ndarray, bounds) -> tuple[np.ndarray, ...]:
    """Each row's ``integers(m)`` for each bound m in turn, and whether NumPy would redraw any.

    A draw takes the next 32-bit half of the row's raw words;
    ``integers(1)`` takes none and gives 0.
    """
    bounds = np.asarray(bounds)
    drawn = bounds > 1
    values, redrawn = _bounded32(_halves(raw)[:, : np.count_nonzero(drawn)], bounds[drawn])
    draws = np.zeros((len(raw), len(bounds)), dtype=np.intp)
    draws[:, drawn] = values
    return draws, redrawn.any(axis=1)


def _labelings(raw: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``assign_vulnerabilities`` of each row's labeling-stream words: (rows, N) flags, and its redraws.

    The seed platform is ``integers(N)`` on the low half of word 0; words
    1 to N-1 are the ``random()`` doubles ``(w >> 11)·2**-53`` of the
    other platforms, in index order.
    """
    count = len(scores)
    seeds, rejected = _bounded32(_halves(raw[:, :1])[:, 0], count)
    seeds = seeds.astype(np.intp)[:, None]
    uniforms = (raw[:, 1:count] >> np.uint64(11)) * (1 / 9007199254740992)
    others = np.arange(count - 1) + (np.arange(count - 1) >= seeds)
    flags = np.ones((len(raw), count), dtype=bool)
    np.put_along_axis(flags, others, uniforms < scores[seeds, others], axis=1)
    return flags, rejected


def _floyd_bounds(count: int, k: int) -> list[int]:
    """The bounds of ``choice(count, k, replace=False)``'s draws: Floyd's, then the shuffle's."""
    return list(range(count - k + 1, count + 1)) + list(range(k, 1, -1))


def _random_k_subsets(raw: np.ndarray, count: int, k: int) -> tuple[np.ndarray, ...]:
    """Each row's ``choice(N, k, replace=False)`` from its random-k stream words, and whether to rerun it.

    Floyd's algorithm draws on ``[0, j]`` for j = N-k to N-1 and adds the
    value to the subset, or j when the value is in it already. A
    Fisher–Yates shuffle follows: for i = k-1 down to 1, slot i swaps with
    a draw on ``[0, i]``. Above ``FLOYD_POOL_LIMIT`` every row is rerun.
    """
    draws, rejected = _bounded_draws(raw, _floyd_bounds(count, k))
    subset = np.empty((len(raw), k), dtype=np.intp)
    for slot, j in enumerate(range(count - k, count)):
        value = draws[:, slot]
        taken = (subset[:, :slot] == value[:, None]).any(axis=1)
        subset[:, slot] = np.where(taken, j, value)
    index = np.arange(len(raw))
    for swap, i in zip(draws[:, k:].T, range(k - 1, 0, -1)):
        picked = subset[index, swap]
        subset[index, swap] = subset[:, i]
        subset[:, i] = picked
    return subset, rejected | (count > FLOYD_POOL_LIMIT)
