"""The exact-expectation oracle checked against brute-force enumeration."""

import itertools

import numpy as np
import pytest

from diversity_lab import bundled_similarity_path, load_similarity_matrix
from oracles import (
    enumerate_labelings,
    exact_uniform_compromised_fraction,
    exact_uniform_mean_compromised_fraction,
    naive_trace_metrics,
)

THREE = [
    [1.0, 0.3, 0.7],
    [0.3, 1.0, 0.5],
    [0.7, 0.5, 1.0],
]
FOUR = [
    [1.0, 0.6, 0.2, 0.9],
    [0.6, 1.0, 0.4, 0.1],
    [0.2, 0.4, 1.0, 0.5],
    [0.9, 0.1, 0.5, 1.0],
]
FIXTURE = load_similarity_matrix(bundled_similarity_path()).scores


def no_repeat_paths(count: int, intervals: int) -> list[tuple[int, ...]]:
    """Every platform sequence that never stays on a platform for two intervals."""
    return [
        path
        for path in itertools.product(range(count), repeat=intervals)
        if all(a != b for a, b in zip(path, path[1:]))
    ]


def brute_force_compromised_fraction(flags, paths, k: int) -> float:
    """Mean compromised fraction over equally likely no-repeat paths."""
    total = sum(naive_trace_metrics([flags[p] for p in path], k)[2] for path in paths)
    return total / len(paths)


@pytest.mark.parametrize("scores", [THREE, FOUR, FIXTURE], ids=["three", "four", "fixture"])
def test_labeling_enumeration_is_a_distribution(scores):
    count = len(scores)
    outcomes = enumerate_labelings(scores)
    assert len(outcomes) == count * 2 ** (count - 1)
    assert all(prob >= 0.0 for _, prob in outcomes)
    assert sum(prob for _, prob in outcomes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scores", [THREE, FOUR], ids=["three", "four"])
def test_labeling_marginals(scores):
    # P(platform i vulnerable) = (1 + sum of its scores to the others) / N
    scores = np.asarray(scores)
    count = scores.shape[0]
    outcomes = enumerate_labelings(scores)
    for i in range(count):
        marginal = sum(prob for flags, prob in outcomes if flags[i])
        expected = (1.0 + scores[:, i].sum() - scores[i, i]) / count
        assert marginal == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "scores, intervals, k",
    [(THREE, 8, 2), (THREE, 8, 3), (FOUR, 6, 2), (FOUR, 6, 3)],
    ids=["three-k2", "three-k3", "four-k2", "four-k3"],
)
def test_uniform_dynamic_program_matches_path_enumeration(scores, intervals, k):
    count = len(scores)
    paths = no_repeat_paths(count, intervals)
    assert len(paths) == count * (count - 1) ** (intervals - 1)
    brute_by_flags = {}
    mixture = 0.0
    for flags, prob in enumerate_labelings(scores):
        if flags not in brute_by_flags:
            brute = brute_force_compromised_fraction(flags, paths, k)
            exact = exact_uniform_compromised_fraction(flags, intervals, k)
            assert exact == pytest.approx(brute, abs=1e-12), flags
            brute_by_flags[flags] = brute
        mixture += prob * brute_by_flags[flags]
    assert exact_uniform_mean_compromised_fraction(scores, intervals, k) == pytest.approx(
        mixture, abs=1e-12
    )


def test_all_vulnerable_is_compromised_from_interval_k():
    for count, intervals, k in [(2, 10, 2), (5, 100, 3), (4, 7, 7)]:
        value = exact_uniform_compromised_fraction((True,) * count, intervals, k)
        assert value == pytest.approx((intervals - k + 1) / intervals, abs=1e-12)


def test_bundled_fixture_value():
    # the documented study: uniform no-repeat moves, sliding window, 100 intervals, k=3
    value = exact_uniform_mean_compromised_fraction(FIXTURE, 100, 3)
    assert value == pytest.approx(0.18934, abs=1e-5)
