"""Metamorphic relations: exact checks of the Monte Carlo study that need no expected value.

A trial's draws come from its own streams, keyed by (seed, trial, stream),
and a walk's draws are a prefix of a longer walk's, so two studies that
differ only in their trial or interval count agree bit for bit on what
they share.
"""

import numpy as np
import pytest

from diversity_lab import McConfig, PolicyKind, run_mc_study
from diversity_lab.rng import WORD_CELLS

FIELDS = ("vulnerable_fraction", "time_to_first_compromise", "compromised_fraction")


def study(sim, kind, seed, trials, intervals):
    config = McConfig(trials=trials, intervals=intervals, policy_kinds=(kind,), master_seed=seed)
    return run_mc_study(config, sim)[kind.value]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("kind", list(PolicyKind), ids=lambda kind: kind.value)
class TestPrefixes:
    @pytest.mark.parametrize("short, long, chunks", [(300, 700, 1), (700, 1400, 2)], ids=["one-chunk", "two-chunks"])
    def test_trial_prefix(self, five_platform_sim, kind, seed, short, long, chunks):
        # the longer study draws its trials in ``chunks`` rng.draws calls, the shorter study in one
        assert short <= WORD_CELLS // 100 and -(-long // (WORD_CELLS // 100)) == chunks
        first = study(five_platform_sim, kind, seed, short, 100)
        whole = study(five_platform_sim, kind, seed, long, 100)
        for field in FIELDS:
            assert np.array_equal(getattr(first, field), getattr(whole, field)[:short]), field

    def test_interval_prefix(self, five_platform_sim, kind, seed):
        # a first compromise within the first 40 intervals is the same; a later one is none in 40
        shorter = study(five_platform_sim, kind, seed, 500, 40).time_to_first_compromise
        longer = study(five_platform_sim, kind, seed, 500, 100).time_to_first_compromise
        assert np.array_equal(shorter, np.where(longer <= 40, longer, 0))
        # diversity and random-k walks enter their cycle early, so only uniform compromises late
        assert longer.any() and (longer.max() > 40) == (kind is PolicyKind.UNIFORM)
