"""Metamorphic relations: exact checks of both engines that need no expected value.

A trial's draws come from its own streams, keyed by (seed, trial, stream),
and a walk's draws are a prefix of a longer walk's, so two studies that
differ only in their trial or interval count agree bit for bit on what
they share. A change that leaves a study's draws as they are moves each
trial's result one way only: a longer goal, higher similarity scores, a
slower clock or one more fixed exploit. Each relation states the policies
or exploits it does not hold for, and why.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diversity_lab import ExploitSpec, McConfig, PolicyKind, ScenarioConfig, SimilarityMatrix, run_mc_study
from diversity_lab import run_scenario_study
from diversity_lab.rng import WORD_CELLS
from diversity_lab.scenario import _runs

FIELDS = ("vulnerable_fraction", "time_to_first_compromise", "compromised_fraction")
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def study(sim, kind, seed, trials, intervals, k=3):
    config = McConfig(trials=trials, intervals=intervals, k=k, policy_kinds=(kind,), master_seed=seed)
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


class TestGoalMonotonicity:
    """A longer goal never raises a uniform trial's compromised fraction.

    Uniform's draws do not depend on k, so both goals see the same walk, and
    an interval that ends k' > k vulnerable intervals also ends k of them.
    Random-k is out of scope, since its subset size is k, and so is
    diversity, whose next platform depends on the last k − 1.
    """

    @given(SEEDS, st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_uniform(self, five_platform_sim, seed, k, extra, data):
        trials = data.draw(st.integers(min_value=1, max_value=300), label="trials")
        intervals = data.draw(st.integers(min_value=k + extra, max_value=120), label="intervals")
        shorter = study(five_platform_sim, PolicyKind.UNIFORM, seed, trials, intervals, k)
        longer = study(five_platform_sim, PolicyKind.UNIFORM, seed, trials, intervals, k + extra)
        assert np.array_equal(longer.vulnerable_fraction, shorter.vulnerable_fraction)
        assert (longer.compromised_fraction <= shorter.compromised_fraction).all()

    def test_fixture_goals_three_and_four(self, five_platform_sim):
        at3 = study(five_platform_sim, PolicyKind.UNIFORM, 0, 500, 100, 3).compromised_fraction
        at4 = study(five_platform_sim, PolicyKind.UNIFORM, 0, 500, 100, 4).compromised_fraction
        assert (at4 <= at3).all() and (at4 < at3).any()


def raised(sim, pairs, levels):
    """``sim`` with the score of each platform pair raised to its level, a share of the way from it to 1."""
    scores = sim.scores.copy()
    for (i, j), level in zip(pairs, levels):
        scores[i, j] = scores[j, i] = scores[i, j] + level * (1.0 - scores[i, j])
    return SimilarityMatrix(sim.names, scores)


@pytest.mark.parametrize("kind", [PolicyKind.UNIFORM, PolicyKind.RANDOM_K], ids=lambda kind: kind.value)
class TestScoreMonotonicity:
    """Raising similarity scores never lowers a uniform or random-k trial's vulnerable or compromised fraction.

    A labeling marks platform j when its ``random()`` draw falls below S[seed, j], so a higher score
    keeps every vulnerable platform vulnerable, and neither walk reads the matrix. Diversity is out
    of scope: its walk moves with the matrix, and raising scores lowers some of its trials' fractions.
    """

    @given(SEEDS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_two_raised_scores(self, five_platform_sim, kind, seed, data):
        pair = st.sampled_from(list(itertools.combinations(range(five_platform_sim.count), 2)))
        pairs = data.draw(st.lists(pair, min_size=2, max_size=2, unique=True), label="pairs")
        levels = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), label="levels")
        higher = raised(five_platform_sim, pairs, levels)
        before = study(five_platform_sim, kind, seed, 300, 60)
        after = study(higher, kind, seed, 300, 60)
        assert (after.vulnerable_fraction >= before.vulnerable_fraction).all()
        assert (after.compromised_fraction >= before.compromised_fraction).all()

    def test_freebsd_pairs_raised(self, five_platform_sim, kind):
        # FreeBSD's scores are the fixture's lowest, so raising two of them changes many trials
        freebsd = five_platform_sim.index("FreeBSD")
        higher = raised(five_platform_sim, [(0, freebsd), (1, freebsd)], [0.9, 0.9])
        before = study(five_platform_sim, kind, 0, 3000, 100).compromised_fraction
        after = study(higher, kind, 0, 3000, 100).compromised_fraction
        assert (after >= before).all() and (after > before).any()


def exploits(n):
    """Up to three (platforms, arrival) pairs over platforms 0 to ``n``; an arrival is None or a share of duration."""
    platforms = st.frozensets(st.integers(min_value=0, max_value=n), min_size=1, max_size=3)
    arrival = st.none() | st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    return st.lists(st.tuples(platforms, arrival), min_size=1, max_size=3)


class TestTimeScaling:
    """Scaling the duration, delays, goals and fixed arrivals by a power of two leaves every success fraction.

    A sample's draws do not depend on the unit of time, and every time the
    engine computes is a product, a sum or a difference of the scaled times,
    which a power of two scales exactly; so each longest control run scales
    exactly too. Other factors scale with rounding, so the relation is
    tested for powers of two only.
    """

    @given(SEEDS, st.sampled_from([2.0, 0.5, 1024.0]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_success_fractions(self, seed, scale, data):
        n_values = tuple(data.draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=1, max_size=3, unique=True)))
        lo = data.draw(st.floats(min_value=1.0, max_value=60.0), label="lo")
        hi = lo * data.draw(st.floats(min_value=1.0, max_value=3.0), label="spread")
        duration = lo * data.draw(st.floats(min_value=1.0, max_value=80.0), label="stays")
        specs = data.draw(exploits(max(n_values)), label="exploits")
        base = ScenarioConfig(
            t_values=tuple(np.linspace(0.0, duration, 61).tolist()),
            n_values=n_values,
            duration=duration,
            delay=(lo, hi),
            samples=200,
            exploits=tuple(ExploitSpec(p, None if a is None else a * duration) for p, a in specs),
            master_seed=seed,
        )
        scaled = dataclasses.replace(
            base,
            t_values=tuple(t * scale for t in base.t_values),
            duration=duration * scale,
            delay=(lo * scale, hi * scale),
            exploits=tuple(dataclasses.replace(e, arrival=e.arrival and e.arrival * scale) for e in base.exploits),
        )
        for n in n_values:
            assert np.array_equal(_runs(scaled, n), _runs(base, n) * scale)
        fractions = [point.success_fraction for point in run_scenario_study(base)]
        assert [point.success_fraction for point in run_scenario_study(scaled)] == fractions


class TestFixedExploitMonotonicity:
    """One more exploit with a fixed arrival never shortens a sample's longest control run.

    A fixed arrival takes no draw, so every sample keeps its walk and dwells, and
    a stay's exploit time can only come earlier. A drawn arrival is out of scope:
    it takes a draw, which shifts every later draw of the sample's plan.
    """

    @given(SEEDS, st.sampled_from([1, 2, 3, 5]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_runs_never_shorten(self, seed, n, data):
        specs = data.draw(exploits(n), label="exploits")
        extra = data.draw(st.frozensets(st.integers(min_value=0, max_value=n), min_size=1, max_size=3), label="extra")
        arrival = data.draw(st.floats(min_value=0.0, max_value=900.0), label="arrival")
        base = ScenarioConfig(
            t_values=(10.0,),
            n_values=(n,),
            samples=300,
            exploits=tuple(ExploitSpec(p, None if a is None else a * 900.0) for p, a in specs),
            master_seed=seed,
        )
        more = dataclasses.replace(base, exploits=base.exploits + (ExploitSpec(extra, arrival),))
        assert (_runs(more, n) >= _runs(base, n)).all()

    def test_default_sweep_with_a_fixed_exploit(self):
        base = ScenarioConfig(t_values=(10.0,), n_values=(5,), samples=3000)
        more = dataclasses.replace(base, exploits=base.exploits + (ExploitSpec(frozenset({3}), 0.0),))
        before, after = _runs(base, 5), _runs(more, 5)
        assert (after >= before).all() and (after > before).any()
