import math
import tracemalloc
from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest

from diversity_lab import (
    ExploitSpec,
    ScenarioConfig,
    max_control_run,
    run_scenario_study,
)
from diversity_lab import scenario
from diversity_lab.rng import WORD_CELLS, _bounded32, draw_plan, draws, stream_words, substream


def study_fraction(config):
    grid = run_scenario_study(config)
    return {(point.n, point.t): point.success_fraction for point in grid}


class TestExploitSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExploitSpec(frozenset())
        with pytest.raises(ValueError):
            ExploitSpec(frozenset({0}), arrival=-1.0)

    @pytest.mark.parametrize("arrival", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_rejected(self, arrival):
        # NaN never marks a platform and is not standard JSON; an infinite one
        # is written to the manifest as "Infinity", which a replay refuses
        with pytest.raises(ValueError, match="finite and non-negative"):
            ExploitSpec(frozenset({0}), arrival=arrival)

    def test_negative_platform_rejected(self):
        # exploited_at[-1] would otherwise mark the last platform
        with pytest.raises(ValueError, match=r"platforms \[-1\] are negative"):
            ExploitSpec(frozenset({-1}), arrival=0.0)
        with pytest.raises(ValueError, match=r"platforms \[-3\] are negative"):
            ExploitSpec(frozenset({0, -3}))


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(t_values=())
        with pytest.raises(ValueError):
            ScenarioConfig(t_values=(10.0,), delay=(30.0, 20.0))
        with pytest.raises(ValueError):
            ScenarioConfig(t_values=(10.0,), duration=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(t_values=(10.0,), samples=0)
        with pytest.raises(ValueError):
            ScenarioConfig(t_values=(10.0,), n_values=(0,))

    @pytest.mark.parametrize(
        "timing",
        [
            {"duration": math.inf},
            {"duration": math.nan},
            {"delay": (20.0, math.inf)},
            {"delay": (math.nan, 30.0)},
            {"delay": (20.0, math.nan)},
            {"delay": (math.inf, math.inf)},
        ],
        ids=["d-inf", "d-nan", "hi-inf", "lo-nan", "hi-nan", "both-inf"],
    )
    def test_non_finite_timing_rejected(self, timing):
        # with random arrivals, Generator.uniform used to raise OverflowError mid-study
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig(t_values=(10.0,), **timing)

    def test_infinite_duration_with_fixed_arrival_rejected(self):
        # "scenario --d inf --exploit 0@0": max_control_run loops while now < duration,
        # so this configuration used to run forever
        with pytest.raises(ValueError, match="trial duration must be finite"):
            ScenarioConfig(
                t_values=(10.0,), duration=math.inf, samples=2,
                exploits=(ExploitSpec(frozenset({0}), arrival=0.0),),
            )


class TestStayBound:
    """A finite duration so long that a sample would step through more than ``MAX_STAYS`` stays."""

    def huge(self, **fields):
        exploits = (ExploitSpec(frozenset({0}), arrival=0.0),)
        return ScenarioConfig(t_values=(10.0,), duration=1e308, samples=2, exploits=exploits, **fields)

    @pytest.mark.parametrize("n_values", [(3,), (1, 2)])
    def test_rejected_before_any_sample(self, n_values, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sample started")

        monkeypatch.setattr("diversity_lab.rng.stream_words", refuse)
        monkeypatch.setattr(scenario, "substream", refuse)
        with pytest.raises(ValueError, match=f"more than {scenario.MAX_STAYS} stays per sample"):
            run_scenario_study(self.huge(n_values=n_values))

    def test_bound_is_inclusive(self):
        config = self.huge(n_values=(2,))
        at_bound = replace(config, duration=scenario.MAX_STAYS * 1.0, delay=(1.0, 1.0), samples=1)
        # one-second stays alternate between the exploited platform and the other
        assert [point.success_fraction for point in run_scenario_study(at_bound)] == [0.0]
        with pytest.raises(ValueError, match="stays per sample"):
            run_scenario_study(replace(at_bound, duration=scenario.MAX_STAYS + 1.0))

    def test_single_platform_takes_one_stay(self):
        # with N = 1 the platform never migrates, so any finite duration is one stay
        assert [point.success_fraction for point in run_scenario_study(self.huge(n_values=(1,)))] == [1.0]


class TestMaxControlRun:
    def test_single_platform_run_is_time_after_arrival(self):
        rng = np.random.default_rng(0)
        exploits = (ExploitSpec(frozenset({0}), arrival=450.0),)
        run = max_control_run(1, 900.0, (20.0, 30.0), exploits, rng)
        assert run == pytest.approx(450.0, abs=1e-12)

    def test_deterministic_dwell_single_vulnerable(self):
        # fixed 10 s dwells alternating between two platforms; only one is
        # exploited, so control runs are exactly one dwell long
        rng = np.random.default_rng(1)
        exploits = (ExploitSpec(frozenset({0}), arrival=0.0),)
        run = max_control_run(2, 900.0, (10.0, 10.0), exploits, rng)
        assert run == pytest.approx(10.0, abs=1e-9)

    def test_control_persists_across_migrations(self):
        rng = np.random.default_rng(2)
        exploits = (ExploitSpec(frozenset({0, 1}), arrival=0.0),)
        run = max_control_run(2, 900.0, (10.0, 10.0), exploits, rng)
        assert run == pytest.approx(900.0, abs=1e-9)

    def test_never_exploited(self):
        rng = np.random.default_rng(3)
        exploits = (ExploitSpec(frozenset({7}), arrival=0.0),)
        assert max_control_run(2, 900.0, (10.0, 10.0), exploits, rng) == 0.0

    def test_late_arrival_truncates_run(self):
        rng = np.random.default_rng(4)
        exploits = (ExploitSpec(frozenset({0}), arrival=899.0),)
        run = max_control_run(1, 900.0, (10.0, 10.0), exploits, rng)
        assert run == pytest.approx(1.0, abs=1e-12)


class TestScenarioStudy:
    def test_single_platform_matches_finite_window_line(self):
        config = ScenarioConfig(
            t_values=(300.0,),
            n_values=(1,),
            samples=4000,
            exploits=(ExploitSpec(frozenset({0})),),
            master_seed=5,
        )
        frac = study_fraction(config)[(1, 300.0)]
        assert abs(frac - (900.0 - 300.0) / 900.0) < 0.03

    def test_goal_beyond_duration_impossible(self):
        config = ScenarioConfig(
            t_values=(1000.0,),
            n_values=(2,),
            samples=300,
            exploits=(ExploitSpec(frozenset({0, 1}), arrival=0.0),),
        )
        assert study_fraction(config)[(2, 1000.0)] == 0.0

    def test_zero_goal_always_succeeds(self):
        config = ScenarioConfig(
            t_values=(0.0,),
            n_values=(2,),
            samples=100,
            exploits=(ExploitSpec(frozenset({0}),),),
        )
        assert study_fraction(config)[(2, 0.0)] == 1.0

    def test_tiny_goal_tracks_exploit_arrival(self):
        # with a trivially small goal, success is approximately "the exploit
        # arrives with at least T of the trial remaining"
        config = ScenarioConfig(
            t_values=(2.0,),
            n_values=(3,),
            samples=3000,
            exploits=(ExploitSpec(frozenset({0})),),
            master_seed=6,
        )
        frac = study_fraction(config)[(3, 2.0)]
        assert abs(frac - (900.0 - 2.0) / 900.0) < 0.05

    def test_asymptotics_two_platforms(self):
        # T just under two mean dwells: with one vulnerable platform of two,
        # alternation caps every control run at a single dwell (< 30 s), so
        # success is impossible; with both vulnerable, control spans the
        # whole trial and success is certain
        base = dict(t_values=(45.0,), n_values=(2,), samples=500, master_seed=7)
        one = ScenarioConfig(exploits=(ExploitSpec(frozenset({0}), arrival=0.0),), **base)
        both = ScenarioConfig(exploits=(ExploitSpec(frozenset({0, 1}), arrival=0.0),), **base)
        assert study_fraction(one)[(2, 45.0)] == 0.0
        assert study_fraction(both)[(2, 45.0)] == 1.0

    def test_downward_step_across_migration_period(self):
        # one vulnerable platform of three: a control run is a single dwell,
        # uniform on [20, 30], so success collapses between T=25 and T=30
        config = ScenarioConfig(
            t_values=(15.0, 20.0, 25.0, 30.0, 35.0),
            n_values=(3,),
            samples=500,
            exploits=(ExploitSpec(frozenset({0}), arrival=0.0),),
            master_seed=8,
        )
        frac = study_fraction(config)
        values = [frac[(3, t)] for t in (15.0, 20.0, 25.0, 30.0, 35.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        step = values[2] - values[3]
        others = [values[0] - values[1], values[1] - values[2], values[3] - values[4]]
        assert step > 0.5
        assert step > max(others) + 0.3

    def test_reproducible(self):
        config = ScenarioConfig(t_values=(25.0,), n_values=(3,), samples=200, master_seed=9)
        assert run_scenario_study(config) == run_scenario_study(config)


class TestDecodedDrawsEqualScalarDraws:
    """The study's draws come from raw PCG64 words; each equals the scalar draw of the same stream."""

    DURATION, DELAY, STAYS, SAMPLES = 900.0, (20.0, 30.0), 12, 25

    @staticmethod
    def plan(n, drawn_arrivals, stays):
        """The scenario study's draw order: the arrivals, the start, then each stay's dwell and move."""
        return draw_plan([0] * drawn_arrivals + [n] + [0, n - 1] * (stays if n > 1 else 0))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("drawn_arrivals", [0, 2], ids=["fixed-arrivals", "free-arrivals"])
    def test_decoded_sequence(self, n, drawn_arrivals, replays):
        plan = self.plan(n, drawn_arrivals, self.STAYS)
        values = draws(plan, 3, n, np.arange(self.SAMPLES))
        assert not replays
        lo, hi = self.DELAY
        for s in range(self.SAMPLES):
            rng = substream(3, n, s)
            arrivals = [rng.uniform(0.0, self.DURATION) for _ in range(drawn_arrivals)]
            assert (values[:drawn_arrivals, s] * self.DURATION).tolist() == arrivals
            assert values[drawn_arrivals, s] == (rng.integers(n) if n > 1 else 0)
            if n == 1:
                assert plan.words == drawn_arrivals
                continue
            dwells, moves = [], []
            for _ in range(self.STAYS):
                dwells.append(rng.uniform(*self.DELAY))
                moves.append(int(rng.integers(n - 1)))
            assert (values[drawn_arrivals + 1 :: 2, s] * (hi - lo) + lo).tolist() == dwells
            assert values[drawn_arrivals + 2 :: 2, s].tolist() == moves
            # the scalar draws used exactly the planned words
            assert rng.bit_generator.random_raw() == substream(3, n, s).bit_generator.random_raw(
                plan.words + 1
            )[-1]

    def test_zero_low_half_is_a_rejection(self, monkeypatch, replays):
        # 2**32 % 3 == 1, so a start draw of 0 is one NumPy redraws: the sample is drawn again
        plan = self.plan(3, 0, 1)
        raw = np.array([[0xABCDEF0100000000, 0, 0]], dtype=np.uint64)[:, : plan.words]
        monkeypatch.setattr("diversity_lab.rng.stream_words", lambda *key, words: raw)
        values = draws(plan, 0, 3, [0])
        assert replays == [(0, 3, 0)]
        rng = substream(0, 3, 0)
        assert values[:, 0].tolist() == [rng.integers(3), rng.random(), rng.integers(2)]
        # no power of two rejects
        value, rejected = _bounded32(np.array([0.0, 4294967295.0]), 4)
        assert value.tolist() == [0.0, 3.0] and not rejected.any()
        # above 2**21 the product may not be exact in a double, so every draw goes to the scalar path
        assert _bounded32(np.array([5.0]), 2**21 + 1)[1].tolist() == [True]

    def test_numpy_redraws_a_zero_draw(self):
        # cache a 32-bit draw of 0: integers(3) rejects it and takes the low half of the next word
        bitgen = np.random.PCG64(11)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, 0
        bitgen.state = state
        low_half = float(np.random.PCG64(11).random_raw() & 0xFFFFFFFF)
        value, rejected = _bounded32(np.array([0.0, low_half]), 3)
        assert rejected.tolist() == [True, False]
        assert int(np.random.Generator(bitgen).integers(3)) == value[1]


def scalar_runs(config):
    """``max_control_run`` on each sample's stream, per N: the study's scalar reference."""
    runs = {}
    for n in config.n_values:
        runs[n] = []
        for s in range(config.samples):
            rng = substream(config.master_seed, n, s)
            runs[n].append(max_control_run(n, config.duration, config.delay, config.exploits, rng))
    return runs


class TestStudyEqualsScalarRebuild:
    """``run_scenario_study`` equals a per-sample ``max_control_run`` rebuild bit for bit.

    The goals are every reference run and the next double above it, so the
    success fractions pin the multiset of runs exactly.
    """

    N_VALUES = (1, 2, 3, 5, 8)

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []

        def counted(n, *args):
            calls.append(n)
            return max_control_run(n, *args)

        monkeypatch.setattr(scenario, "max_control_run", counted)
        return calls

    def assert_matches(self, config):
        runs = scalar_runs(config)
        pooled = np.array([run for values in runs.values() for run in values])
        goals = np.unique(np.concatenate([pooled, np.nextafter(pooled, np.inf)]))
        config = replace(config, t_values=tuple(goals.tolist()))
        expected = []
        for n in config.n_values:
            ordered = sorted(runs[n])
            for t in config.t_values:
                hits = len(ordered) - bisect_left(ordered, t)
                expected.append(scenario.GridPoint(n, t, hits / config.samples, config.samples))
        assert run_scenario_study(config) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_default_exploits(self, seed, fallbacks):
        config = ScenarioConfig(t_values=(0.0,), n_values=self.N_VALUES, samples=120, master_seed=seed)
        self.assert_matches(config)
        assert fallbacks == []

    @pytest.mark.parametrize("seed", [2**32, 2**64])
    def test_multi_word_master_seeds(self, seed, fallbacks):
        config = ScenarioConfig(t_values=(0.0,), n_values=self.N_VALUES, samples=60, master_seed=seed)
        self.assert_matches(config)
        assert fallbacks == []

    def test_pool_past_exact_products_reruns_every_sample(self, fallbacks, replays):
        # above 2**21 platforms a decoded platform draw may be inexact, so every sample is drawn again
        n = 2**21 + 1
        config = ScenarioConfig(t_values=(0.0,), n_values=(*self.N_VALUES, n), samples=40, master_seed=3)
        self.assert_matches(config)
        assert fallbacks == []
        assert replays == [(3, n, sample) for sample in range(40)]

    def test_one_sample_past_the_derivation_block(self, fallbacks, monkeypatch):
        # a sample takes 50 words at N = 2 and more at larger N, so for every N > 1 the
        # words come from two stream_words calls, each decoded in many blocks
        calls = []

        def counted(seed, n, rows, words):
            calls.append(n)
            return stream_words(seed, n, rows, words=words)

        monkeypatch.setattr("diversity_lab.rng.stream_words", counted)
        config = ScenarioConfig(
            t_values=(0.0,), n_values=self.N_VALUES, samples=WORD_CELLS // 50 + 1,
            master_seed=2**32,
        )
        self.assert_matches(config)
        assert fallbacks == []
        assert calls == [1] + [n for n in self.N_VALUES[1:] for _ in range(2)]

    @pytest.mark.filterwarnings("error")
    def test_fixed_dwell_overlapping_exploits_and_platforms_beyond_n(self, fallbacks):
        # platform 1 takes the earlier of the two arrivals; integer times are accepted
        exploits = (ExploitSpec(frozenset({0, 1})), ExploitSpec(frozenset({1, 2, 9}), 450))
        config = ScenarioConfig(
            t_values=(0.0,), n_values=self.N_VALUES, duration=900, delay=(25, 25), samples=100,
            exploits=exploits, master_seed=5,
        )
        self.assert_matches(config)
        assert fallbacks == []

    def test_float_sums_undershoot_the_dwell_bound(self, fallbacks):
        # ten dwells of 0.1 sum to 0.9999999999999999 < 1.0, so a sample needs an 11th stay
        assert sum([0.1] * 10) < 1.0
        config = ScenarioConfig(
            t_values=(0.0,), n_values=self.N_VALUES, duration=1.0, delay=(0.1, 0.1), samples=60,
            exploits=(ExploitSpec(frozenset({0, 1})),), master_seed=6,
        )
        self.assert_matches(config)
        assert fallbacks == []

    def test_all_arrivals_fixed_at_zero(self, fallbacks):
        exploits = (ExploitSpec(frozenset({0}), 0.0), ExploitSpec(frozenset({1, 2}), 0.0))
        config = ScenarioConfig(
            t_values=(0.0,), n_values=self.N_VALUES, samples=100, exploits=exploits, master_seed=7
        )
        self.assert_matches(config)
        assert fallbacks == []

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_stay_ends_that_overflow_match_scalar_draws(self, fallbacks):
        # finite dwells near the float limit sum to inf; the scalar loop then clips
        # the stay end to the duration, as the array pass does
        config = ScenarioConfig(
            t_values=(0.0,), n_values=self.N_VALUES, duration=1.5e308, delay=(1e308, 1.7e308),
            samples=50, exploits=(ExploitSpec(frozenset({0, 1})),), master_seed=3,
        )
        self.assert_matches(config)
        assert fallbacks == []

    def test_fixed_arrival_at_the_trial_end(self, fallbacks):
        # an exploit that arrives exactly at the trial end never gives control; the
        # slots past the trial end are empty stays at the duration, where its arrival
        # equals both the stay's start and end, and they may neither add to nor split a run
        exploits = (ExploitSpec(frozenset({0}), 900.0), ExploitSpec(frozenset({1, 2})))
        config = ScenarioConfig(
            t_values=(0.0,), n_values=self.N_VALUES, samples=100, exploits=exploits, master_seed=8
        )
        self.assert_matches(config)
        assert fallbacks == []

    def test_fixed_arrival_on_a_fixed_dwell_stay_boundary(self, fallbacks):
        # 25 s dwells alternate between two platforms, so 50 s is a stay boundary: a
        # sample that starts on platform 1 holds platform 0 from 25 s, and platform 1's
        # segment then starts exactly where that one ended and continues its run
        exploits = (ExploitSpec(frozenset({0}), 0.0), ExploitSpec(frozenset({1}), 50.0))
        config = ScenarioConfig(
            t_values=(0.0,), n_values=(2,), delay=(25.0, 25.0), samples=40, exploits=exploits,
            master_seed=2,
        )
        runs = scalar_runs(config)[2]
        assert 875.0 in runs and 850.0 in runs  # both starting platforms occur
        self.assert_matches(config)
        assert fallbacks == []

    def test_long_sweep_beyond_eight_thousand_stays(self, fallbacks):
        # even 30 s dwells need more than 8,192 stays to fill 250,000 s; with about
        # 12,500 stay slots only 6 samples fit in one chunk of words, yet every stay is
        # still decoded and scanned as arrays, with no scalar rerun
        config = ScenarioConfig(
            t_values=(0.0,), n_values=(1, 3), duration=2.5e5, delay=(20.0, 30.0), samples=8,
            master_seed=4,
        )
        self.assert_matches(config)
        assert fallbacks == []

    def test_chunks_of_fewer_than_three_samples_take_the_scalar_path(self, fallbacks):
        # 50,002 stay slots: the words of only one N = 3 sample fit in WORD_CELLS, and
        # stepping arrays that narrow through every stay is slower than the scalar loop
        config = ScenarioConfig(
            t_values=(0.0,), n_values=(1, 3), duration=1e6, delay=(20.0, 30.0), samples=3,
            master_seed=4,
        )
        self.assert_matches(config)
        assert fallbacks == [3, 3, 3]

    def test_exploit_lookup_does_not_grow_with_n(self, fallbacks):
        # the lookup has one row per targeted platform and one for the rest; a dense
        # (samples x N) table of exploit times alone would take 300 * 20000 * 8 B = 46 MiB
        config = ScenarioConfig(t_values=(10.0,), n_values=(20000,), samples=300, master_seed=3)
        tracemalloc.start()
        try:
            run_scenario_study(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        self.assert_matches(replace(config, samples=30))
        assert fallbacks == []

    @pytest.mark.parametrize("last", [WORD_CELLS - 1, WORD_CELLS], ids=["below", "at"])
    def test_targeted_platforms_from_word_cells_take_the_scalar_path(self, fallbacks, last):
        # the row map reaches one past the largest targeted platform, so from WORD_CELLS on
        # every sample takes max_control_run
        exploits = (ExploitSpec(frozenset({last}), 0.0), ExploitSpec(frozenset({0, 1})))
        config = ScenarioConfig(
            t_values=(0.0,), n_values=(WORD_CELLS + 1,), samples=20, exploits=exploits, master_seed=4
        )
        self.assert_matches(config)
        assert fallbacks == ([] if last < WORD_CELLS else [WORD_CELLS + 1] * 20)

    @pytest.mark.parametrize(
        "n, exploits",
        [
            (40_000_000, (ExploitSpec(frozenset({39_999_999}), 0.0), ExploitSpec(frozenset({0, 1})))),
            (10_000, (ExploitSpec(frozenset(range(10_000)), 0.0), ExploitSpec(frozenset({0, 1})))),
        ],
        ids=["row-map-of-40M-platforms", "table-of-10000-targets"],
    )
    def test_exploit_table_memory_stays_bounded(self, n, exploits):
        # a row map to platform 39,999,999 would take 305 MiB, and a table of 10,001 rows
        # for 300 samples 23 MiB; chunks of WORD_CELLS cells per sample keep both small
        config = ScenarioConfig(t_values=(10.0,), n_values=(n,), samples=300, exploits=exploits, master_seed=1)
        tracemalloc.start()
        try:
            run_scenario_study(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        self.assert_matches(replace(config, samples=20))

    def test_rejected_draws_take_the_scalar_path(self, fallbacks, monkeypatch, replays):

        def every_draw_rejected(draws, m):
            value, rejected = _bounded32(draws, m)
            return value, np.ones_like(rejected)

        monkeypatch.setattr("diversity_lab.rng._bounded32", every_draw_rejected)
        config = ScenarioConfig(t_values=(0.0,), n_values=self.N_VALUES, samples=40, master_seed=9)
        self.assert_matches(config)
        # every sample with a platform draw (N > 1) was drawn again
        assert fallbacks == []
        assert replays == [(9, n, sample) for n in self.N_VALUES if n > 1 for sample in range(40)]
