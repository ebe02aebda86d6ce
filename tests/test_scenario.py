import math
import tracemalloc
from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diversity_lab import ExploitSpec, ScenarioConfig, run_scenario_study
from diversity_lab import rng, scenario
from diversity_lab.core import MAX_PLATFORMS
from diversity_lab.rng import WORD_CELLS, _bounded32, draw_plan, draws, substream
from oracles import max_control_run


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

        monkeypatch.setattr(rng, "_word_pieces", refuse)
        monkeypatch.setattr(scenario, "draws", refuse)
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
        # even where duration / lo overflows to inf, which the stay plan used to raise OverflowError on
        tiny = self.huge(n_values=(1,), delay=(1e-300, 1e-300))
        assert [point.success_fraction for point in run_scenario_study(tiny)] == [1.0]

    def test_chunks_of_fewer_than_three_samples_are_refused(self):
        # about 40,200 planned stays: the words of only two N = 3 samples would fit in WORD_CELLS,
        # and stepping arrays that narrow through every stay is slower than a scalar loop
        config = ScenarioConfig(t_values=(0.0,), n_values=(1, 3), duration=1e6, delay=(20.0, 30.0), samples=3)
        with pytest.raises(ValueError, match=f"more than {scenario.MAX_STAYS} stays per sample"):
            run_scenario_study(config)

    @pytest.mark.parametrize("n", [2, 3, MAX_PLATFORMS])
    def test_three_samples_fit_one_chunk_at_the_bound(self, n):
        # every sample reaches the trial end within duration / lo + 2 stays; with the two
        # drawn arrivals of the default exploits, 3 samples' words fit in one chunk
        plan = draw_plan([0, 0, n] + [0, n - 1] * (scenario.MAX_STAYS + 2))
        assert 3 * plan.words <= WORD_CELLS


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
        (values,) = draws([plan], 3, n, np.arange(self.SAMPLES))
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
        raw = np.array([[0xABCDEF0100000000], [0], [0]], dtype=np.uint64)[: plan.words]
        key_rows = np.array([[3, 0]], dtype=np.uint64)
        monkeypatch.setattr("diversity_lab.rng._word_pieces", lambda seed, key, counts: iter([(raw, key_rows)]))
        (values,) = draws([plan], 0, 3, [0])
        assert replays == [(0, 3, 0)]
        rng = substream(0, 3, 0)
        assert values[:, 0].tolist() == [rng.integers(3), rng.random(), rng.integers(2)]
        # no power of two rejects, up to 2**32 itself
        halves = np.array([0, 2**32 - 1], dtype=np.uint64)
        for m, top in [(4, 3), (2**32, 2**32 - 1)]:
            value, rejected = _bounded32(halves, m)
            assert value.tolist() == [0, top] and not rejected.any()
        # products stay exact in uint64 past 2**21: 5·(2**21 + 1) leaves 5·2**21 + 5, far above the
        # threshold 2**32 % (2**21 + 1)
        assert _bounded32(np.array([5], dtype=np.uint64), 2**21 + 1)[1].tolist() == [False]

    def test_numpy_redraws_a_zero_draw(self):
        # cache a 32-bit draw of 0: integers(3) rejects it and takes the low half of the next word
        bitgen = np.random.PCG64(11)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, 0
        bitgen.state = state
        low_half = np.random.PCG64(11).random_raw() & np.uint64(0xFFFFFFFF)
        value, rejected = _bounded32(np.array([0, low_half], dtype=np.uint64), 3)
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


def stays_needed(config, n, sample):
    """The stays ``max_control_run`` takes on a sample's stream before its dwells reach the trial end."""
    rng = substream(config.master_seed, n, sample)
    for spec in config.exploits:
        if spec.arrival is None:
            rng.random()
    rng.integers(n)
    now, stays = 0.0, 0
    while now < config.duration:
        now += float(rng.uniform(*config.delay))
        stays += 1
        rng.integers(n - 1)
    return stays


def exploit_table_loop(arrivals, spec_platforms, size):
    """The per-exploit fold that ``scenario._exploit_table`` does by class: each exploit, in order, sets
    its platforms' rows where its arrival, fixed or drawn, is earlier."""
    table = np.full((size, len(arrivals[0])), np.inf)
    for arrival, at in zip(arrivals, spec_platforms):
        table[at] = np.minimum(arrival, table[at])
    return table


class TestExploitTable:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_groups_equal_the_per_exploit_loop(self, data):
        size = data.draw(st.integers(2, 6))
        # a few platform sets, each repeated by several exploits, and overlapping one another
        sets = data.draw(st.lists(st.frozensets(st.integers(0, size - 1), min_size=1), min_size=1, max_size=4))
        exploits = data.draw(st.lists(st.sampled_from(sets), min_size=1, max_size=12))
        samples = data.draw(st.integers(1, 4))
        # fixed arrivals and drawn ones, u·duration, on a coarse grid with ±0.0, so equal arrivals are common
        fixed = data.draw(st.lists(st.none() | st.sampled_from([0.0, -0.0, 0.5, 900.0]), min_size=len(exploits),
                                   max_size=len(exploits)))
        row = st.lists(st.sampled_from([0.0, 0.25, 0.5, 899.0]), min_size=samples, max_size=samples)
        count = fixed.count(None)
        drawn = np.array(data.draw(st.lists(row, min_size=count, max_size=count))).reshape(-1, samples)
        # exploit i's arrival in every sample: its fixed arrival, or its row of drawn
        drawn_row = np.cumsum([arrival is None for arrival in fixed]) - 1
        arrivals = [drawn[drawn_row[i]] if a is None else np.full(samples, a) for i, a in enumerate(fixed)]
        # a platform's class is the exploits that reach it
        reach = [tuple(i for i, at in enumerate(exploits) if p in at) for p in range(size)]
        classes = list(dict.fromkeys(reach))
        pairs = [
            (
                min((fixed[i] for i in exploit_class if fixed[i] is not None), default=math.inf),
                np.array([drawn_row[i] for i in exploit_class if fixed[i] is None], dtype=np.intp),
            )
            for exploit_class in classes
        ]
        table = scenario._exploit_table(drawn, pairs)[[classes.index(key) for key in reach]]
        expected = exploit_table_loop(arrivals, [sorted(at) for at in exploits], size)
        # adding +0.0 turns -0.0 into +0.0: which zero a fold keeps never reaches a run
        assert (table + 0.0).tobytes() == (expected + 0.0).tobytes()


class TestControlRunsStopEarly:
    """``_control_runs`` stops at the first stay by which every sample has reached the trial end."""

    DURATION, DELAY, TARGETED = 100.0, (10.0, 30.0), 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 6), st.integers(1, 5))
    def test_stays_past_every_end_change_nothing(self, seed, samples, n, extra):
        rng = np.random.default_rng(seed)
        lo, hi = self.DELAY
        # enough stays for every sample to reach the end, then `extra` more
        stays = int(self.DURATION / lo) + 1 + extra
        dwells = rng.uniform(lo, hi, (stays, samples))
        moves = rng.integers(n - 1, size=(stays, samples)).astype(float)
        start = rng.integers(n, size=samples).astype(float)
        # exploit times on the edges: at the start, on a stay end, at the trial end, or random
        ends = np.minimum(np.cumsum(dwells, axis=0), self.DURATION)
        picks = rng.integers(4, size=(self.TARGETED, samples))
        times = np.select(
            [picks == 0, picks == 1, picks == 2],
            [0.0, ends[rng.integers(stays, size=(self.TARGETED, samples)), np.arange(samples)], self.DURATION],
            rng.uniform(0, self.DURATION, (self.TARGETED, samples)),
        )
        table = np.vstack([times, np.full((1, samples), np.inf)])
        row = np.array([0, 1, 2])  # platforms 0 and 1 are targeted; the rest clip to the inf row

        def runs(count):
            best, exact = scenario._control_runs(
                start, dwells[:count].copy(), moves[:count], table, row, self.DURATION
            )
            return best.tolist(), exact.tolist()

        assert runs(stays - extra) == runs(stays)
        assert runs(stays)[1] == [True] * samples


class TestStudyEqualsScalarRebuild:
    """``run_scenario_study`` equals a per-sample ``max_control_run`` rebuild bit for bit.

    The goals are every reference run and the next double above it, so the
    success fractions pin the multiset of runs exactly.
    """

    N_VALUES = (1, 2, 3, 5, 8)

    @pytest.fixture
    def rederived(self, monkeypatch):
        """The (N, sample) keys that ``scenario.draws`` derives a second time, in call order."""
        seen, again = set(), []

        def counted(plans, master_seed, n, rows):
            keys = [(n, row) for row in np.asarray(rows).tolist()]
            again.extend(key for key in keys if key in seen)
            seen.update(keys)
            return draws(plans, master_seed, n, rows)

        monkeypatch.setattr(scenario, "draws", counted)
        return again

    @staticmethod
    def count_word_pieces(monkeypatch):
        """The N of each ``rng._word_pieces`` pass, one per ``draws`` call, in call order."""
        calls = []
        word_pieces = rng._word_pieces

        def counted(seed, key, counts):
            calls.append(key[0])
            return word_pieces(seed, key, counts)

        monkeypatch.setattr(rng, "_word_pieces", counted)
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
    def test_default_exploits(self, seed, rederived):
        config = ScenarioConfig(t_values=(0.0,), n_values=self.N_VALUES, samples=120, master_seed=seed)
        self.assert_matches(config)
        assert rederived == []

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=3), min_size=1, max_size=3).flatmap(
            lambda sets: st.lists(
                st.tuples(st.sampled_from(sets), st.none() | st.sampled_from([0.0, 40.0, 300.0])),
                min_size=1, max_size=10,
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_repeated_and_overlapping_exploits(self, exploits, seed):
        # exploits that share a platform set are grouped once per N; overlapping sets, and
        # fixed arrivals among them, still leave each platform its earliest arrival
        specs = tuple(ExploitSpec(platforms, arrival) for platforms, arrival in exploits)
        config = ScenarioConfig(t_values=(0.0,), n_values=(1, 3, 5), samples=6, exploits=specs, master_seed=seed)
        self.assert_matches(config)

    @pytest.mark.parametrize("seed", [2**32, 2**64])
    def test_multi_word_master_seeds(self, seed, rederived):
        config = ScenarioConfig(t_values=(0.0,), n_values=self.N_VALUES, samples=60, master_seed=seed)
        self.assert_matches(config)
        assert rederived == []

    def test_largest_pool_is_decoded_with_no_replay(self, rederived, replays):
        # uint64 products are exact for every bound up to 2**32: the largest pool is decoded
        # with no sample drawn again
        config = ScenarioConfig(t_values=(0.0,), n_values=(*self.N_VALUES, MAX_PLATFORMS), samples=40, master_seed=3)
        self.assert_matches(config)
        assert rederived == [] and replays == []

    def test_one_sample_past_the_derivation_block(self, rederived, monkeypatch):
        # a sample takes the fewest words at N = 2 (two arrivals, the start and a dwell per
        # stay; integers(1) takes nothing) and more at larger N, so one sample more than fit
        # in WORD_CELLS at N = 2 puts the words of every N > 1 in two draws calls,
        # each decoded in many blocks
        per_sample = draw_plan([0, 0, 2] + [0, 1] * scenario._stays(900.0, (20.0, 30.0))).words
        calls = self.count_word_pieces(monkeypatch)
        config = ScenarioConfig(
            t_values=(0.0,), n_values=self.N_VALUES, samples=WORD_CELLS // per_sample + 1,
            master_seed=2**32,
        )
        self.assert_matches(config)
        assert rederived == []
        assert calls == [1] + [n for n in self.N_VALUES[1:] for _ in range(2)]

    def test_samples_past_a_short_plan_are_rerun(self, rederived, monkeypatch):
        # 37 stays cover 740 to 1,110 s: the samples whose dwells sum below 900 s by then
        # fall short of the trial end and are derived again, with every stay they can need
        monkeypatch.setattr(scenario, "_stays", lambda duration, delay: 37)
        calls = self.count_word_pieces(monkeypatch)
        config = ScenarioConfig(t_values=(0.0,), n_values=self.N_VALUES, samples=60, master_seed=1)
        self.assert_matches(config)
        short = [(n, s) for n in self.N_VALUES[1:] for s in range(60) if stays_needed(config, n, s) > 37]
        assert 0 < len(short) < 4 * 60
        assert rederived == short
        # one more draws call per N with a short sample
        short_n = {n for n, _ in short}
        assert calls == [1] + [n for n in self.N_VALUES[1:] for _ in range(2 if n in short_n else 1)]

    @pytest.mark.filterwarnings("error")
    def test_fixed_dwell_overlapping_exploits_and_platforms_beyond_n(self, rederived):
        # platform 1 takes the earlier of the two arrivals; integer times are accepted
        exploits = (ExploitSpec(frozenset({0, 1})), ExploitSpec(frozenset({1, 2, 9}), 450))
        config = ScenarioConfig(
            t_values=(0.0,), n_values=self.N_VALUES, duration=900, delay=(25, 25), samples=100,
            exploits=exploits, master_seed=5,
        )
        self.assert_matches(config)
        assert rederived == []

    def test_float_sums_undershoot_the_dwell_bound(self, rederived):
        # ten dwells of 0.1 sum to 0.9999999999999999 < 1.0, so a sample needs an 11th stay
        assert sum([0.1] * 10) < 1.0
        config = ScenarioConfig(
            t_values=(0.0,), n_values=self.N_VALUES, duration=1.0, delay=(0.1, 0.1), samples=60,
            exploits=(ExploitSpec(frozenset({0, 1})),), master_seed=6,
        )
        self.assert_matches(config)
        assert rederived == []

    def test_all_arrivals_fixed_at_zero(self, rederived):
        exploits = (ExploitSpec(frozenset({0}), 0.0), ExploitSpec(frozenset({1, 2}), 0.0))
        config = ScenarioConfig(
            t_values=(0.0,), n_values=self.N_VALUES, samples=100, exploits=exploits, master_seed=7
        )
        self.assert_matches(config)
        assert rederived == []

    def test_stay_ends_that_overflow_match_scalar_draws(self, rederived):
        # finite dwells near the float limit sum to inf; the scalar loop then clips
        # the stay end to the duration, as the array pass does
        config = ScenarioConfig(
            t_values=(0.0,), n_values=self.N_VALUES, duration=1.5e308, delay=(1e308, 1.7e308),
            samples=50, exploits=(ExploitSpec(frozenset({0, 1})),), master_seed=3,
        )
        self.assert_matches(config)
        assert rederived == []

    def test_platforms_reached_alike_share_a_table_row(self, rederived, monkeypatch):
        # platform 1, which both exploits reach, the other 2,999 platforms of the fixed arrival,
        # and the platforms reached by none take one row each of each sample's exploit table:
        # the 60 samples of each N fit one draws call, where a row per platform would need two
        calls = self.count_word_pieces(monkeypatch)
        exploits = (ExploitSpec(frozenset(range(3000)), 300.0), ExploitSpec(frozenset({1})))
        config = ScenarioConfig(
            t_values=(0.0,), n_values=(3, 3000), samples=60, exploits=exploits, master_seed=9
        )
        assert 60 * 3000 > WORD_CELLS
        self.assert_matches(config)
        assert rederived == [] and calls == [3, 3000]

    def test_fixed_arrival_at_the_trial_end(self, rederived):
        # an exploit that arrives exactly at the trial end never gives control; the
        # slots past the trial end are empty stays at the duration, where its arrival
        # equals both the stay's start and end, and they may neither add to nor split a run
        exploits = (ExploitSpec(frozenset({0}), 900.0), ExploitSpec(frozenset({1, 2})))
        config = ScenarioConfig(
            t_values=(0.0,), n_values=self.N_VALUES, samples=100, exploits=exploits, master_seed=8
        )
        self.assert_matches(config)
        assert rederived == []

    def test_fixed_arrival_on_a_fixed_dwell_stay_boundary(self, rederived):
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
        assert rederived == []

    def test_long_sweep_beyond_eight_thousand_stays(self, rederived):
        # even 30 s dwells need more than 8,192 stays to fill 250,000 s; with about
        # 10,100 stay slots only 8 samples fit in one chunk of words, yet every stay is
        # still decoded and scanned as arrays, with no scalar rerun
        config = ScenarioConfig(
            t_values=(0.0,), n_values=(1, 3), duration=2.5e5, delay=(20.0, 30.0), samples=8,
            master_seed=4,
        )
        self.assert_matches(config)
        assert rederived == []

    def test_three_samples_at_the_stay_bound_take_one_chunk(self, rederived, monkeypatch):
        # one-second dwells need MAX_STAYS stays, and the plan takes one more: the three
        # samples' words fit in WORD_CELLS, so they are derived in one draws call
        calls = self.count_word_pieces(monkeypatch)
        config = ScenarioConfig(
            t_values=(0.0,), n_values=(3,), duration=float(scenario.MAX_STAYS), delay=(1.0, 1.0),
            samples=3, master_seed=4,
        )
        self.assert_matches(config)
        assert rederived == [] and calls == [3]

    def test_sample_wider_than_a_chunk_takes_a_chunk_of_its_own(self, rederived, monkeypatch):
        # a manifest with more than 131,000 drawn arrivals gives a sample more words than
        # WORD_CELLS; a chunk still holds one sample, here with the bound lowered to show it:
        # an N = 1 sample takes 4 cells, and an N = 3 sample about 70
        monkeypatch.setattr(scenario, "WORD_CELLS", 16)
        calls = self.count_word_pieces(monkeypatch)
        config = ScenarioConfig(t_values=(0.0,), n_values=(1, 3), samples=3, master_seed=2)
        self.assert_matches(config)
        assert rederived == [] and calls == [1, 3, 3, 3]

    def test_exploit_lookup_does_not_grow_with_n(self, rederived):
        # the lookup has one row per class of platforms the same exploits reach; a dense
        # (samples x N) table of exploit times alone would take 300 * 10000 * 8 B = 23 MiB
        config = ScenarioConfig(t_values=(10.0,), n_values=(MAX_PLATFORMS,), samples=300, master_seed=3)
        self.assert_matches(replace(config, samples=30))
        assert rederived == []
        tracemalloc.start()
        try:
            run_scenario_study(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "exploits",
        [
            (ExploitSpec(frozenset(range(10_000)), 0.0), ExploitSpec(frozenset({0, 1}))),
            (ExploitSpec(frozenset(range(10_000))), ExploitSpec(frozenset({0, 1}), 0.0)),
        ],
        ids=["table-of-10000-targets", "table-of-10000-drawn-targets"],
    )
    def test_exploit_table_memory_stays_bounded(self, exploits):
        # a table of 10,001 rows for 300 samples would take 23 MiB; the platforms the same
        # exploits reach share a row, so these tables take three rows per sample
        config = ScenarioConfig(
            t_values=(10.0,), n_values=(MAX_PLATFORMS,), samples=300, exploits=exploits, master_seed=1
        )
        tracemalloc.start()
        try:
            run_scenario_study(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        self.assert_matches(replace(config, samples=20))

    def test_exploit_over_every_platform_takes_one_draws_call(self, monkeypatch):
        # a drawn exploit over all 10,000 platforms and a fixed one over {0, 1} give three
        # classes, so the 300 samples fit one draws call; a table row per platform reached by
        # a drawn arrival would split them into chunks of 13, in 24 calls
        calls = self.count_word_pieces(monkeypatch)
        exploits = (ExploitSpec(frozenset(range(MAX_PLATFORMS))), ExploitSpec(frozenset({0, 1}), 0.0))
        config = ScenarioConfig(
            t_values=(0.0,), n_values=(MAX_PLATFORMS,), samples=300, exploits=exploits, master_seed=12
        )
        runs = scenario._runs(config, MAX_PLATFORMS)
        assert calls == [MAX_PLATFORMS]
        for sample in (0, 1, 150, 299):
            rng = substream(config.master_seed, MAX_PLATFORMS, sample)
            assert runs[sample] == max_control_run(MAX_PLATFORMS, config.duration, config.delay, exploits, rng)

    def test_rejected_draws_take_the_scalar_path(self, rederived, monkeypatch, replays):

        def every_draw_rejected(draws, m):
            value, rejected = _bounded32(draws, m)
            return value, np.ones_like(rejected)

        monkeypatch.setattr("diversity_lab.rng._bounded32", every_draw_rejected)
        config = ScenarioConfig(t_values=(0.0,), n_values=self.N_VALUES, samples=40, master_seed=9)
        self.assert_matches(config)
        # every sample with a platform draw (N > 1) was drawn again
        assert rederived == []
        assert replays == [(9, n, sample) for n in self.N_VALUES if n > 1 for sample in range(40)]
