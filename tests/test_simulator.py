import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diversity_lab import rng, scheduler, simulator
from diversity_lab.rng import (
    WORD_BLOCK,
    WORD_CELLS,
    _bounded32,
    _floyd_bounds,
    _random_k_subsets,
    draw_plan,
    draws,
    substream,
)
from diversity_lab.scheduler import diversity_walks
from diversity_lab.simulator import DEFAULT_POLICY_KINDS
from diversity_lab import (
    EmpiricalCdf,
    McConfig,
    PolicyKind,
    compute_metrics,
    run_mc_study,
    walk_bounds,
    walks,
)
from conftest import make_similarity
from oracles import naive_trace_metrics, reference_labeling, reference_study


class TestAssignVulnerabilities:
    """The labeling distribution, on the scalar labeling that ``test_labelings`` ties to the study's."""

    def test_identity_matrix_single_vulnerable(self, identity_sim):
        rng = np.random.default_rng(0)
        for _ in range(200):
            flags = reference_labeling(identity_sim.scores, rng)
            assert flags.dtype == bool and flags.shape == (5,)
            assert np.count_nonzero(flags) == 1

    def test_clone_matrix_all_vulnerable(self, clone_sim):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert reference_labeling(clone_sim.scores, rng).all()

    def test_conditional_frequency_given_seed_platform(self, five_platform_sim):
        # P(FreeBSD vulnerable | seed platform = CentOS) should track the
        # CentOS/FreeBSD score; the seed is recovered by replaying each
        # generator's first draw
        freebsd = five_platform_sim.index("FreeBSD")
        centos_seeded = 0
        hits = 0
        for i in range(100_000):
            if int(np.random.default_rng(i).integers(5)) != 0:
                continue
            centos_seeded += 1
            hits += reference_labeling(five_platform_sim.scores, np.random.default_rng(i))[freebsd]
        assert centos_seeded > 15_000
        assert abs(hits / centos_seeded - 0.0368) < 0.005

    def test_marginal_frequency(self, five_platform_sim):
        # P(FreeBSD vulnerable) = (1 + sum of its scores to the others) / 5
        rng = np.random.default_rng(31415)
        trials = 50_000
        freebsd = five_platform_sim.index("FreeBSD")
        hits = sum(
            reference_labeling(five_platform_sim.scores, rng)[freebsd]
            for _ in range(trials)
        )
        sims = [five_platform_sim.scores[i, freebsd] for i in range(4)]
        expected = (1.0 + sum(sims)) / 5.0
        assert abs(hits / trials - expected) < 0.006


def trial_trace(kind, sim, intervals, seed):
    """One trial's platforms under a ``kind`` policy with k = 3, drawn on ``substream(seed)`` as the study draws them."""
    (values,) = draws([draw_plan(walk_bounds(kind, sim.count, 3, intervals, start=True))], seed)
    return walks(kind, sim.distances(), 3, intervals, values)[0][0]


class TestRunMcTrial:
    """One trial's trace and vulnerability row, as ``run_mc_study`` builds them."""

    def test_deterministic_given_seed(self, five_platform_sim):
        config = McConfig(trials=1, intervals=50)
        first = trial_trace(PolicyKind.UNIFORM, five_platform_sim, config.intervals, 42)
        second = trial_trace(PolicyKind.UNIFORM, five_platform_sim, config.intervals, 42)
        assert first.tolist() == second.tolist()

    def test_uniform_all_vulnerable(self, five_platform_sim):
        config = McConfig(trials=1, intervals=30, k=3)
        flags = np.ones(5, dtype=bool)
        chosen = trial_trace(PolicyKind.UNIFORM, five_platform_sim, config.intervals, 7)
        vulnerable = flags[chosen]
        assert all(vulnerable)
        metrics = compute_metrics([vulnerable], 3)
        assert metrics.time_to_first_compromise.tolist() == [3]

    def test_random_k_realization_rotates(self, five_platform_sim):
        config = McConfig(trials=1, intervals=12)
        chosen = trial_trace(PolicyKind.RANDOM_K, five_platform_sim, config.intervals, 5)
        chosen = tuple(chosen.tolist())
        assert len(set(chosen)) == 3
        assert chosen[:3] * 4 == chosen


class TestComputeMetrics:
    def test_hand_counted_example(self):
        flags = [True, True, True] + [False] * 97
        metrics = compute_metrics([flags], 3)
        assert metrics.vulnerable_fraction.tolist() == [0.03]
        assert metrics.time_to_first_compromise.tolist() == [3]
        assert metrics.compromised_fraction.tolist() == [0.01]

    def test_never_vulnerable(self):
        metrics = compute_metrics([[False] * 50], 3)
        assert metrics.time_to_first_compromise.tolist() == [0]
        assert metrics.compromised_fraction.tolist() == [0.0]
        assert metrics.compromise_incidence == 0.0
        assert metrics.mean_time_to_first_compromise is None

    def test_zero_marks_never_compromised(self):
        # trial 0 is compromised at interval 2, trial 1 never, trial 2 at interval 4
        metrics = compute_metrics(
            [[True, True, False, False], [True, False, True, False], [False, False, True, True]], 2
        )
        assert metrics.time_to_first_compromise.tolist() == [2, 0, 4]
        assert metrics.mean_time_to_first_compromise == 3.0
        assert metrics.compromise_incidence == 2 / 3
        cdf = metrics.cdf_time_to_first_compromise()
        assert cdf.values == (2.0, 4.0)
        assert cdf.probs == (1 / 3, 2 / 3)

    def test_all_zero_has_no_mean_time(self):
        metrics = compute_metrics(np.zeros((4, 6), dtype=bool), 3)
        assert not metrics.time_to_first_compromise.any()
        assert metrics.mean_time_to_first_compromise is None
        assert metrics.cdf_time_to_first_compromise().values == ()

    @given(
        st.lists(st.lists(st.booleans(), min_size=12, max_size=12), min_size=1, max_size=20),
        st.integers(2, 5),
    )
    def test_incidence_counts_nonzero_first_compromises(self, rows, k):
        metrics = compute_metrics(rows, k)
        first = metrics.time_to_first_compromise
        assert metrics.compromise_incidence == np.count_nonzero(first) / len(rows)
        assert metrics.trials == len(rows)

    def test_arrays_are_read_only(self):
        metrics = compute_metrics([[True, True, False]], 2)
        for array in (
            metrics.vulnerable_fraction,
            metrics.time_to_first_compromise,
            metrics.compromised_fraction,
        ):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @given(st.lists(st.booleans(), min_size=5, max_size=120), st.integers(2, 5))
    def test_against_naive_recount(self, flags, k):
        metrics = compute_metrics([flags], k)
        vf, first, cf = naive_trace_metrics(flags, k)
        assert metrics.vulnerable_fraction[0] == pytest.approx(vf, abs=1e-12)
        assert metrics.time_to_first_compromise[0] == (0 if first is None else first)
        assert metrics.compromised_fraction[0] == pytest.approx(cf, abs=1e-12)

    @given(st.lists(st.booleans(), min_size=5, max_size=120), st.integers(2, 5))
    def test_invariants(self, flags, k):
        metrics = compute_metrics([flags], k)
        assert metrics.compromised_fraction[0] <= metrics.vulnerable_fraction[0]
        first = metrics.time_to_first_compromise[0]
        assert first == 0 or first >= k

    @given(
        st.lists(st.lists(st.booleans(), min_size=9, max_size=9), min_size=1, max_size=20),
        st.integers(1, 5),
    )
    def test_memory_order_does_not_change_metrics(self, rows, k):
        # the study hands over Fortran-ordered (step-major) matrices
        flags = np.array(rows, dtype=bool)
        c_order, f_order = compute_metrics(flags, k), compute_metrics(np.asfortranarray(flags), k)
        for field in ("vulnerable_fraction", "time_to_first_compromise", "compromised_fraction"):
            left, right = getattr(c_order, field), getattr(f_order, field)
            assert left.dtype == right.dtype and left.tolist() == right.tolist()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], 2)


class TestEmpiricalCdf:
    def test_nondecreasing_and_bounded(self):
        cdf = EmpiricalCdf.from_samples([0.3, 0.1, 0.3, 0.9])
        assert cdf.values == (0.1, 0.3, 0.9)
        assert cdf.probs == (0.25, 0.75, 1.0)

    def test_plateau_below_one(self):
        cdf = EmpiricalCdf.from_samples([3, 5], total=4)
        assert cdf.probs == (0.25, 0.5)

    def test_one_minus_auc_equals_mean(self):
        rng = np.random.default_rng(8)
        samples = rng.random(500)
        cdf = EmpiricalCdf.from_samples(samples)
        auc = np.dot(cdf.probs, np.diff(cdf.values, append=1.0))
        assert 1.0 - auc == pytest.approx(samples.mean(), abs=1e-12)

    def test_total_must_cover_samples(self):
        with pytest.raises(ValueError):
            EmpiricalCdf.from_samples([1.0, 2.0], total=1)


class TestRunMcStudy:
    def test_identity_matrix_never_compromised(self, identity_sim):
        config = McConfig(trials=60, intervals=40, master_seed=3)
        for metrics in run_mc_study(config, identity_sim).values():
            assert metrics.compromise_incidence == 0.0
            assert set(metrics.compromised_fraction) == {0.0}

    def test_reproducible_from_master_seed(self, five_platform_sim):
        config = McConfig(trials=40, intervals=30, master_seed=11)
        first = run_mc_study(config, five_platform_sim)
        second = run_mc_study(config, five_platform_sim)
        assert list(first) == list(second)
        for name, metrics in first.items():
            assert metrics.k == second[name].k
            assert metrics.intervals == second[name].intervals
            for field in ("vulnerable_fraction", "time_to_first_compromise", "compromised_fraction"):
                np.testing.assert_array_equal(getattr(metrics, field), getattr(second[name], field))

    def test_policy_subset(self, five_platform_sim):
        config = McConfig(trials=5, intervals=20, policy_kinds=(PolicyKind.DIVERSITY,))
        assert list(run_mc_study(config, five_platform_sim)) == ["diversity"]

    def test_memory_bounded_by_one_chunk(self, five_platform_sim):
        # 80 trials of WORD_CELLS // 4 intervals are 20 chunks of 4 trials; each chunk's matrices
        # are reduced as they are built, so the peak is one chunk's, not the 7.5 MiB that the
        # three policies' 80 × 32,768 matrices would hold
        config = McConfig(trials=80, intervals=WORD_CELLS // 4, master_seed=4)
        run_mc_study(McConfig(trials=1, intervals=config.intervals), five_platform_sim)  # cached constants
        tracemalloc.start()
        try:
            study = run_mc_study(config, five_platform_sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [metrics.trials for metrics in study.values()] == [80] * 3
        assert peak < 64 * WORD_CELLS

    def test_study_invariants(self, default_study):
        for metrics in default_study.values():
            assert (metrics.compromised_fraction <= metrics.vulnerable_fraction).all()
            first = metrics.time_to_first_compromise
            assert ((first == 0) | (first >= metrics.k)).all()

    def test_mean_vulnerability_equals_one_minus_auc(self, default_study):
        for metrics in default_study.values():
            cdf = metrics.cdf_vulnerable_fraction()
            auc = np.dot(cdf.probs, np.diff(cdf.values, append=1.0))
            assert 1.0 - auc == pytest.approx(metrics.mean_vulnerable_fraction, abs=1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)
        # the largest trial index stays a one-word key part
        assert McConfig(trials=simulator.MAX_TRIALS).trials == simulator.MAX_TRIALS < 2**32
        with pytest.raises(ValueError, match="trials must be at most 100000000"):
            McConfig(trials=simulator.MAX_TRIALS + 1)
        with pytest.raises(ValueError):
            McConfig(intervals=2, k=3)
        with pytest.raises(ValueError):
            McConfig(k=1)
        with pytest.raises(ValueError):
            McConfig(policy_kinds=())
        with pytest.raises(ValueError):
            McConfig(master_seed=-1)


class TestDiversityUnderLabelings:
    def test_invulnerable_triple_member_blocks_compromise(self, five_platform_sim):
        """If the eventual rotation contains an invulnerable platform that also
        appears in every startup window, diversity never gets compromised."""
        # FreeBSD is in the rotation triple and in every 3-window of every
        # startup trace, so marking it invulnerable blocks all compromises.
        freebsd = five_platform_sim.index("FreeBSD")
        config = McConfig(trials=1, intervals=60)
        flags = np.arange(5) != freebsd
        for start_seed in range(30):
            chosen = trial_trace(PolicyKind.DIVERSITY, five_platform_sim, config.intervals, start_seed)
            metrics = compute_metrics([flags[chosen]], 3)
            assert metrics.compromised_fraction.tolist() == [0.0]

    def test_compromises_only_during_startup(self, five_platform_sim):
        """Once the periodic rotation is reached, a diversity trial is either
        compromised within the first few intervals or never."""
        rng = np.random.default_rng(17)
        config = McConfig(trials=1, intervals=100)
        for _ in range(200):
            flags = reference_labeling(five_platform_sim.scores, rng)
            seed = int(rng.integers(1 << 32))
            chosen = trial_trace(PolicyKind.DIVERSITY, five_platform_sim, config.intervals, seed)
            first = compute_metrics([flags[chosen]], 3).time_to_first_compromise[0]
            assert first <= 6


def generated_similarity(count: int, seed: int):
    rng = np.random.default_rng(seed)
    upper = np.triu(np.round(rng.random((count, count)), 3), k=1)
    scores = upper + upper.T
    np.fill_diagonal(scores, 1.0)
    return make_similarity(scores)


class TestStudyMatchesPerStepReference:
    """The batched study equals the per-step walk, field by field and bit for bit."""

    @staticmethod
    def assert_matches(config, sim):
        study = run_mc_study(config, sim)
        reference = reference_study(config, sim)
        assert list(study) == list(reference)
        for name, metrics in study.items():
            vulnerable, first, compromised = reference[name]
            assert metrics.k == config.k
            assert metrics.intervals == config.intervals
            # the oracle's None (never compromised) is the study's 0
            first = [0 if at is None else at for at in first]
            np.testing.assert_array_equal(metrics.vulnerable_fraction, vulnerable, strict=True)
            np.testing.assert_array_equal(
                metrics.time_to_first_compromise, np.array(first, dtype=np.intp), strict=True
            )
            np.testing.assert_array_equal(metrics.compromised_fraction, compromised, strict=True)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_fixture(self, five_platform_sim, seed, k):
        config = McConfig(trials=30, intervals=25, k=k, master_seed=seed)
        self.assert_matches(config, five_platform_sim)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_intervals_equal_k(self, five_platform_sim, k):
        config = McConfig(trials=40, intervals=k, k=k, master_seed=7)
        self.assert_matches(config, five_platform_sim)

    @pytest.mark.parametrize("k", [3, 4])
    def test_generated_wide_matrix(self, k):
        # k=3 scores by Heron area and k=4 by summed distance over 13 platforms
        config = McConfig(trials=40, intervals=30, k=k, master_seed=k)
        self.assert_matches(config, generated_similarity(13, seed=k))

    def test_policy_subset_in_non_default_order(self, five_platform_sim):
        kinds = (PolicyKind.RANDOM_K, PolicyKind.UNIFORM)
        config = McConfig(trials=30, intervals=20, policy_kinds=kinds, master_seed=2)
        self.assert_matches(config, five_platform_sim)

    @pytest.mark.parametrize("seed", [2**32, 2**64])
    def test_multi_word_master_seeds(self, five_platform_sim, seed):
        config = McConfig(trials=20, intervals=12, master_seed=seed)
        self.assert_matches(config, five_platform_sim)

    @pytest.mark.parametrize(
        "kinds",
        [DEFAULT_POLICY_KINDS, (PolicyKind.UNIFORM, PolicyKind.RANDOM_K)],
        ids=["four-streams", "three-streams"],
    )
    def test_one_trial_past_the_derivation_block(self, five_platform_sim, kinds):
        # each stream's run of key rows is one row past WORD_BLOCK, so every run steps one
        # lane at a time, and all the runs are seeded in one pass
        config = McConfig(
            trials=WORD_BLOCK + 1, intervals=6, policy_kinds=kinds, master_seed=2**64
        )
        self.assert_matches(config, five_platform_sim)


class TestOneDerivationPerStream:
    """A chunk of trials derives every stream (the labeling, the diversity starts, the uniform
    moves and the random-k subsets) in one ``rng._word_pieces`` pass, which seeds all its key
    rows in one ``rng._generate_state`` call, whatever the streams' runs."""

    @pytest.fixture
    def derived(self, monkeypatch):
        # per pass: the stream ids of its key rows, in row order, each once, and the rows of each seeding
        calls = []
        word_pieces, generate_state = rng._word_pieces, rng._generate_state

        def pieces(seed, key, counts):
            calls.append((tuple(dict.fromkeys(np.ravel(key[1]).tolist())), []))
            return word_pieces(seed, key, counts)

        def seeded(entropy):
            state = generate_state(entropy)
            calls[-1][1].append(math.prod(state.shape[1:]))
            return state

        monkeypatch.setattr(rng, "_word_pieces", pieces)
        monkeypatch.setattr(rng, "_generate_state", seeded)
        return calls

    @pytest.mark.parametrize(
        "kinds, calls",
        [
            (DEFAULT_POLICY_KINDS, [((0, 1, 2, 3), [2000])]),
            ((PolicyKind.UNIFORM, PolicyKind.RANDOM_K), [((0, 2, 3), [1500])]),
        ],
        ids=["default-policies", "uniform-and-random-k"],
    )
    def test_default_shape_derives_each_stream_once(self, five_platform_sim, derived, kinds, calls):
        run_mc_study(McConfig(policy_kinds=kinds), five_platform_sim)
        assert derived == calls

    def test_short_study_seeds_full_blocks(self, five_platform_sim, derived):
        # the 12,000 key rows of 3,000 eight-interval trials, nearly three WORD_BLOCKs, take one seeding
        run_mc_study(McConfig(trials=3000, intervals=8), five_platform_sim)
        assert 2 * WORD_BLOCK < 12000 and derived == [((0, 1, 2, 3), [12000])]

    @pytest.mark.parametrize(
        "kinds, trials, calls",
        [
            (DEFAULT_POLICY_KINDS, WORD_BLOCK // 4, [((0, 1, 2, 3), [WORD_BLOCK])]),
            (DEFAULT_POLICY_KINDS, WORD_BLOCK // 4 + 1, [((0, 1, 2, 3), [WORD_BLOCK + 4])]),
            ((PolicyKind.UNIFORM, PolicyKind.RANDOM_K), WORD_BLOCK // 3, [((0, 2, 3), [WORD_BLOCK - 1])]),
            ((PolicyKind.UNIFORM, PolicyKind.RANDOM_K), WORD_BLOCK // 3 + 1, [((0, 2, 3), [WORD_BLOCK + 2])]),
            ((PolicyKind.UNIFORM,), WORD_BLOCK // 2, [((0, 2), [WORD_BLOCK])]),
            ((PolicyKind.UNIFORM,), WORD_BLOCK // 2 + 1, [((0, 2), [WORD_BLOCK + 2])]),
        ],
        ids=[
            "four-streams-fill-a-block",
            "four-streams-past-a-block",
            "three-streams-fill-a-block",
            "three-streams-past-a-block",
            "two-fill-a-block",
            "two-past-a-block",
        ],
    )
    def test_joint_derivation_up_to_one_seed_block(self, five_platform_sim, derived, kinds, trials, calls):
        # trials × streams up to WORD_BLOCK and one trial past it both take one seeding
        config = McConfig(trials=trials, intervals=5, policy_kinds=kinds, master_seed=2**32)
        TestStudyMatchesPerStepReference.assert_matches(config, five_platform_sim)
        assert derived == calls

    def test_words_past_the_cell_cap(self, derived):
        # 219 trials of a 600-platform labeling are 131,400 words, past WORD_CELLS:
        # the study takes two chunks, each with every stream in one pass
        sim = generated_similarity(600, seed=1)
        config = McConfig(trials=WORD_CELLS // 600 + 1, intervals=4, k=2, master_seed=5)
        assert config.trials * sim.count > WORD_CELLS
        TestStudyMatchesPerStepReference.assert_matches(config, sim)
        assert derived == [((0, 1, 2, 3), [4 * (WORD_CELLS // 600)]), ((0, 1, 2, 3), [4])]


class TestDecodedDrawsEqualGeneratorDraws:
    """The study decodes raw PCG64 words as NumPy's ``Generator`` draws them; NumPy is the reference."""

    @pytest.mark.parametrize("count", range(2, 65))
    def test_choice_without_replacement(self, count, replays):
        rows = np.arange(6)
        for k in range(1, count + 1):
            # Floyd's k draws and the shuffle's k - 1 take at most k words
            plan = draw_plan(_floyd_bounds(count, k))
            assert plan.words <= k
            chosen = _random_k_subsets(draws([plan], count, rows, 3)[0], count, k)
            expected = [substream(count, row, 3).choice(count, k, replace=False).tolist() for row in rows]
            assert not replays
            assert chosen.tolist() == expected

    def test_labelings(self, five_platform_sim, replays):
        rows, count = np.arange(200), five_platform_sim.count
        (values,) = draws([draw_plan([count] + [0] * (count - 1))], 3, rows, 0)
        flags = simulator._labelings(values, five_platform_sim.scores)
        assert not replays
        expected = [reference_labeling(five_platform_sim.scores, substream(3, row, 0)) for row in rows]
        np.testing.assert_array_equal(flags, expected, strict=True)

    @pytest.mark.parametrize("count", [2, 3, 7, 48])
    def test_bounded_draws(self, count, replays):
        # integers(1) takes no half, so the draws after it shift by one half
        bounds = [count, 1, count - 1, 1, 1, count + 1, 2]
        (values,) = draws([draw_plan(bounds)], 5, np.arange(40), 2)
        assert not replays
        for row, drawn in enumerate(values.T.tolist()):
            scalar = substream(5, row, 2)
            assert drawn == [int(scalar.integers(bound)) for bound in bounds]

    def test_every_draw_rejected_reruns_every_trial(self, five_platform_sim, monkeypatch, replays):
        def every_draw_rejected(draws, m):
            value, rejected = _bounded32(draws, m)
            return value, np.ones_like(rejected)

        monkeypatch.setattr("diversity_lab.rng._bounded32", every_draw_rejected)
        config = McConfig(trials=25, intervals=12, master_seed=4)
        TestStudyMatchesPerStepReference.assert_matches(config, five_platform_sim)
        # every stream of every trial, the labeling's and each policy's, is drawn again
        assert sorted(replays) == [(4, trial, stream) for trial in range(25) for stream in range(4)]

    @pytest.mark.parametrize(
        "count, k, intervals",
        [(5, 5, 12), (3, 3, 3), (2, 2, 9), (2, 2, 2), (4, 2, 2)],
        ids=["k-is-N", "k-is-N-is-intervals", "N-is-2", "N-is-2-is-intervals", "intervals-is-k"],
    )
    def test_edge_shapes(self, count, k, intervals):
        config = McConfig(trials=30, intervals=intervals, k=k, master_seed=count + k)
        TestStudyMatchesPerStepReference.assert_matches(config, generated_similarity(count, seed=k))

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_48_platform_matrix(self, seed):
        config = McConfig(trials=12, intervals=20, k=4, master_seed=seed)
        TestStudyMatchesPerStepReference.assert_matches(config, generated_similarity(48, seed=seed))


class TestBatchedDrawsEqualScalarDraws:
    """PCG64 identities the batched study relies on to keep every artifact unchanged."""

    @pytest.mark.parametrize("count", [2, 3, 5, 48])
    @pytest.mark.parametrize("size", [1, 2, 7, 99])
    def test_integers_after_a_scalar_draw(self, count, size):
        batched, scalar = np.random.default_rng(size), np.random.default_rng(size)
        assert int(batched.integers(count)) == int(scalar.integers(count))
        draws = batched.integers(count - 1, size=size).tolist()
        assert draws == [int(scalar.integers(count - 1)) for _ in range(size)]
        # the two generators are left in the same state
        assert batched.random() == scalar.random()

    @pytest.mark.parametrize("count", [2, 3, 5, 48])
    @pytest.mark.parametrize("size", [1, 4, 47])
    def test_random_after_a_scalar_draw(self, count, size):
        batched, scalar = np.random.default_rng(count), np.random.default_rng(count)
        assert int(batched.integers(count)) == int(scalar.integers(count))
        assert batched.random(size).tolist() == [scalar.random() for _ in range(size)]
        assert int(batched.integers(count)) == int(scalar.integers(count))


class TestOneWalkCallPerPolicyPerChunk:
    """Each chunk walks every policy with one ``walks`` call; only ``scheduler`` knows which walks share a start."""

    def test_each_chunk_walks_each_policy_once(self, five_platform_sim, monkeypatch):
        walked = []

        def recorded(kind, dist, k, steps, values, starts=None):
            walked.append((kind, starts))
            return walks(kind, dist, k, steps, values, starts)

        monkeypatch.setattr(simulator, "walks", recorded)
        config = McConfig(trials=3 * (WORD_CELLS // 100), intervals=100)
        run_mc_study(config, five_platform_sim)
        # three chunks, each walking the policies in config order from their drawn values
        assert walked == [(kind, None) for kind in DEFAULT_POLICY_KINDS] * 3

    def test_diversity_walks_get_sorted_distinct_starts(self, five_platform_sim, monkeypatch):
        given = []

        def recorded(dist, starts, steps, k):
            given.append(starts.tolist())
            return diversity_walks(dist, starts, steps, k)

        monkeypatch.setattr(scheduler, "diversity_walks", recorded)
        config = McConfig(trials=3 * (WORD_CELLS // 100), intervals=100, policy_kinds=(PolicyKind.DIVERSITY,))
        run_mc_study(config, five_platform_sim)
        # each chunk of 1,310 trials draws every one of the five starts
        assert given == [[0, 1, 2, 3, 4]] * 3


class TestPoolErrorsBeforeAnyTrial:
    """An unschedulable policy fails the study, in policy order, before any stream is drawn."""

    @pytest.fixture
    def no_streams(self, monkeypatch):
        def refuse(*key, **options):
            raise AssertionError(f"a trial started: stream {key}")

        monkeypatch.setattr(rng, "_word_pieces", refuse)

    def test_streams_are_refused(self, five_platform_sim, no_streams):
        with pytest.raises(AssertionError, match="a trial started"):
            run_mc_study(McConfig(trials=1, intervals=10), five_platform_sim)

    @pytest.mark.parametrize(
        "kinds, message",
        [
            ((PolicyKind.UNIFORM, PolicyKind.DIVERSITY), "requires k=9 distinct platforms, only 5"),
            ((PolicyKind.UNIFORM, PolicyKind.RANDOM_K), "cannot rotate over k=9 of 5 platforms"),
            ((PolicyKind.RANDOM_K, PolicyKind.DIVERSITY), "cannot rotate over k=9 of 5 platforms"),
        ],
    )
    def test_k_above_pool(self, five_platform_sim, no_streams, kinds, message):
        config = McConfig(trials=3, intervals=10, k=9, policy_kinds=kinds)
        with pytest.raises(ValueError, match=message):
            run_mc_study(config, five_platform_sim)

    def test_single_platform_uniform(self, no_streams):
        config = McConfig(trials=3, intervals=10, policy_kinds=(PolicyKind.UNIFORM,))
        with pytest.raises(ValueError, match="needs at least two platforms"):
            run_mc_study(config, make_similarity([[1.0]]))
