import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diversity_lab import simulator
from diversity_lab.rng import WORD_BLOCK, substream
from diversity_lab.simulator import DEFAULT_POLICY_KINDS
from diversity_lab import (
    EmpiricalCdf,
    McConfig,
    MigrationPolicy,
    PolicyKind,
    VulnerabilityLabeling,
    assign_vulnerabilities,
    compute_metrics,
    make_random_k_policy,
    run_mc_study,
    trace,
)
from conftest import make_similarity
from oracles import naive_trace_metrics, reference_study


class TestAssignVulnerabilities:
    def test_identity_matrix_single_vulnerable(self, identity_sim):
        rng = np.random.default_rng(0)
        for _ in range(200):
            labeling = assign_vulnerabilities(identity_sim, rng)
            assert labeling.m == 1

    def test_clone_matrix_all_vulnerable(self, clone_sim):
        rng = np.random.default_rng(0)
        for _ in range(200):
            labeling = assign_vulnerabilities(clone_sim, rng)
            assert labeling.m == 5

    def test_conditional_frequency_given_seed_platform(self, five_platform_sim):
        # P(FreeBSD vulnerable | seed platform = CentOS) should track the
        # CentOS/FreeBSD score; the seed is recovered by replaying each
        # generator's first draw
        freebsd = five_platform_sim.platforms.index("FreeBSD")
        centos_seeded = 0
        hits = 0
        for i in range(100_000):
            if int(np.random.default_rng(i).integers(5)) != 0:
                continue
            centos_seeded += 1
            labeling = assign_vulnerabilities(five_platform_sim, np.random.default_rng(i))
            hits += labeling.flags[freebsd]
        assert centos_seeded > 15_000
        assert abs(hits / centos_seeded - 0.0368) < 0.005

    def test_marginal_frequency(self, five_platform_sim):
        # P(FreeBSD vulnerable) = (1 + sum of its scores to the others) / 5
        rng = np.random.default_rng(31415)
        trials = 50_000
        freebsd = five_platform_sim.platforms.index("FreeBSD")
        hits = sum(
            assign_vulnerabilities(five_platform_sim, rng).flags[freebsd]
            for _ in range(trials)
        )
        sims = [five_platform_sim.similarity(i, freebsd) for i in range(4)]
        expected = (1.0 + sum(sims)) / 5.0
        assert abs(hits / trials - expected) < 0.006


def trial_trace(policy, sim, intervals, seed):
    """One trial's platforms under ``policy``, drawn from ``seed`` as the study draws them."""
    rng = np.random.default_rng(seed)
    if policy.kind is PolicyKind.RANDOM_K:
        return trace(make_random_k_policy(sim.platforms, policy.k, rng), sim, None, intervals)
    return trace(policy, sim, int(rng.integers(sim.count)), intervals, rng)


class TestRunMcTrial:
    """One trial's trace and vulnerability row, as ``run_mc_study`` builds them."""

    def test_deterministic_given_seed(self, five_platform_sim):
        config = McConfig(trials=1, intervals=50)
        policy = MigrationPolicy.uniform()
        first = trial_trace(policy, five_platform_sim, config.intervals, 42)
        second = trial_trace(policy, five_platform_sim, config.intervals, 42)
        assert first.tolist() == second.tolist()

    def test_fixed_periodic_alternation(self, five_platform_sim):
        config = McConfig(trials=1, intervals=10)
        labeling = VulnerabilityLabeling.from_vulnerable_indices(5, {0})
        policy = MigrationPolicy.fixed_periodic((0, 1))
        chosen = trace(policy, five_platform_sim, None, config.intervals)
        assert tuple(chosen.tolist()) == (0, 1) * 5
        assert tuple(np.array(labeling.flags)[chosen].tolist()) == (True, False) * 5

    def test_uniform_all_vulnerable(self, five_platform_sim):
        config = McConfig(trials=1, intervals=30, k=3)
        labeling = VulnerabilityLabeling((True,) * 5)
        chosen = trial_trace(MigrationPolicy.uniform(), five_platform_sim, config.intervals, 7)
        vulnerable = np.array(labeling.flags)[chosen]
        assert all(vulnerable)
        metrics = compute_metrics([vulnerable], 3)
        assert metrics.time_to_first_compromise == (3,)

    def test_random_k_realization_rotates(self, five_platform_sim):
        config = McConfig(trials=1, intervals=12)
        chosen = trial_trace(MigrationPolicy.random_k(3), five_platform_sim, config.intervals, 5)
        chosen = tuple(chosen.tolist())
        assert len(set(chosen)) == 3
        assert chosen[:3] * 4 == chosen


class TestComputeMetrics:
    def test_hand_counted_example(self):
        flags = [True, True, True] + [False] * 97
        metrics = compute_metrics([flags], 3)
        assert metrics.vulnerable_fraction == (0.03,)
        assert metrics.time_to_first_compromise == (3,)
        assert metrics.compromised_fraction == (0.01,)

    def test_never_vulnerable(self):
        metrics = compute_metrics([[False] * 50], 3)
        assert metrics.time_to_first_compromise == (None,)
        assert metrics.compromised_fraction == (0.0,)
        assert metrics.compromise_incidence == 0.0
        assert metrics.mean_time_to_first_compromise is None

    @given(st.lists(st.booleans(), min_size=5, max_size=120), st.integers(2, 5))
    def test_against_naive_recount(self, flags, k):
        metrics = compute_metrics([flags], k)
        vf, first, cf = naive_trace_metrics(flags, k)
        assert metrics.vulnerable_fraction[0] == pytest.approx(vf, abs=1e-12)
        assert metrics.time_to_first_compromise[0] == first
        assert metrics.compromised_fraction[0] == pytest.approx(cf, abs=1e-12)

    @given(st.lists(st.booleans(), min_size=5, max_size=120), st.integers(2, 5))
    def test_invariants(self, flags, k):
        metrics = compute_metrics([flags], k)
        assert metrics.compromised_fraction[0] <= metrics.vulnerable_fraction[0]
        first = metrics.time_to_first_compromise[0]
        assert first is None or first >= k

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
        assert 1.0 - cdf.auc() == pytest.approx(samples.mean(), abs=1e-12)

    def test_total_must_cover_samples(self):
        with pytest.raises(ValueError):
            EmpiricalCdf.from_samples([1.0, 2.0], total=1)


class TestRunMcStudy:
    def test_identity_matrix_never_compromised(self, identity_sim):
        config = McConfig(trials=60, intervals=40, master_seed=3)
        report = run_mc_study(config, identity_sim)
        for metrics in report.per_policy.values():
            assert metrics.compromise_incidence == 0.0
            assert set(metrics.compromised_fraction) == {0.0}

    def test_reproducible_from_master_seed(self, five_platform_sim):
        config = McConfig(trials=40, intervals=30, master_seed=11)
        first = run_mc_study(config, five_platform_sim)
        second = run_mc_study(config, five_platform_sim)
        for name in first.per_policy:
            assert first.per_policy[name] == second.per_policy[name]

    def test_policy_subset(self, five_platform_sim):
        config = McConfig(trials=5, intervals=20, policy_kinds=(PolicyKind.DIVERSITY,))
        report = run_mc_study(config, five_platform_sim)
        assert list(report.per_policy) == ["diversity"]

    def test_study_invariants(self, default_study):
        for metrics in default_study.per_policy.values():
            for cf, vf in zip(metrics.compromised_fraction, metrics.vulnerable_fraction):
                assert cf <= vf
            for first in metrics.time_to_first_compromise:
                assert first is None or first >= metrics.k

    def test_mean_vulnerability_equals_one_minus_auc(self, default_study):
        for metrics in default_study.per_policy.values():
            cdf = metrics.cdf_vulnerable_fraction()
            assert 1.0 - cdf.auc() == pytest.approx(metrics.mean_vulnerable_fraction, abs=1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)
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
        freebsd = five_platform_sim.platforms.index("FreeBSD")
        labeling = VulnerabilityLabeling(
            tuple(i != freebsd for i in range(5))
        )
        config = McConfig(trials=1, intervals=60)
        flags = np.array(labeling.flags)
        for start_seed in range(30):
            chosen = trial_trace(
                MigrationPolicy.diversity(3), five_platform_sim, config.intervals, start_seed
            )
            metrics = compute_metrics([flags[chosen]], 3)
            assert metrics.compromised_fraction == (0.0,)

    def test_compromises_only_during_startup(self, five_platform_sim):
        """Once the periodic rotation is reached, a diversity trial is either
        compromised within the first few intervals or never."""
        rng = np.random.default_rng(17)
        config = McConfig(trials=1, intervals=100)
        for _ in range(200):
            labeling = assign_vulnerabilities(five_platform_sim, rng)
            seed = int(rng.integers(1 << 32))
            policy = MigrationPolicy.diversity(3)
            chosen = trial_trace(policy, five_platform_sim, config.intervals, seed)
            vulnerable = np.array(labeling.flags)[chosen]
            first = compute_metrics([vulnerable], 3).time_to_first_compromise[0]
            assert first is None or first <= 6


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
        report = run_mc_study(config, sim)
        reference = reference_study(config, sim)
        assert list(report.per_policy) == list(reference)
        for name, metrics in report.per_policy.items():
            vulnerable, first, compromised = reference[name]
            assert metrics.k == config.k
            assert metrics.intervals == config.intervals
            assert metrics.vulnerable_fraction == tuple(vulnerable)
            assert metrics.time_to_first_compromise == tuple(first)
            assert metrics.compromised_fraction == tuple(compromised)
            for value in metrics.vulnerable_fraction + metrics.compromised_fraction:
                assert type(value) is float
            assert all(t is None or type(t) is int for t in metrics.time_to_first_compromise)

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
        # the trials span two decode blocks; with the diversity policy, every trial's
        # start comes from one stream_words call, whose last key is alone in a second seed block
        config = McConfig(
            trials=WORD_BLOCK + 1, intervals=6, policy_kinds=kinds, master_seed=2**64
        )
        self.assert_matches(config, five_platform_sim)


class TestDecodedDrawsEqualGeneratorDraws:
    """The study decodes raw PCG64 words as NumPy's ``Generator`` draws them; NumPy is the reference."""

    @pytest.mark.parametrize("count", range(2, 65))
    def test_choice_without_replacement(self, count):
        rows = np.arange(6)
        for k in range(1, count + 1):
            chosen, rejected = simulator._random_k_subsets(count, rows, count, k)
            expected = [substream(count, row, 3).choice(count, k, replace=False).tolist() for row in rows]
            assert not rejected.any()
            assert chosen.tolist() == expected

    def test_labelings(self, five_platform_sim):
        rows = np.arange(200)
        flags, rejected = simulator._labelings(3, rows, five_platform_sim.scores)
        assert not rejected.any()
        expected = [assign_vulnerabilities(five_platform_sim, substream(3, row, 0)).flags for row in rows]
        assert [tuple(row) for row in flags.tolist()] == expected

    @pytest.mark.parametrize("count", [2, 3, 7, 48])
    def test_bounded_draws(self, count):
        # integers(1) takes no half, so the draws after it shift by one half
        bounds = [count, 1, count - 1, 1, 1, count + 1, 2]
        draws, rejected = simulator._bounded_draws(5, np.arange(40), 2, bounds)
        assert not rejected.any()
        for row, drawn in enumerate(draws.tolist()):
            rng = substream(5, row, 2)
            assert drawn == [int(rng.integers(bound)) for bound in bounds]

    def test_every_draw_rejected_reruns_every_trial(self, five_platform_sim, monkeypatch):
        bounded32 = simulator._bounded32
        reruns = []
        scalar_trial = simulator._scalar_trial

        def every_draw_rejected(draws, m):
            value, rejected = bounded32(draws, m)
            return value, np.ones_like(rejected)

        def counted(config, sim, trial):
            reruns.append(trial)
            return scalar_trial(config, sim, trial)

        monkeypatch.setattr(simulator, "_bounded32", every_draw_rejected)
        monkeypatch.setattr(simulator, "_scalar_trial", counted)
        config = McConfig(trials=25, intervals=12, master_seed=4)
        TestStudyMatchesPerStepReference.assert_matches(config, five_platform_sim)
        assert reruns == list(range(25))

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


class TestPoolErrorsBeforeAnyTrial:
    """An unschedulable policy fails the study, in policy order, before any stream is drawn."""

    @pytest.fixture
    def no_streams(self, monkeypatch):
        def refuse(*key, **options):
            raise AssertionError(f"a trial started: stream {key}")

        # the study takes its words from stream_words and reruns trials on substream
        monkeypatch.setattr(simulator, "substream", refuse)
        monkeypatch.setattr(simulator, "stream_words", refuse)

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
