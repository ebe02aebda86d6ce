import itertools
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diversity_lab import (
    MigrationPolicy,
    PlatformSet,
    check_pool,
    detect_periodicity,
    diversity_schedule,
    heron_area,
    make_random_k_policy,
    trace,
)
from diversity_lab.scheduler import _most_diverse
from conftest import make_similarity
from oracles import scalar_diversity_trace, triangle_area_from_sides


class TestHeronArea:
    def test_right_triangle(self):
        assert heron_area(3.0, 4.0, 5.0) == pytest.approx(6.0, abs=1e-12)

    def test_degenerate_clamped_to_zero(self):
        # violates the triangle inequality; squared area would be negative
        assert heron_area(1.0, 1.0, 2.5) == 0.0

    def test_zero_side(self):
        assert heron_area(0.0, 1.0, 1.0) == 0.0


class TestDiversitySelection:
    def test_pairwise_most_distant(self, five_platform_sim):
        # from CentOS the least similar platform is FreeBSD
        assert trace(MigrationPolicy.diversity(2), five_platform_sim, 0, 2)[1] == 4

    def test_two_platforms_forced_alternation(self):
        sim = make_similarity([[1.0, 0.7], [0.7, 1.0]])
        chosen = trace(MigrationPolicy.diversity(2), sim, 0, 7).tolist()
        assert chosen == [0, 1, 0, 1, 0, 1, 0]

    def test_deterministic_given_start(self, five_platform_sim):
        first = diversity_schedule(five_platform_sim, 2, 40, 3)
        second = diversity_schedule(five_platform_sim, 2, 40, 3)
        assert first == second

    def test_never_repeats_current(self, five_platform_sim):
        for start in range(5):
            trace = diversity_schedule(five_platform_sim, start, 50, 3)
            assert all(a != b for a, b in zip(trace, trace[1:]))

    def test_tie_breaks_to_lowest_index(self):
        # candidates 1 and 2 are equally far from platform 0
        sim = make_similarity(
            [
                [1.0, 0.2, 0.2, 0.9],
                [0.2, 1.0, 0.9, 0.9],
                [0.2, 0.9, 1.0, 0.9],
                [0.9, 0.9, 0.9, 1.0],
            ]
        )
        assert trace(MigrationPolicy.diversity(2), sim, 0, 2)[1] == 1

    def test_converges_to_max_area_triple(self, five_platform_sim):
        dist = five_platform_sim.distances()
        best_triple = max(
            itertools.combinations(range(5), 3),
            key=lambda t: triangle_area_from_sides(
                dist[t[0], t[1]], dist[t[0], t[2]], dist[t[1], t[2]]
            ),
        )
        for start in range(5):
            trace = diversity_schedule(five_platform_sim, start, 20, 3)
            assert set(trace[-3:]) == set(best_triple)

    def test_k4_uses_summed_distances(self, five_platform_sim):
        # after three moves the history is the last 3 platforms; the next pick
        # must maximize the summed distance to all of them
        chosen = trace(MigrationPolicy.diversity(4), five_platform_sim, 0, 5).tolist()
        hist = chosen[1:4]
        dist = five_platform_sim.distances()
        scores = {
            j: sum(dist[j, h] for h in hist) for j in range(5) if j != chosen[3]
        }
        expected = max(sorted(scores), key=lambda j: scores[j])
        assert chosen[4] == expected

    def test_too_few_platforms_rejected(self):
        sim = make_similarity([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="distinct platforms"):
            trace(MigrationPolicy.diversity(3), sim, 0, 5)


@st.composite
def random_similarity(draw):
    count = draw(st.integers(min_value=3, max_value=6))
    scores = np.eye(count)
    for i in range(count):
        for j in range(i + 1, count):
            # three-decimal grid keeps ties exact across rescaling
            v = draw(st.integers(min_value=0, max_value=1000)) / 1000.0
            scores[i, j] = scores[j, i] = v
    return make_similarity(scores)


@given(random_similarity(), st.integers(min_value=1, max_value=9), st.data())
@settings(max_examples=60, deadline=None)
def test_argmax_invariant_under_distance_scaling(sim, scale_tenths, data):
    """Scaling all distances by c > 0 scales areas by c^2 and keeps the choice."""
    scale = scale_tenths / 10.0
    scaled = make_similarity(1.0 - scale * sim.distances())
    k = data.draw(st.integers(min_value=2, max_value=3))
    start = data.draw(st.integers(min_value=0, max_value=sim.count - 1))
    hist = [start]
    if k == 3:
        second = data.draw(st.integers(min_value=0, max_value=sim.count - 1))
        assume(second != start)
        hist.append(second)
    # exact ties can break either way after rescaling rounds the scores;
    # require a real margin between the top two candidates
    dist = sim.distances()
    objective = {}
    for j in range(sim.count):
        if j == hist[-1]:
            continue
        if len(hist) == 1:
            objective[j] = dist[j, hist[-1]]
        else:
            objective[j] = triangle_area_from_sides(
                dist[j, hist[0]], dist[j, hist[1]], dist[hist[0], hist[1]]
            )
    ranked = sorted(objective.values(), reverse=True)
    assume(len(ranked) < 2 or ranked[0] - ranked[1] > 1e-9)
    choice = _most_diverse(dist, hist)
    assert _most_diverse(scaled.distances(), hist) == choice


class TestUniformSelection:
    def test_two_platforms_alternate(self):
        sim = make_similarity([[1.0, 0.5], [0.5, 1.0]])
        chosen = trace(MigrationPolicy.uniform(), sim, 0, 6, np.random.default_rng(1)).tolist()
        assert chosen == [0, 1, 0, 1, 0, 1]

    def test_never_returns_current(self, five_platform_sim):
        rng = np.random.default_rng(3)
        chosen = trace(MigrationPolicy.uniform(), five_platform_sim, 2, 10_001, rng).tolist()
        for current, nxt in zip(chosen, chosen[1:]):
            assert nxt != current

    def test_uniform_over_others(self, five_platform_sim):
        rng = np.random.default_rng(123)
        policy = MigrationPolicy.uniform()
        counts = {0: 0, 1: 0, 3: 0, 4: 0}
        draws = 100_000
        for _ in range(draws):
            counts[int(trace(policy, five_platform_sim, 2, 2, rng)[1])] += 1
        expected = draws / 4
        chi_square = sum((c - expected) ** 2 / expected for c in counts.values())
        # 3 degrees of freedom; 16.27 is the 0.999 quantile
        assert chi_square < 16.27

    def test_requires_rng(self, five_platform_sim):
        with pytest.raises(ValueError, match="random generator"):
            trace(MigrationPolicy.uniform(), five_platform_sim, 1, 2)

    def test_single_platform_rejected(self):
        with pytest.raises(ValueError):
            check_pool(MigrationPolicy.uniform(), 1)


class TestRandomKPolicy:
    def test_rotation_has_period_k(self, five_platform_sim):
        policy = make_random_k_policy(5, 3, seed=9)
        periodicity = detect_periodicity(trace(policy, five_platform_sim, None, 12).tolist())
        assert periodicity is not None
        assert periodicity.period == 3
        assert periodicity.transient == 0

    def test_k_equals_count_rotates_everything(self):
        policy = make_random_k_policy(4, 4, seed=0)
        assert sorted(policy.sequence) == [0, 1, 2, 3]

    def test_k_larger_than_count_rejected(self):
        with pytest.raises(ValueError):
            make_random_k_policy(3, 4, seed=0)

    def test_subsets_uniform(self):
        platforms = PlatformSet(tuple("abcde"))
        rng = np.random.default_rng(2718)
        counts: dict[frozenset, int] = {}
        draws = 20_000
        for _ in range(draws):
            policy = make_random_k_policy(platforms, 3, rng)
            key = frozenset(policy.sequence)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 10
        expected = draws / 10
        chi_square = sum((c - expected) ** 2 / expected for c in counts.values())
        # 9 degrees of freedom; 27.88 is the 0.999 quantile
        assert chi_square < 27.88


class TestDetectPeriodicity:
    def test_constructed_trace(self):
        result = detect_periodicity([0, 1, 2, 1, 2, 1, 2])
        assert result is not None
        assert (result.period, result.transient) == (2, 1)

    def test_pure_cycle(self):
        result = detect_periodicity([0, 1, 2] * 4)
        assert (result.period, result.transient) == (3, 0)

    def test_constant_trace(self):
        result = detect_periodicity([7, 7, 7, 7])
        assert (result.period, result.transient) == (1, 0)

    def test_random_trace_not_periodic(self):
        rng = np.random.default_rng(42)
        trace = rng.integers(0, 5, size=100).tolist()
        assert detect_periodicity(trace) is None

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            detect_periodicity([1])

    def test_insufficient_repeats_not_periodic(self):
        # only one full period visible after the transient
        assert detect_periodicity([0, 1, 2, 3, 4, 5]) is None


class TestNoAdjacentRepeats:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_all_policies(self, five_platform_sim, seed):
        rng = np.random.default_rng(seed)
        sim = five_platform_sim
        traces = [trace(MigrationPolicy.diversity(3), sim, int(rng.integers(5)), 61)]
        traces.append(trace(MigrationPolicy.uniform(), sim, int(rng.integers(5)), 61, rng))
        traces.append(trace(make_random_k_policy(5, 3, rng), sim, None, 61))
        for chosen in traces:
            assert all(a != b for a, b in zip(chosen, chosen[1:]))


class TestVectorizedScorerMatchesScalarReference:
    LEVELS = {
        "uniform": None,
        # exact ties everywhere, and distances that violate the triangle inequality
        "ties": (0.0, 0.5, 1.0),
        # near-identical pairs beside far ones: most triangles are not metric
        "non_metric": (0.0, 0.02, 0.97, 1.0),
    }

    @staticmethod
    def random_sim(rng, count, levels):
        if levels is None:
            draws = rng.random((count, count))
        else:
            draws = rng.choice(levels, size=(count, count))
        upper = np.triu(draws, k=1)
        scores = upper + upper.T
        np.fill_diagonal(scores, 1.0)
        return make_similarity(scores)

    @pytest.mark.parametrize("kind", sorted(LEVELS))
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_traces_equal(self, kind, k, caplog):
        rng = np.random.default_rng([k, len(kind)])
        compared = 0
        with caplog.at_level(logging.DEBUG, logger="diversity_lab.scheduler"):
            for _ in range(6):
                sim = self.random_sim(rng, int(rng.integers(max(k, 3), 10)), self.LEVELS[kind])
                dist = sim.distances()
                for start in range(sim.count):
                    expected = scalar_diversity_trace(dist, start, 24, k)
                    assert diversity_schedule(sim, start, 24, k) == expected
                    compared += 1
        assert compared >= 18
        if k == 3 and kind != "uniform":
            # Heron scoring met triangles whose squared area had to be clamped
            assert any("clamped" in record.getMessage() for record in caplog.records)

    def test_heron_area_elementwise(self):
        triples = [(3.0, 4.0, 5.0), (1.0, 1.0, 2.5), (0.0, 1.0, 1.0)]
        areas = heron_area(*(np.array(sides) for sides in zip(*triples)))
        assert areas.tolist() == [heron_area(*triple) for triple in triples] == [6.0, 0.0, 0.0]
