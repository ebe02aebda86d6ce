import itertools
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diversity_lab import PolicyKind, check_pool, detect_periodicity, heron_area, schedule
from diversity_lab import scheduler
from diversity_lab.scheduler import _most_diverse, diversity_walks
from conftest import make_similarity
from oracles import reference_schedule, scalar_diversity_trace, triangle_area_from_sides


def diversity(sim, start, steps, k):
    """The diversity schedule as a list; it draws nothing, so it takes no generator."""
    return schedule(PolicyKind.DIVERSITY, sim, k, start, steps, None).tolist()


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
        assert diversity(five_platform_sim, 0, 2, 2)[1] == 4

    def test_two_platforms_forced_alternation(self):
        sim = make_similarity([[1.0, 0.7], [0.7, 1.0]])
        chosen = diversity(sim, 0, 7, 2)
        assert chosen == [0, 1, 0, 1, 0, 1, 0]

    def test_deterministic_given_start(self, five_platform_sim):
        first = diversity(five_platform_sim, 2, 40, 3)
        second = diversity(five_platform_sim, 2, 40, 3)
        assert first == second

    def test_never_repeats_current(self, five_platform_sim):
        for start in range(5):
            trace = diversity(five_platform_sim, start, 50, 3)
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
        assert diversity(sim, 0, 2, 2)[1] == 1

    def test_converges_to_max_area_triple(self, five_platform_sim):
        dist = five_platform_sim.distances()
        best_triple = max(
            itertools.combinations(range(5), 3),
            key=lambda t: triangle_area_from_sides(
                dist[t[0], t[1]], dist[t[0], t[2]], dist[t[1], t[2]]
            ),
        )
        for start in range(5):
            trace = diversity(five_platform_sim, start, 20, 3)
            assert set(trace[-3:]) == set(best_triple)

    def test_k4_uses_summed_distances(self, five_platform_sim):
        # after three moves the history is the last 3 platforms; the next pick
        # must maximize the summed distance to all of them
        chosen = diversity(five_platform_sim, 0, 5, 4)
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
            check_pool(PolicyKind.DIVERSITY, 3, sim.count)


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
        chosen = schedule(PolicyKind.UNIFORM, sim, 3, 0, 6, np.random.default_rng(1)).tolist()
        assert chosen == [0, 1, 0, 1, 0, 1]

    def test_never_returns_current(self, five_platform_sim):
        rng = np.random.default_rng(3)
        chosen = schedule(PolicyKind.UNIFORM, five_platform_sim, 3, 2, 10_001, rng).tolist()
        for current, nxt in zip(chosen, chosen[1:]):
            assert nxt != current

    def test_uniform_over_others(self, five_platform_sim):
        rng = np.random.default_rng(123)
        counts = {0: 0, 1: 0, 3: 0, 4: 0}
        draws = 100_000
        for _ in range(draws):
            counts[int(schedule(PolicyKind.UNIFORM, five_platform_sim, 3, 2, 2, rng)[1])] += 1
        expected = draws / 4
        chi_square = sum((c - expected) ** 2 / expected for c in counts.values())
        # 3 degrees of freedom; 16.27 is the 0.999 quantile
        assert chi_square < 16.27

    def test_single_platform_rejected(self):
        with pytest.raises(ValueError):
            check_pool(PolicyKind.UNIFORM, 3, 1)


class TestRandomKPolicy:
    def test_rotation_has_period_k(self, five_platform_sim):
        chosen = schedule(PolicyKind.RANDOM_K, five_platform_sim, 3, None, 12, np.random.default_rng(9))
        periodicity = detect_periodicity(chosen.tolist())
        assert periodicity is not None
        assert periodicity.period == 3
        assert periodicity.transient == 0

    def test_k_equals_count_rotates_everything(self):
        chosen = schedule(PolicyKind.RANDOM_K, make_similarity(np.eye(4)), 4, None, 4, np.random.default_rng(0))
        assert sorted(chosen.tolist()) == [0, 1, 2, 3]

    def test_k_larger_than_count_rejected(self):
        with pytest.raises(ValueError):
            check_pool(PolicyKind.RANDOM_K, 4, 3)

    def test_subsets_uniform(self, five_platform_sim):
        rng = np.random.default_rng(2718)
        counts: dict[frozenset, int] = {}
        draws = 20_000
        for _ in range(draws):
            key = frozenset(schedule(PolicyKind.RANDOM_K, five_platform_sim, 3, None, 3, rng).tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 10
        expected = draws / 10
        chi_square = sum((c - expected) ** 2 / expected for c in counts.values())
        # 9 degrees of freedom; 27.88 is the 0.999 quantile
        assert chi_square < 27.88


class TestCheckPool:
    def test_diversity_requires_k(self):
        with pytest.raises(ValueError, match="k >= 2"):
            check_pool(PolicyKind.DIVERSITY, 1, 5)

    @pytest.mark.parametrize("k", [1, 9])
    def test_uniform_ignores_k(self, k):
        check_pool(PolicyKind.UNIFORM, k, 5)


@pytest.mark.parametrize("kind", [PolicyKind.DIVERSITY, PolicyKind.UNIFORM])
@pytest.mark.parametrize("start", [-1, 5])
def test_start_out_of_range_rejected(five_platform_sim, kind, start):
    # as an index, -1 would start the walk on the last platform
    with pytest.raises(ValueError, match=f"start platform {start} out of range"):
        schedule(kind, five_platform_sim, 3, start, 10, np.random.default_rng(0))


class TestScheduleEqualsReference:
    """``schedule`` equals the one-scalar-at-a-time oracle, and leaves the generator where it leaves it."""

    @given(
        st.sampled_from(list(PolicyKind)),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_schedule(self, kind, count, seed, data):
        k = data.draw(st.integers(min_value=2, max_value=min(count, 6)))
        steps = data.draw(st.integers(min_value=1, max_value=60))
        start = data.draw(st.integers(min_value=0, max_value=count - 1))
        scorer = TestVectorizedScorerMatchesScalarReference
        levels = data.draw(st.sampled_from(sorted(scorer.LEVELS)))
        sim = scorer.random_sim(np.random.default_rng(seed), count, scorer.LEVELS[levels])
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        chosen = schedule(kind, sim, k, start, steps, ours)
        assert chosen.tolist() == reference_schedule(kind.value, sim.distances(), k, start, steps, theirs)
        assert ours.random() == theirs.random()


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
        traces = [schedule(PolicyKind.DIVERSITY, sim, 3, int(rng.integers(5)), 61, rng)]
        traces.append(schedule(PolicyKind.UNIFORM, sim, 3, int(rng.integers(5)), 61, rng))
        traces.append(schedule(PolicyKind.RANDOM_K, sim, 3, None, 61, rng))
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
                    assert diversity(sim, start, 24, k) == expected
                    compared += 1
        assert compared >= 18
        if k == 3 and kind != "uniform":
            # Heron scoring met triangles whose squared area had to be clamped
            assert any("clamped" in record.getMessage() for record in caplog.records)

    def test_heron_area_elementwise(self):
        triples = [(3.0, 4.0, 5.0), (1.0, 1.0, 2.5), (0.0, 1.0, 1.0)]
        areas = heron_area(*(np.array(sides) for sides in zip(*triples)))
        assert areas.tolist() == [heron_area(*triple) for triple in triples] == [6.0, 0.0, 0.0]


def stepped_walks(dist, starts, steps, k):
    """The diversity walks scored at every step, with no cycle search."""
    walks = np.empty((len(starts), steps), dtype=np.intp)
    walks[:, 0] = starts
    for step in range(1, steps):
        walks[:, step] = _most_diverse(dist, walks[:, max(0, step - (k - 1)) : step])
    return walks


def first_repeat(walk, k):
    """The first column whose window of k - 1 platforms equals an earlier one, or None."""
    seen = set()
    for step in range(k - 2, len(walk)):
        window = tuple(walk[step - k + 2 : step + 1])
        if window in seen:
            return step
        seen.add(window)
    return None


@st.composite
def distance_matrices(draw):
    """Symmetric distances with a zero diagonal: random, rounded to 0.1, or all equal."""
    count = draw(st.integers(min_value=2, max_value=12))
    kind = draw(st.sampled_from(["random", "tenths", "equal"]))
    if kind == "equal":
        upper = np.full((count, count), draw(st.sampled_from([0.0, 0.3, 1.0])))
    else:
        cells = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        upper = np.array(draw(st.lists(cells, min_size=count * count, max_size=count * count)))
        upper = upper.reshape(count, count)
        if kind == "tenths":
            upper = np.round(upper, 1)
    upper = np.triu(upper, k=1)
    return upper + upper.T


class TestWalksStopAtTheirCycle:
    """``diversity_walks`` stops once every window has repeated; its walks equal a walk scored every step."""

    @given(distance_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_stepped_walks(self, dist, data):
        count = len(dist)
        k = data.draw(st.integers(min_value=2, max_value=min(count, 6)))
        steps = data.draw(st.integers(min_value=1, max_value=300))
        starts = np.arange(count)
        np.testing.assert_array_equal(
            diversity_walks(dist, starts, steps, k), stepped_walks(dist, starts, steps, k), strict=True
        )

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_fewer_steps_than_k(self, five_platform_sim, k):
        dist = five_platform_sim.distances()
        for steps in range(1, k):
            assert diversity_walks(dist, np.arange(5), steps, k).tolist() == stepped_walks(
                dist, np.arange(5), steps, k
            ).tolist()

    def test_late_first_repeat_is_tiled(self):
        # each platform's farthest is the next one, so the walk from 0 runs the whole
        # chain before it settles into the 38-39 swap; Brent's checkpoint catches it late
        count = 40
        dist = np.full((count, count), 0.1)
        np.fill_diagonal(dist, 0.0)
        edges = 0.5 + np.arange(count - 1) / 100
        dist[np.arange(count - 1), np.arange(1, count)] = edges
        dist[np.arange(1, count), np.arange(count - 1)] = edges
        expected = stepped_walks(dist, np.arange(count), 300, 2)
        assert first_repeat(expected[0].tolist(), 2) > 32
        np.testing.assert_array_equal(diversity_walks(dist, np.arange(count), 300, 2), expected, strict=True)

    @pytest.fixture
    def scored(self, monkeypatch):
        histories = []

        def counted(dist, hist):
            histories.append(hist)
            return _most_diverse(dist, hist)

        monkeypatch.setattr(scheduler, "_most_diverse", counted)
        return histories

    @pytest.mark.parametrize("k, most", [(2, 8), (3, 16), (4, 16), (5, 16)])
    def test_fixture_walks_stop_early(self, five_platform_sim, scored, k, most):
        walks = diversity_walks(five_platform_sim.distances(), np.arange(5), 100, k)
        assert len(scored) <= most
        assert walks.tolist() == stepped_walks(five_platform_sim.distances(), np.arange(5), 100, k).tolist()

    def test_walk_that_never_repeats_scores_every_step(self, five_platform_sim, scored):
        # with k = 5 the windows of steps 4 and 5 are each one step past their checkpoint,
        # and a walk never stays on a platform, so neither repeats
        diversity_walks(five_platform_sim.distances(), np.arange(5), 6, 5)
        assert len(scored) == 5
