import itertools
import logging
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diversity_lab import PolicyKind, heron_area, load_similarity_matrix, walk_bounds, walks
from diversity_lab import scheduler
from diversity_lab.rng import draw_plan, draws, substream
from diversity_lab.scheduler import CLOSED_FORM_ROWS, _most_diverse, diversity_walks
from conftest import make_similarity, seeded_walks, wide_similarity_csv
from oracles import (
    Periodicity,
    closed_form_uniform_walks,
    detect_periodicity,
    reference_schedule,
    scalar_diversity_trace,
    triangle_area_from_sides,
)


def diversity(sim, start, steps, k):
    """The diversity schedule as a list; it draws nothing, so every seed gives it."""
    return seeded_walks(PolicyKind.DIVERSITY, sim, k, steps, [start], 0)[0].tolist()


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
            walk_bounds(PolicyKind.DIVERSITY, sim.count, 3, 10)


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
    choice = _most_diverse(dist, np.array([hist]))
    assert _most_diverse(scaled.distances(), np.array([hist])) == choice


class TestUniformSelection:
    def test_two_platforms_alternate(self):
        sim = make_similarity([[1.0, 0.5], [0.5, 1.0]])
        chosen = seeded_walks(PolicyKind.UNIFORM, sim, 3, 6, [0], 1)[0].tolist()
        assert chosen == [0, 1, 0, 1, 0, 1]

    def test_never_returns_current(self, five_platform_sim):
        chosen = seeded_walks(PolicyKind.UNIFORM, five_platform_sim, 3, 10_001, [2], 3)[0].tolist()
        for current, nxt in zip(chosen, chosen[1:]):
            assert nxt != current

    def test_uniform_over_others(self, five_platform_sim):
        # one first move from platform 2 on each of the streams (123, row)
        samples = 100_000
        moves = seeded_walks(PolicyKind.UNIFORM, five_platform_sim, 3, 2, np.full(samples, 2), 123, np.arange(samples))
        counts = np.bincount(moves[:, 1], minlength=5)
        assert counts[2] == 0
        expected = samples / 4
        chi_square = sum((c - expected) ** 2 / expected for c in counts[[0, 1, 3, 4]])
        # 3 degrees of freedom; 16.27 is the 0.999 quantile
        assert chi_square < 16.27

    def test_single_platform_rejected(self):
        with pytest.raises(ValueError):
            walk_bounds(PolicyKind.UNIFORM, 1, 3, 10)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 7), st.integers(1, 6), st.integers(0, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_walks_equal_the_closed_form(self, count, rows, steps, seed, repeat):
        # runs of equal moves, where the closed form's bit flips, are drawn often
        rng = np.random.default_rng(seed)
        moves = rng.integers(count - 1, size=(rows, steps))
        for step in range(1, steps):
            again = rng.random(rows) < repeat
            moves[again, step] = moves[again, step - 1]
        starts = rng.integers(count, size=rows)
        walked = scheduler.uniform_walks(starts, moves)
        assert np.array_equal(walked, closed_form_uniform_walks(starts, moves))
        assert (walked[:, 1:] != walked[:, :-1]).all()

    @pytest.mark.parametrize("count", [2, 3, 7])
    @pytest.mark.parametrize(
        "rows, steps",
        [(1, 200_000), (CLOSED_FORM_ROWS - 1, 60), (CLOSED_FORM_ROWS, 60), (CLOSED_FORM_ROWS + 5, 60)],
        ids=["one-long-row", "closed-form-below-the-threshold", "loop-at-the-threshold", "loop-past-it"],
    )
    def test_both_sides_of_the_closed_form_threshold(self, rows, steps, count):
        # fewer than CLOSED_FORM_ROWS rows take the closed form, more the loop over steps; every
        # other move repeats the one before, so runs of equal moves are long, and N = 2 is all runs
        rng = np.random.default_rng([rows, count])
        moves = rng.integers(count - 1, size=(rows, steps))
        again = rng.random(moves.shape) < 0.5
        for step in range(1, steps):
            moves[again[:, step], step] = moves[again[:, step], step - 1]
        starts = rng.integers(count, size=rows)
        walked = scheduler.uniform_walks(starts, moves.astype(float))
        assert walked.flags.f_contiguous and walked.dtype == np.intp
        assert np.array_equal(walked, closed_form_uniform_walks(starts, moves))
        assert (walked[:, 1:] != walked[:, :-1]).all()


class TestRandomKPolicy:
    def test_rotation_has_period_k(self, five_platform_sim):
        (values,) = draws([draw_plan(walk_bounds(PolicyKind.RANDOM_K, 5, 3, 12))], 9)
        (chosen,), (period,) = walks(PolicyKind.RANDOM_K, five_platform_sim.distances(), 3, 12, values)
        assert period == 3
        assert detect_periodicity(chosen.tolist(), 3) == Periodicity(period=3, transient=0)

    def test_k_equals_count_rotates_everything(self):
        chosen = seeded_walks(PolicyKind.RANDOM_K, make_similarity(np.eye(4)), 4, 4, None, 0)[0]
        assert sorted(chosen.tolist()) == [0, 1, 2, 3]

    def test_k_larger_than_count_rejected(self):
        with pytest.raises(ValueError):
            walk_bounds(PolicyKind.RANDOM_K, 3, 4, 10)

    def test_subsets_uniform(self, five_platform_sim):
        # one subset on each of the streams (2718, row)
        counts: dict[frozenset, int] = {}
        samples = 20_000
        for chosen in seeded_walks(PolicyKind.RANDOM_K, five_platform_sim, 3, 3, None, 2718, np.arange(samples)):
            key = frozenset(chosen.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 10
        expected = samples / 10
        chi_square = sum((c - expected) ** 2 / expected for c in counts.values())
        # 9 degrees of freedom; 27.88 is the 0.999 quantile
        assert chi_square < 27.88


class TestWalkBoundsRefusesPools:
    """``walk_bounds`` is the one door to a walk: it refuses every pool its kind cannot schedule."""

    def test_diversity_requires_k(self):
        with pytest.raises(ValueError, match="k >= 2"):
            walk_bounds(PolicyKind.DIVERSITY, 5, 1, 10)

    @pytest.mark.parametrize("k", [1, 9])
    def test_uniform_ignores_k(self, k):
        assert walk_bounds(PolicyKind.UNIFORM, 5, k, 10) == [4] * 9

    @pytest.mark.parametrize("start", [False, True])
    @pytest.mark.parametrize(
        "kind, count, k, message",
        [
            (PolicyKind.RANDOM_K, 3, 4, "cannot rotate over k=4 of 3 platforms"),
            (PolicyKind.DIVERSITY, 3, 4, "policy requires k=4 distinct platforms, only 3 available"),
            (PolicyKind.UNIFORM, 1, 3, "migration without repeat needs at least two platforms"),
            # k = 2 is more than one platform can hold, and k < 2 is refused first
            (PolicyKind.DIVERSITY, 1, 2, "policy requires k=2 distinct platforms, only 1 available"),
            (PolicyKind.DIVERSITY, 1, 1, "diversity policy requires k >= 2"),
            (PolicyKind.DIVERSITY, 5, 1, "diversity policy requires k >= 2"),
            (PolicyKind.RANDOM_K, 5, 1, "random_k policy requires k >= 2"),
            (PolicyKind.RANDOM_K, 5, 0, "random_k policy requires k >= 2"),
        ],
        ids=[
            "random-k-k-above-pool",
            "diversity-k-above-pool",
            "uniform-one-platform",
            "diversity-one-platform",
            "diversity-one-platform-k1",
            "diversity-k1",
            "random-k-k1",
            "random-k-k0",
        ],
    )
    def test_unschedulable_pool_raises(self, kind, count, k, message, start):
        # unchecked, a random-k walk of k > N would list a bound 0, a random() draw, among its integers draws
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            walk_bounds(kind, count, k, 6, start)

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_smallest_pools_are_scheduled(self, kind):
        assert walk_bounds(kind, 2, 2, 3, start=True)


@pytest.mark.parametrize("kind", [PolicyKind.DIVERSITY, PolicyKind.UNIFORM])
@pytest.mark.parametrize("start", [-1, 5, None])
def test_start_out_of_range_rejected(five_platform_sim, kind, start):
    # as an index, -1 would start the walk on the last platform; None is no platform at all
    with pytest.raises(ValueError, match=f"start platform {start} out of range"):
        seeded_walks(kind, five_platform_sim, 3, 10, [start], 0)


class TestScheduleEqualsReference:
    """A walk drawn on ``substream(seed)`` equals the one-scalar-at-a-time oracle on that stream."""

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
        chosen = seeded_walks(kind, sim, k, steps, [start], seed)[0]
        assert chosen.tolist() == reference_schedule(kind.value, sim.distances(), k, start, steps, substream(seed))


class TestDetectPeriodicity:
    """The brute-force oracle that the ``schedule`` command's periodicity is checked against."""

    def test_constructed_trace(self):
        result = detect_periodicity([0, 1, 2, 1, 2, 1, 2], 3)
        assert result is not None
        assert (result.period, result.transient) == (2, 1)

    def test_pure_cycle(self):
        result = detect_periodicity([0, 1, 2] * 4, 3)
        assert (result.period, result.transient) == (3, 0)

    def test_constant_trace(self):
        result = detect_periodicity([7, 7, 7, 7], 3)
        assert (result.period, result.transient) == (1, 0)

    def test_random_trace_not_periodic(self):
        rng = np.random.default_rng(42)
        trace = rng.integers(0, 5, size=100).tolist()
        assert detect_periodicity(trace, 3) is None

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            detect_periodicity([1], 3)

    def test_insufficient_repeats_not_periodic(self):
        # only one full period visible after the transient
        assert detect_periodicity([0, 1, 2, 3, 4, 5], 3) is None

    def test_repeat_shorter_than_the_walk_state_is_no_period(self):
        # a 5-diversity step depends on the last 4 platforms: the repeated 4, 0 after
        # 2, 4, 0 proves nothing, and the trace's true cycle is 2, 4, 0, 4, 0
        trace = [2, 4, 0, 4, 0] * 6
        assert detect_periodicity(trace, 2) == Periodicity(period=2, transient=26)
        assert detect_periodicity(trace, 5) == Periodicity(period=5, transient=0)
        assert detect_periodicity(trace[:10], 5) == Periodicity(period=5, transient=0)


class TestNoAdjacentRepeats:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_all_policies(self, five_platform_sim, seed):
        # a walk from each start, on the streams (seed, start)
        starts = np.arange(5)
        for kind in PolicyKind:
            chosen = seeded_walks(kind, five_platform_sim, 3, 61, starts, seed, starts)
            assert (chosen[:, 1:] != chosen[:, :-1]).all()


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

    def test_family_matrix_walks_equal_scalar_traces(self, tmp_path):
        # the mc-wide shape: 48 platforms in 8 families, k = 4, every start in one batch
        path = tmp_path / "family.csv"
        path.write_text(wide_similarity_csv(0), encoding="utf-8")
        dist = load_similarity_matrix(path).distances()
        walked, _ = diversity_walks(dist, np.arange(48), 40, 4)
        assert walked.tolist() == [scalar_diversity_trace(dist, start, 40, 4) for start in range(48)]

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_row_choice_ignores_its_batch(self, width):
        # exact ties and non-metric triangles, so each row's tie-break and clamp is its own
        rng = np.random.default_rng(width)
        dist = self.random_sim(rng, 7, self.LEVELS["ties"]).distances()
        hist = np.array([rng.permutation(7)[:width] for _ in range(200)])
        alone = [_most_diverse(dist, row[None, :])[0] for row in hist]
        assert _most_diverse(dist, hist).tolist() == alone
        order = rng.permutation(len(hist))
        assert _most_diverse(dist, hist[order]).tolist() == [alone[row] for row in order]

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
    """The first column whose window of k - 1 platforms equals an earlier one, and its distance to it, or None."""
    seen = {}
    for step in range(k - 2, len(walk)):
        window = tuple(walk[step - k + 2 : step + 1])
        if window in seen:
            return step, step - seen[window]
        seen[window] = step
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
    """``diversity_walks`` stops once every window has repeated; its walks equal a walk scored every step.

    A row's period is the distance of its first repeated window, or 0 while
    Brent's search has not found it, as it always has by twice that
    window's step plus k.
    """

    @given(distance_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_stepped_walks(self, dist, data):
        count = len(dist)
        k = data.draw(st.integers(min_value=2, max_value=min(count, 6)))
        steps = data.draw(st.integers(min_value=1, max_value=300))
        starts = np.arange(count)
        walked, periods = diversity_walks(dist, starts, steps, k)
        expected = stepped_walks(dist, starts, steps, k)
        np.testing.assert_array_equal(walked, expected, strict=True)
        for walk, period in zip(expected.tolist(), periods.tolist()):
            step, distance = first_repeat(walk, k) or (steps, 0)
            assert period in (0, distance)
            assert period == distance or steps < 2 * step + k

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_fewer_steps_than_k(self, five_platform_sim, k):
        dist = five_platform_sim.distances()
        for steps in range(1, k):
            assert diversity_walks(dist, np.arange(5), steps, k)[0].tolist() == stepped_walks(
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
        assert first_repeat(expected[0].tolist(), 2) == (40, 2)
        walked, periods = diversity_walks(dist, np.arange(count), 300, 2)
        np.testing.assert_array_equal(walked, expected, strict=True)
        assert periods[0] == 2

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
        walked, _ = diversity_walks(five_platform_sim.distances(), np.arange(5), 100, k)
        assert len(scored) <= most
        assert walked.tolist() == stepped_walks(five_platform_sim.distances(), np.arange(5), 100, k).tolist()

    def test_walk_that_never_repeats_scores_every_step(self, five_platform_sim, scored):
        # with k = 5 the windows of steps 4 and 5 are each one step past their checkpoint,
        # and a walk never stays on a platform, so neither repeats
        _, periods = diversity_walks(five_platform_sim.distances(), np.arange(5), 6, 5)
        assert len(scored) == 5
        assert periods.tolist() == [0] * 5


class TestDiversityWalksShareTheirStart:
    """``walks`` walks each distinct diversity start once: every row of a start is that start's lone walk."""

    @given(distance_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_duplicate_starts_equal_lone_walks(self, dist, data):
        count = len(dist)
        k = data.draw(st.integers(min_value=2, max_value=min(count, 5)))
        steps = data.draw(st.integers(min_value=1, max_value=60))
        starts = data.draw(st.lists(st.integers(min_value=0, max_value=count - 1), min_size=1, max_size=20))
        walked, periods = walks(PolicyKind.DIVERSITY, dist, k, steps, np.empty((0, len(starts))), starts)
        assert walked.shape == (len(starts), steps)
        for start, walk, period in zip(starts, walked, periods):
            (alone,), (lone_period,) = walks(PolicyKind.DIVERSITY, dist, k, steps, np.empty((0, 1)), [start])
            np.testing.assert_array_equal(walk, alone, strict=True)
            assert period == lone_period
