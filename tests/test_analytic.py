import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diversity_lab.analytic import MAX_AGGREGATE_PLATFORMS
from diversity_lab.scheduler import uniform_walks
from diversity_lab.simulator import compute_metrics
from diversity_lab import (
    MarkovParams,
    RepeatMode,
    choose,
    expected_control_fraction,
    expected_time_to_compromise,
    p_success_aggregate,
    p_success_finite_window,
    steady_state,
)
from oracles import (
    closed_form_stationary,
    pascal_choose,
    power_iteration_stationary,
    run_length_matrix,
    simulate_control_fraction,
    simulate_hitting_times,
)

WITHOUT = RepeatMode.WITHOUT_REPEAT
WITH = RepeatMode.WITH_REPEAT


class TestChoose:
    def test_known_values(self):
        assert choose(5, 2) == 10
        assert choose(7, 0) == 1
        assert choose(40, 20) == pascal_choose(40, 20) == 137846528820

    def test_domain(self):
        with pytest.raises(ValueError):
            choose(3, 4)
        with pytest.raises(ValueError):
            choose(-1, 0)
        with pytest.raises(ValueError):
            choose(3, -1)

    @given(st.data())
    def test_pascal_identity(self, data):
        x = data.draw(st.integers(min_value=2, max_value=64))
        y = data.draw(st.integers(min_value=1, max_value=x - 1))
        assert choose(x, y) == choose(x - 1, y - 1) + choose(x - 1, y)


class TestMarkovParams:
    def test_without_repeat_conditionals(self):
        params = MarkovParams(3, 2, WITHOUT)
        assert params.p_vulnerable == 0.6
        assert params.p_vv == 0.5
        assert params.p_ii == 0.25

    def test_with_repeat_conditionals(self):
        params = MarkovParams(3, 2, WITH)
        assert params.p_vv == 0.6
        assert params.p_ii == 0.4

    def test_forced_alternation(self):
        params = MarkovParams(1, 1, WITHOUT)
        assert params.p_vv == 0.0
        assert params.p_ii == 0.0

    def test_impossible_conditions_are_zero(self):
        assert MarkovParams(0, 5, WITHOUT).p_vv == 0.0
        assert MarkovParams(5, 0, WITHOUT).p_ii == 0.0

    def test_without_repeat_needs_two_platforms(self):
        with pytest.raises(ValueError):
            MarkovParams(1, 0, WITHOUT)
        MarkovParams(1, 0, WITH)  # allowed with repeat

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            MarkovParams(-1, 3)

    def test_no_repeat_reduces_persistence(self):
        for m in range(1, 6):
            for n in range(1, 6):
                assert MarkovParams(m, n, WITHOUT).p_vv < MarkovParams(m, n, WITH).p_vv


def brute_force_aggregate(m, n, j, p, strict):
    """Enumerate every j-subset of m vulnerable + n invulnerable platforms."""
    platforms = list(range(m + n))
    wins = 0
    total = 0
    for subset in itertools.combinations(platforms, j):
        total += 1
        share = Fraction(sum(1 for s in subset if s < m), j)
        if (share > Fraction(p)) if strict else (share >= Fraction(p)):
            wins += 1
    return wins / total


class TestAggregateSuccess:
    def test_worked_example(self):
        assert p_success_aggregate(3, 2, 2, "0.5", strict=True) == 0.30

    def test_no_vulnerable_platforms(self):
        assert p_success_aggregate(0, 5, 3, "0.5") == 0.0

    def test_against_enumeration(self):
        for m, n, j, p, strict in [
            (3, 2, 4, "0.5", True),
            (3, 2, 2, "0.5", True),
            (3, 2, 2, "0.5", False),
            (4, 3, 5, "0.6", False),
            (2, 5, 3, "1", False),
            (5, 1, 6, "0.25", True),
        ]:
            expected = brute_force_aggregate(m, n, j, p, strict)
            assert p_success_aggregate(m, n, j, p, strict=strict) == pytest.approx(expected, abs=1e-15)

    def test_strictness_matters_only_at_integral_threshold(self):
        # p*j integral: strict excludes the exactly-p outcome
        assert p_success_aggregate(3, 2, 2, "0.5", strict=False) > p_success_aggregate(
            3, 2, 2, "0.5", strict=True
        )
        # p*j non-integral: both readings coincide
        assert p_success_aggregate(3, 2, 3, "0.5", strict=False) == p_success_aggregate(
            3, 2, 3, "0.5", strict=True
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            p_success_aggregate(3, 2, 0, "0.5")
        with pytest.raises(ValueError):
            p_success_aggregate(3, 2, 6, "0.5")
        with pytest.raises(ValueError):
            p_success_aggregate(3, 2, 2, "0")
        with pytest.raises(ValueError):
            p_success_aggregate(3, 2, 2, "1.5")

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
        st.data(),
    )
    def test_equals_sum_of_fractions(self, m, n, data):
        # the integer ratio recurrence gives the exact rational of the term-by-term sum
        if m + n == 0:
            return
        j = data.draw(st.integers(min_value=1, max_value=m + n))
        p = data.draw(st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100))
        strict = data.draw(st.booleans())
        threshold = p * j
        lowest = int(threshold) + 1 if strict and threshold.denominator == 1 else math.ceil(threshold)
        mass = Fraction(0)
        for i in range(max(lowest, j - n), min(m, j) + 1):
            mass += Fraction(choose(m, i) * choose(n, j - i), choose(m + n, j))
        assert p_success_aggregate(m, n, j, p, strict=strict) == float(mass)

    def test_platform_bound(self):
        assert p_success_aggregate(MAX_AGGREGATE_PLATFORMS, 0, 2, "0.5") == 1.0
        assert p_success_aggregate(1, MAX_AGGREGATE_PLATFORMS - 1, 1, "1") == 1 / MAX_AGGREGATE_PLATFORMS
        with pytest.raises(ValueError, match="exceeds 40000"):
            p_success_aggregate(MAX_AGGREGATE_PLATFORMS, 1, 2, "0.5")

    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.data(),
    )
    def test_hypergeometric_total_mass(self, m, n, data):
        if m + n == 0:
            return
        j = data.draw(st.integers(min_value=1, max_value=m + n))
        total = Fraction(0)
        for i in range(max(0, j - n), min(m, j) + 1):
            total += Fraction(choose(m, i) * choose(n, j - i), choose(m + n, j))
        assert total == 1


def accepted_params(counts):
    """Every ``MarkovParams`` of both repeat modes with m and n drawn from ``counts``."""
    for mode, m, n in itertools.product(RepeatMode, counts, counts):
        if m + n >= (1 if mode is WITH else 2):
            yield MarkovParams(m, n, mode)


class TestRunLengthChain:
    def test_forced_alternation_matrix(self):
        matrix = run_length_matrix(MarkovParams(1, 1, WITHOUT), 1)
        assert np.array_equal(matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_explicit_three_state_matrix(self):
        matrix = run_length_matrix(MarkovParams(3, 2, WITHOUT), 2)
        expected = np.array([[0.25, 0.75, 0.0], [0.5, 0.0, 0.5], [0.5, 0.0, 0.5]])
        assert np.allclose(matrix, expected, atol=1e-15)

    @given(st.sampled_from(list(accepted_params(range(7)))), st.integers(min_value=1, max_value=6))
    def test_rows_are_stochastic(self, params, k):
        matrix = run_length_matrix(params, k)
        assert matrix.shape == (k + 1, k + 1)
        assert np.all(np.abs(matrix.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all((matrix >= 0.0) & (matrix <= 1.0))


class TestSteadyState:
    def test_leading_entry(self):
        assert steady_state(MarkovParams(3, 2, WITHOUT), 2).tolist() == [0.4, 0.3, 0.3]

    def test_never_vulnerable(self):
        assert steady_state(MarkovParams(0, 5, WITHOUT), 3).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_k_validation(self):
        with pytest.raises(ValueError, match="run length k must be >= 1"):
            steady_state(MarkovParams(3, 2, WITHOUT), 0)

    def test_matches_power_iteration(self):
        # both repeat modes; m = 0, n = 0 and MarkovParams(1, 0, WITH) included
        for params, k in itertools.product(accepted_params(range(6)), range(1, 7)):
            oracle = power_iteration_stationary(run_length_matrix(params, k))
            assert np.max(np.abs(steady_state(params, k) - oracle)) < 1e-10, (params, k)

    def test_matches_closed_form(self):
        for params, k in itertools.product(accepted_params(range(5)), range(1, 6)):
            vec = steady_state(params, k)
            assert np.max(np.abs(vec - closed_form_stationary(params, k))) < 1e-15, (params, k)

    @given(st.sampled_from(list(accepted_params(range(6)))), st.integers(min_value=1, max_value=5))
    @example(MarkovParams(0, 4, WITH), 3)
    @example(MarkovParams(4, 0, WITHOUT), 3)
    @example(MarkovParams(1, 0, WITH), 1)
    def test_distribution_properties(self, params, k):
        vec = steady_state(params, k)
        assert abs(vec.sum() - 1.0) <= 1e-10
        assert np.all(vec >= 0.0)
        assert np.max(np.abs(vec @ run_length_matrix(params, k) - vec)) <= 1e-12


def quotient_form_control_fraction(params: MarkovParams, k: int) -> float:
    """Literal quotient form of the long-run control fraction.

    One minus the defender share, with the partial-run sum written out
    term by term. Valid only for 0 < p_vv < 1 and p_ii < 1.
    """
    p_vv, p_ii = params.p_vv, params.p_ii
    invuln_stay = 1.0 / (1.0 - p_ii)
    vuln_stay = 1.0 / (1.0 - p_vv)
    partial = sum(i * p_vv ** (i - 1) for i in range(1, k))
    return 1.0 - (invuln_stay + (1.0 - p_vv) * partial) / (invuln_stay + vuln_stay)


class TestExpectedControlFraction:
    def test_k_one_is_vulnerable_fraction(self):
        assert expected_control_fraction(MarkovParams(3, 2, WITHOUT), 1) == 0.6

    def test_no_vulnerable_platforms(self):
        assert expected_control_fraction(MarkovParams(0, 5, WITHOUT), 3) == 0.0

    def test_equals_quotient_form(self):
        for m, n, k in itertools.product(range(2, 6), range(1, 6), range(1, 6)):
            params = MarkovParams(m, n, WITHOUT)
            if not 0.0 < params.p_vv < 1.0:
                continue
            assert expected_control_fraction(params, k) == pytest.approx(
                quotient_form_control_fraction(params, k), abs=1e-12
            )

    def test_steady_state_cross_validation(self):
        # control fraction == mass at full runs plus earlier run positions
        # weighted by their probability of completing the run
        for m, n, k in [(3, 2, 3), (2, 3, 2), (4, 1, 4), (3, 3, 5)]:
            params = MarkovParams(m, n, WITHOUT)
            vec = steady_state(params, k)
            weighted = vec[k] + sum(vec[r] * params.p_vv ** (k - r) for r in range(1, k))
            assert expected_control_fraction(params, k) == pytest.approx(weighted, abs=1e-10)

    def test_against_long_walk(self):
        params = MarkovParams(3, 2, WITHOUT)
        rng = np.random.default_rng(2024)
        observed = simulate_control_fraction(3, 2, 3, 1_000_000, rng)
        assert abs(expected_control_fraction(params, 3) - observed) < 0.005

    def test_within_unit_interval(self):
        for m, n, k in itertools.product(range(0, 5), range(0, 5), range(1, 6)):
            if m + n < 2:
                continue
            value = expected_control_fraction(MarkovParams(m, n, WITHOUT), k)
            assert 0.0 <= value <= 1.0


class TestWindowsAgainstWholeRuns:
    """The Monte Carlo study and ``expected_control_fraction`` count control differently.

    On a fixed labeling with the first m of N platforms vulnerable, a no-repeat
    uniform walk's vulnerable intervals follow the chain of ``MarkovParams(m, N − m)``.
    ``compute_metrics`` counts each interval that ends k vulnerable ones, a
    long-run rate of p_v·p_vv^(k−1); ``expected_control_fraction`` counts every
    interval of a vulnerable run of at least k, which multiplies that rate by
    k − (k−1)·p_vv. Both are checked on one walk of 200,000 intervals at |z| < 4,
    with the standard error of the means of 100 batches of 2,000 intervals.
    """

    BATCHES, LENGTH = 100, 2_000

    @pytest.mark.parametrize("m, n, k, seed", [(3, 2, 3, 2028), (2, 4, 2, 2029)])
    def test_one_walk_counted_both_ways(self, m, n, k, seed):
        params, steps = MarkovParams(m, n, WITHOUT), self.BATCHES * self.LENGTH
        rng = np.random.default_rng(seed)
        (walk,) = uniform_walks(rng.integers(m + n, size=1), rng.integers(m + n - 1, size=(1, steps - 1)))
        vulnerable = walk < m
        # windows: the batches drop the k − 1 windows that cross into them, a bias of
        # (k − 1)/2,000 of the rate, under a fifth of its standard error
        windows = compute_metrics(vulnerable.reshape(self.BATCHES, self.LENGTH), k).compromised_fraction
        # whole runs, found on the uncut walk: an interval counts when its run reaches k
        edges = np.flatnonzero(np.diff(np.concatenate([[0], vulnerable.view(np.int8), [0]])))
        starts, stops = edges[::2], edges[1::2]
        long = stops - starts >= k
        depth = np.zeros(steps + 1, np.intp)
        np.add.at(depth, starts[long], 1)
        np.add.at(depth, stops[long], -1)
        runs = (np.cumsum(depth[:-1]) > 0).reshape(self.BATCHES, self.LENGTH).mean(axis=1)
        rate = params.p_vulnerable * params.p_vv ** (k - 1)
        assert expected_control_fraction(params, k) == pytest.approx(rate * (k - (k - 1) * params.p_vv), rel=1e-12)
        for batches, expected in ((windows, rate), (runs, expected_control_fraction(params, k))):
            standard_error = batches.std(ddof=1) / math.sqrt(self.BATCHES)
            assert abs(batches.mean() - expected) < 4 * standard_error
        # the two counts differ by far more than their errors
        assert runs.mean() - windows.mean() > 10 * runs.std(ddof=1) / math.sqrt(self.BATCHES)


class TestExpectedTimeToCompromise:
    def test_forced_alternation_k1(self):
        assert expected_time_to_compromise(MarkovParams(1, 1, WITHOUT), 1) == 1.5

    def test_run_of_two_impossible(self):
        assert expected_time_to_compromise(MarkovParams(1, 1, WITHOUT), 2) == math.inf

    def test_no_vulnerable_platform(self):
        assert expected_time_to_compromise(MarkovParams(0, 5, WITHOUT), 1) == math.inf

    def test_all_vulnerable_is_exactly_k(self):
        assert expected_time_to_compromise(MarkovParams(3, 0, WITHOUT), 4) == 4.0

    def test_known_value(self):
        # first-step analysis for m=3, n=2, k=2 gives 73/15
        value = expected_time_to_compromise(MarkovParams(3, 2, WITHOUT), 2)
        assert value == pytest.approx(73 / 15, abs=1e-12)

    def test_against_hitting_time_walks(self):
        params = MarkovParams(3, 2, WITHOUT)
        rng = np.random.default_rng(77)
        times = simulate_hitting_times(3, 2, 2, 200_000, rng)
        expected = expected_time_to_compromise(params, 2)
        assert abs(expected - times.mean()) / expected < 0.02

    def test_nondecreasing_in_k(self):
        for m, n in itertools.product(range(1, 5), range(0, 5)):
            if m + n < 2:
                continue
            params = MarkovParams(m, n, WITHOUT)
            values = [expected_time_to_compromise(params, k) for k in range(1, 7)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            expected_time_to_compromise(MarkovParams(3, 2, WITHOUT), 0)

    @pytest.mark.parametrize("k", [1023, 1024, 1025])
    def test_past_the_float_range_is_inf(self, k):
        # with p_vv = 0.5 the expectation about doubles per step of k: it is the last finite
        # double's size at k = 1023, past the float range at k = 1024, and at k = 1025
        # p_vv ** (1 - k) alone overflows, which used to raise OverflowError
        params = MarkovParams(3, 2, WITHOUT)
        value = expected_time_to_compromise(params, k)
        if k == 1023:
            assert value == pytest.approx(2 * expected_time_to_compromise(params, 1022), rel=1e-12)
            assert value > 1e308
        else:
            assert value == math.inf


class TestFiniteWindow:
    def test_no_slack(self):
        assert p_success_finite_window(900, 900, 900) == 0.0

    def test_near_zero_requirement(self):
        assert p_success_finite_window(900, 1e-9, 900) == pytest.approx(1.0, abs=1e-9)

    def test_one_third_slack(self):
        assert p_success_finite_window(900, 300, 900) == pytest.approx(2 / 3, abs=1e-15)

    def test_clamps(self):
        assert p_success_finite_window(900, 1200, 900) == 0.0
        assert p_success_finite_window(900, 100, 1.0) == 1.0

    def test_against_uniform_start_draws(self):
        rng = np.random.default_rng(5)
        starts = rng.uniform(0.0, 900.0, size=200_000)
        observed = np.mean(starts <= 900.0 - 300.0)
        assert abs(p_success_finite_window(900, 300, 900) - observed) < 0.005

    def test_nonpositive_inputs_rejected(self):
        for d, a, s in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 1, 1)]:
            with pytest.raises(ValueError):
                p_success_finite_window(d, a, s)
