"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to stream them).

Statistical targets for the five-platform study carry explicit
tolerances: the reference values are means over 500-trial runs whose
random seeds are unknown, so exact reproduction is not expected.
Criterion 07 is checked against a computed target instead: the exact
expected compromised fraction of the uniform policy, enumerated over the
fixture's labelings by ``oracles.exact_uniform_mean_compromised_fraction``,
within 4 standard errors of the 500-trial mean.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from diversity_lab import (
    ExploitSpec,
    MarkovParams,
    PolicyKind,
    RepeatMode,
    ScenarioConfig,
    choose,
    detect_periodicity,
    expected_time_to_compromise,
    p_success_aggregate,
    run_length_chain,
    run_scenario_study,
    schedule,
    steady_state,
)
from diversity_lab.cli import main as cli_main
from oracles import (
    exact_uniform_mean_compromised_fraction,
    power_iteration_stationary,
    simulate_hitting_times,
    triangle_area_from_sides,
)

WITHOUT = RepeatMode.WITHOUT_REPEAT


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {status}{suffix}")
    return ok


def test_criterion_01_aggregate_worked_example():
    value = p_success_aggregate(3, 2, 2, "0.5", strict=True)
    ok = value == 0.30
    assert report(1, "aggregate subselection 3-of-5 equals 0.30", ok, f"value={value}")


def test_criterion_02_conditional_probability_formulas():
    failures = []
    for m, n in itertools.product(range(6), range(6)):
        if m + n < 2:
            continue
        params = MarkovParams(m, n, WITHOUT)
        # the conditional is defined only when its source state is reachable
        expected_vv = (m - 1) / (m + n - 1) if m >= 1 else 0.0
        expected_ii = (n - 1) / (m + n - 1) if n >= 1 else 0.0
        if params.p_vv != expected_vv or params.p_ii != expected_ii:
            failures.append((m, n))
    assert report(2, "no-repeat conditional probabilities exact", not failures, f"failures={failures}")


def test_criterion_03_steady_state_matches_closed_form_and_power_iteration():
    worst_closed = 0.0
    worst_power = 0.0
    for m, n, k in itertools.product(range(1, 5), range(1, 5), range(2, 6)):
        params = MarkovParams(m, n, WITHOUT)
        chain = run_length_chain(params, k)
        vec = steady_state(chain)
        p_v, p_vv = params.p_vulnerable, params.p_vv
        closed = np.zeros(k + 1)
        closed[0] = n / (m + n)
        for r in range(1, k):
            # a_v * p_vv^r, rearranged to stay finite when p_vv = 0
            closed[r] = p_v * (1.0 - p_vv) * p_vv ** (r - 1)
        closed[k] = p_v * p_vv ** (k - 1)
        worst_closed = max(worst_closed, float(np.max(np.abs(vec - closed))))
        worst_power = max(
            worst_power, float(np.max(np.abs(vec - power_iteration_stationary(chain.matrix))))
        )
    ok = worst_closed < 1e-10 and worst_power < 1e-10
    assert report(
        3,
        "stationary solver matches closed form and power iteration",
        ok,
        f"closed={worst_closed:.2e} power={worst_power:.2e}",
    )


def test_criterion_04_expected_compromise_time_matches_random_walks():
    exact = expected_time_to_compromise(MarkovParams(1, 1, WITHOUT), 1)
    ok = exact == 1.5
    details = [f"(1,1,k=1)={exact}"]
    for m, n in [(3, 2), (2, 3), (4, 1)]:
        for k in (2, 3):
            params = MarkovParams(m, n, WITHOUT)
            predicted = expected_time_to_compromise(params, k)
            rng = np.random.default_rng(np.random.SeedSequence((404, m, n, k)))
            observed = simulate_hitting_times(m, n, k, 1_000_000, rng).mean()
            rel = abs(predicted - observed) / predicted
            details.append(f"({m},{n},k={k}) rel={rel:.4f}")
            ok = ok and rel < 0.01
    assert report(4, "expected compromise time within 1% of walk oracle", ok, " ".join(details))


def test_criterion_05_mean_vulnerable_fractions(default_study):
    targets = {"diversity": 0.493, "uniform": 0.541, "random_k": 0.539}
    details = []
    ok = True
    for name, target in targets.items():
        mean = default_study[name].mean_vulnerable_fraction
        details.append(f"{name}={mean:.4f} (target {target}±0.03)")
        ok = ok and abs(mean - target) <= 0.03
    assert report(5, "mean vulnerable fractions reproduce study table", ok, " ".join(details))


def test_criterion_06_compromise_incidence(default_study):
    diversity = default_study["diversity"]
    uniform = default_study["uniform"]
    d_inc = diversity.compromise_incidence
    u_inc = uniform.compromise_incidence
    late = diversity.time_to_first_compromise[diversity.time_to_first_compromise > 6].tolist()
    ok = d_inc <= 0.05 and u_inc >= 0.70 and not late
    assert report(
        6,
        "compromise incidence: diversity <= 5%, uniform >= 70%, diversity hits early",
        ok,
        f"diversity={d_inc:.3f} uniform={u_inc:.3f} late_hits={late}",
    )


def test_criterion_07_mean_compromised_fraction(default_study, five_platform_sim):
    diversity = default_study["diversity"].mean_compromised_fraction
    uniform_metrics = default_study["uniform"]
    samples = uniform_metrics.compromised_fraction
    uniform = float(samples.mean())
    stderr = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    # Exact expectation of the documented model: uniform no-repeat moves
    # and an interval compromised when its k most recent intervals were all
    # vulnerable. On the fixture (100 intervals, k=3) it is 0.18934; the
    # with-repeat convention gives 0.2371 and counting whole runs >= k gives
    # about 0.312, both outside the 4-SE band at seed 0 (about ±0.035).
    # Of the three, only with-repeat lands in the former reference band
    # 0.26±0.05, which may be where that figure came from; the paper's
    # abstract does not say which convention it used, so its source stays
    # unsettled.
    exact = exact_uniform_mean_compromised_fraction(
        five_platform_sim.scores, uniform_metrics.intervals, uniform_metrics.k
    )
    ok_diversity = diversity <= 0.05
    ok_uniform = abs(uniform - exact) <= 4.0 * stderr
    report(
        7,
        "mean compromised fraction: uniform within 4 SE of the exact no-repeat "
        "sliding-window value, diversity <= 0.05",
        ok_diversity and ok_uniform,
        f"uniform={uniform:.4f} exact={exact:.5f} bound=±{4.0 * stderr:.4f} "
        f"z={(uniform - exact) / stderr:+.2f} diversity={diversity:.4f}; "
        "other conventions: with-repeat 0.2371, whole-run ~0.312; "
        "source of the old 0.26 reference unsettled",
    )
    assert ok_diversity, f"diversity mean compromised fraction {diversity:.4f} exceeds 0.05"
    assert ok_uniform, (
        f"uniform mean compromised fraction {uniform:.4f} is more than 4 SE "
        f"({4.0 * stderr:.4f}) from the exact expectation {exact:.5f}"
    )


def test_criterion_08_diversity_schedule_periodicity(five_platform_sim):
    dist = five_platform_sim.distances()
    best_triple = max(
        itertools.combinations(range(5), 3),
        key=lambda t: triangle_area_from_sides(
            dist[t[0], t[1]], dist[t[0], t[2]], dist[t[1], t[2]]
        ),
    )
    details = []
    ok = True
    for start in range(5):
        trace = schedule(PolicyKind.DIVERSITY, five_platform_sim, 3, start, 30, None).tolist()
        periodicity = detect_periodicity(trace)
        triple = frozenset(trace[-3:])
        good = (
            periodicity is not None
            and periodicity.period == 3
            and periodicity.transient <= 3
            and triple == frozenset(best_triple)
        )
        ok = ok and good
        details.append(
            f"start={start}:{'ok' if good else f'period={periodicity} triple={sorted(triple)}'}"
        )
    assert report(
        8,
        "diversity schedule periodic with the max-area triple from every start",
        ok,
        f"best_triple={sorted(best_triple)} " + " ".join(details),
    )


def test_criterion_09_scenario_asymptotics_and_step():
    goal = 1.05 * 25.0  # just above the mean migration delay
    base = dict(n_values=(3,), duration=900.0, delay=(20.0, 30.0), samples=1000)

    one_vulnerable = ScenarioConfig(
        t_values=(goal,),
        exploits=(ExploitSpec(frozenset({0}), arrival=0.0),),
        master_seed=901,
        **base,
    )
    frac_one = run_scenario_study(one_vulnerable)[0].success_fraction
    # any-platform-vulnerable oracle: the one vulnerable platform is in the
    # rotation, so as soon as a single dwell can contain the goal the
    # attacker eventually wins
    ok_one = abs(frac_one - 1.0) <= 0.05

    all_vulnerable = ScenarioConfig(
        t_values=(goal,),
        exploits=(ExploitSpec(frozenset({0, 1, 2})),),
        master_seed=902,
        **base,
    )
    frac_all = run_scenario_study(all_vulnerable)[0].success_fraction
    window_line = (900.0 - goal) / 900.0
    ok_all = abs(frac_all - window_line) <= 0.05

    sweep = ScenarioConfig(
        t_values=(15.0, 20.0, 25.0, 30.0, 35.0),
        exploits=(ExploitSpec(frozenset({0}), arrival=0.0),),
        master_seed=903,
        **base,
    )
    fractions = [point.success_fraction for point in run_scenario_study(sweep)]
    drops = [a - b for a, b in zip(fractions, fractions[1:])]
    boundary_drop = drops[2]  # T crossing 25 -> 30, one mean migration period
    samples = sweep.samples
    p_hi, p_lo = fractions[2], fractions[3]
    stderr = math.sqrt(
        p_hi * (1 - p_hi) / samples + p_lo * (1 - p_lo) / samples
    )
    ok_step = boundary_drop > max(0.25, 5.0 * stderr) and boundary_drop >= max(drops)

    ok = ok_one and ok_all and ok_step
    assert report(
        9,
        "scenario asymptotics and fractional-effect step",
        ok,
        f"one_vuln={frac_one:.3f}(→1.0) all_vuln={frac_all:.3f}(→{window_line:.3f}) "
        f"sweep={['%.3f' % f for f in fractions]}",
    )


def test_criterion_10_property_suites(five_platform_sim, default_study, tmp_path):
    # Pascal identity, exhaustively over 1 <= y < x <= 64
    pascal_ok = all(
        choose(x, y) == choose(x - 1, y - 1) + choose(x - 1, y)
        for x in range(2, 65)
        for y in range(1, x)
    )

    # hypergeometric total mass is exactly 1
    mass_ok = True
    for m, n in itertools.product(range(7), range(7)):
        if m + n == 0:
            continue
        for j in range(1, m + n + 1):
            total = sum(
                Fraction(choose(m, i) * choose(n, j - i), choose(m + n, j))
                for i in range(max(0, j - n), min(m, j) + 1)
            )
            mass_ok = mass_ok and total == 1

    # no policy trace ever repeats a platform in adjacent intervals
    repeat_ok = True
    rng = np.random.default_rng(1010)
    for kind in (PolicyKind.DIVERSITY, PolicyKind.UNIFORM, PolicyKind.RANDOM_K):
        for _ in range(10):
            start = None if kind is PolicyKind.RANDOM_K else int(rng.integers(5))
            chosen = schedule(kind, five_platform_sim, 3, start, 81, rng)
            repeat_ok = repeat_ok and all(a != b for a, b in zip(chosen, chosen[1:]))

    # compromised fraction never exceeds vulnerable fraction
    bound_ok = all(
        (metrics.compromised_fraction <= metrics.vulnerable_fraction).all()
        for metrics in default_study.values()
    )

    # a manifest rerun reproduces every output byte for byte
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli_main(
        ["mc", "--trials", "30", "--intervals", "30", "--seed", "77", "--outdir", str(first)]
    ) == 0
    assert cli_main(
        ["mc", "--from-manifest", str(first / "run_manifest.json"), "--outdir", str(second)]
    ) == 0
    rerun_ok = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in (
            "metrics.json",
            "run_manifest.json",
            "cdf_vulnerable.csv",
            "cdf_ttc.csv",
            "cdf_compromised.csv",
        )
    )

    ok = pascal_ok and mass_ok and repeat_ok and bound_ok and rerun_ok
    assert report(
        10,
        "property suites (combinatorics, policies, metrics, reproducibility)",
        ok,
        f"pascal={pascal_ok} mass={mass_ok} no_repeat={repeat_ok} "
        f"bound={bound_ok} rerun={rerun_ok}",
    )
