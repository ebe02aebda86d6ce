import argparse
import codecs
import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diversity_lab
from diversity_lab import (
    McConfig,
    MarkovParams,
    PolicyKind,
    SimilarityMatrix,
    bundled_similarity_path,
    expected_time_to_compromise,
    load_similarity_matrix,
)
from diversity_lab.cli import (
    MAX_STEPS,
    MAX_SWEEP_POINTS,
    _json_pieces,
    _mirror_texts,
    _parse_t_values,
    _write_json,
    main,
)
from diversity_lab.rng import substream
from diversity_lab.scenario import MAX_STAYS, ExploitSpec, ScenarioConfig
from diversity_lab.simulator import EmpiricalCdf
from diversity_lab.scheduler import walks
from conftest import wide_similarity_csv
from oracles import detect_periodicity, max_control_run, reference_schedule


PLATFORM_LIMIT = "platform counts must be between 1 and 10000"


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def jsonable(value):
    """The JSON artifacts' former encoding step: containers as lists and dicts, ±inf as "Infinity"."""
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, float) and math.isinf(value):
        return "Infinity"
    return value


edge_floats = st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308])
json_numbers = (
    st.integers(-(10**400), 10**400)
    | st.integers(2**53, 2**64)
    | st.floats()
    | edge_floats
    | st.floats().map(np.float64)
)
json_strings = st.text() | st.sampled_from([", ", "[", "]", '"', "a, [b]", 'say "hi"', "Müller", "日本語", "\n"])
json_leaves = json_numbers | json_strings | st.booleans() | st.none()
#: lists that the writer joins in one pass, mixed in with everything else
flat_lists = (
    st.lists(st.floats(allow_nan=False, allow_infinity=False) | edge_floats)
    | st.lists(st.integers(-(10**400), 10**400))
    | st.lists(json_strings)
)
json_values = st.recursive(
    json_leaves | flat_lists,
    lambda children: st.lists(children, max_size=6)
    | st.lists(children, max_size=6).map(tuple)
    | st.dictionaries(json_strings, children, max_size=6),
    max_leaves=40,
)


def json_text(value) -> str:
    return "".join(_json_pieces(value))


class TestJsonWriter:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(json_values)
    def test_text_equals_json_dumps(self, value):
        assert json_text(value) == json.dumps(jsonable(value), indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value, text",
        [
            ([], "[]"),
            ({}, "{}"),
            ({"a": [1.5, math.inf, -math.inf, math.nan]}, '{\n  "a": [\n    1.5,\n    "Infinity",\n    "Infinity",\n    NaN\n  ]\n}'),
            ([True, 1, None, "x"], '[\n  true,\n  1,\n  null,\n  "x"\n]'),
            ((np.float64(0.1), 10**400), f'[\n  0.1,\n  {10**400}\n]'),
        ],
        ids=["empty-list", "empty-dict", "infinities", "mixed", "numpy-and-huge-int"],
    )
    def test_examples(self, value, text):
        assert json_text(value) == text

    def test_file_of_lists_longer_than_one_piece(self, tmp_path):
        # flat lists are joined 4,096 items to a piece: each finite one here spans two or three pieces
        payload = {
            "floats": [0.1 * i for i in range(9000)],
            "ints": list(range(4097)),
            "strs": [str(i) for i in range(8193)],
            "nested": [[], {}, [1.5] * 4097, {"a": list(range(5000))}],
        }
        _write_json(tmp_path / "out.json", payload | {"inf": [1.0] * 4096 + [math.inf, -math.inf]})
        expected = json.dumps(payload | {"inf": [1.0] * 4096 + ["Infinity"] * 2}, indent=2, sort_keys=True)
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == expected + "\n"


#: Scores whose text or arithmetic is easy to get wrong: the extremes, the least subnormal and inexact sums.
EDGE_SCORES = np.array([0.0, 1.0, 5e-324, 1e-05, 1 / 3, 0.1 + 0.2])


@st.composite
def similarity_matrices(draw):
    """A valid similarity matrix of 1 to 60 platforms, scores from ``EDGE_SCORES`` or uniform.

    Its lower triangle may differ from the upper by up to the symmetry tolerance, and a zero there may be -0.0.
    """
    count = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = rng.random((count, count)) < draw(st.floats(0.0, 1.0))
    upper = np.triu(np.where(edge, rng.choice(EDGE_SCORES, (count, count)), rng.random((count, count))), k=1)
    lower = upper.T.copy()
    if draw(st.booleans()):
        lower = np.clip(lower + np.tril(rng.uniform(-1e-13, 1e-13, (count, count)), k=-1), 0.0, 1.0)
    lower[lower == 0.0] = -0.0
    return SimilarityMatrix(tuple(f"p{i}" for i in range(count)), upper + np.tril(lower, k=-1) + np.eye(count))


class TestManifestWriter:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(similarity_matrices())
    def test_mirrored_scores_give_the_json_dumps_text(self, sim):
        # one repr per upper-triangle score is enough only if the stored matrix is bitwise symmetric
        scores = sim.scores
        assert np.array_equal(scores.view(np.uint64), scores.T.view(np.uint64))
        manifest = {"command": "mc", "version": diversity_lab.__version__, **McConfig().to_manifest(sim)}
        expected = json.dumps(manifest, indent=2, sort_keys=True)
        similarity = manifest["similarity"] | {"scores": _mirror_texts(manifest["similarity"]["scores"])}
        assert json_text(manifest | {"similarity": similarity}) == expected
        assert json.dumps(manifest, indent=2, sort_keys=True) == expected  # the manifest itself is left as it was


def csv_writer_text(header, rows) -> str:
    """The text that ``csv.writer`` writes for ``header`` and ``rows``."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


probabilities = st.lists(st.floats(0.0, 1.0), max_size=30)
any_floats = st.floats() | st.sampled_from([-0.0, 5e-324, 1e-05, 1e300, 0.1 + 0.2])
#: attacker goals that a scenario manifest accepts: finite, non-negative floats (-0.0 too) and ints
manifest_goals = (
    st.floats(min_value=0.0, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e-05, 1e300, 0.1 + 0.2])
    | st.integers(0, 10**6)
)


class TestCsvWriters:
    """Each CSV artifact holds the bytes ``csv.writer`` writes for its rows."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.permutations(list(PolicyKind)), st.integers(1, 3), st.data())
    def test_cdf_files(self, tmp_path_factory, kinds, count, data):
        curves = {}
        for kind in kinds[:count]:
            for name in ("vulnerable", "ttc", "compromised"):
                probs = data.draw(probabilities)
                values = data.draw(st.lists(any_floats, min_size=len(probs), max_size=len(probs)))
                curves[kind.value, name] = EmpiricalCdf(tuple(values), tuple(probs))
        study = {
            policy: SimpleNamespace(
                trials=1, intervals=2, k=2, mean_vulnerable_fraction=0.0, mean_compromised_fraction=0.0,
                compromise_incidence=0.0, mean_time_to_first_compromise=None,
                cdf_vulnerable_fraction=lambda policy=policy: curves[policy, "vulnerable"],
                cdf_time_to_first_compromise=lambda policy=policy: curves[policy, "ttc"],
                cdf_compromised_fraction=lambda policy=policy: curves[policy, "compromised"],
            )
            for policy, _ in curves
        }
        outdir = tmp_path_factory.mktemp("cdf")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("diversity_lab.simulator.run_mc_study", lambda config, sim: study)
            assert main(["mc", "--outdir", str(outdir)]) == 0
        for name in ("vulnerable", "ttc", "compromised"):
            rows = [
                [policy, repr(float(value)), repr(float(prob))]
                for policy in study
                for value, prob in zip(curves[policy, name].values, curves[policy, name].probs)
            ]
            expected = csv_writer_text(["policy", "value", "cumulative_probability"], rows)
            assert (outdir / f"cdf_{name}.csv").read_bytes() == expected.encode("utf-8")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1, 10_000), min_size=1, max_size=6),
        st.lists(manifest_goals, min_size=1, max_size=30),
        st.integers(1, 10**8),
        st.data(),
    )
    def test_success_fraction_file(self, tmp_path_factory, n_values, t_values, samples, data):
        # the grid comes from a patched study, so the manifest's N values, goals and samples need not be run
        fractions = st.lists(st.floats(0.0, 1.0), min_size=len(t_values), max_size=len(t_values))
        grid = np.array(data.draw(st.lists(fractions, min_size=len(n_values), max_size=len(n_values))))
        outdir = tmp_path_factory.mktemp("grid")
        config = ScenarioConfig(t_values=tuple(t_values), n_values=tuple(n_values), samples=samples)
        manifest = outdir / "manifest.json"
        manifest.write_text(json.dumps({"command": "scenario", **config.to_manifest()}), encoding="utf-8")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("diversity_lab.scenario.run_scenario_study", lambda config: grid)
            assert main(["scenario", "--from-manifest", str(manifest), "--outdir", str(outdir)]) == 0
        rows = [
            [n, repr(float(t)), repr(fraction), samples]
            for n, row in zip(n_values, grid.tolist())
            for t, fraction in zip(t_values, row)
        ]
        expected = csv_writer_text(["N", "T_seconds", "success_fraction", "samples"], rows)
        assert (outdir / "success_fraction.csv").read_bytes() == expected.encode("utf-8")


class TestAnalyticCommand:
    def test_worked_example_report(self, tmp_path):
        code = main(
            [
                "analytic",
                "--m", "3", "--n", "2",
                "--j", "2", "--p", "0.5", "--strict",
                "--K", "2",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        report = read_json(tmp_path / "analytic.json")
        assert report["aggregate"]["p_success"] == 0.30
        assert report["p_vv"] == 0.5
        assert report["p_ii"] == 0.25
        assert report["steady_state"] == [0.4, 0.3, 0.3]
        library_value = expected_time_to_compromise(MarkovParams(3, 2), 2)
        assert report["expected_time_to_compromise"] == pytest.approx(library_value)

    def test_default_steady_state_is_exact(self, tmp_path):
        # the dense solve this replaced gave 0.3999999999999999, 0.29999999999999993, ...
        assert main(["analytic", "--m", "3", "--n", "2", "--outdir", str(tmp_path)]) == 0
        assert read_json(tmp_path / "analytic.json")["steady_state"] == [0.4, 0.3, 0.15, 0.15]

    def test_longest_run_length_in_a_fresh_interpreter(self, tmp_path):
        # a dense (K + 1) x (K + 1) solve took about 1 s and 255 MiB at K = 3000, and K had no bound
        env = {**os.environ, "PYTHONPATH": str(Path(diversity_lab.__file__).parents[1])}
        argv = ["analytic", "--m", "3", "--n", "2", "--K", str(MAX_STEPS), "--outdir", str(tmp_path)]
        done = subprocess.run(
            [sys.executable, "-m", "diversity_lab.cli", *argv], capture_output=True, text=True, env=env, timeout=30
        )
        assert done.returncode == 0, done.stderr
        vec = read_json(tmp_path / "analytic.json")["steady_state"]
        assert len(vec) == MAX_STEPS + 1 and vec[:4] == [0.4, 0.3, 0.15, 0.075] and vec[-1] == 0.0

    def test_time_to_compromise_past_the_float_range(self, tmp_path):
        assert main(["analytic", "--m", "3", "--n", "2", "--K", "3000", "--outdir", str(tmp_path)]) == 0
        assert read_json(tmp_path / "analytic.json")["expected_time_to_compromise"] == "Infinity"

    @pytest.mark.parametrize(
        "platforms, code",
        [(("20000", "20000"), 0), (("20000", "20001"), 2), (("100000", "100000"), 2)],
        ids=["at-the-bound", "one-past-the-bound", "far-past-the-bound"],
    )
    def test_large_aggregate_in_a_fresh_interpreter(self, tmp_path, platforms, code):
        # the exact sum over 20,000 terms of 12,000-digit binomials used to run for minutes
        m, n = platforms
        env = {**os.environ, "PYTHONPATH": str(Path(diversity_lab.__file__).parents[1])}
        argv = ["analytic", "--m", m, "--n", n, "--j", "20000", "--p", "0.5", "--outdir", str(tmp_path)]
        done = subprocess.run(
            [sys.executable, "-m", "diversity_lab.cli", *argv], capture_output=True, text=True, env=env, timeout=10
        )
        assert done.returncode == code
        if code == 2:
            assert done.stderr.startswith("error: platform count m + n") and "Traceback" not in done.stderr
            assert not (tmp_path / "analytic.json").exists()
        else:
            assert read_json(tmp_path / "analytic.json")["aggregate"]["p_success"] == pytest.approx(0.5, abs=0.01)

    def test_no_vulnerable_platforms(self, tmp_path):
        code = main(["analytic", "--m", "0", "--n", "5", "--outdir", str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path / "analytic.json")
        assert report["p_vv"] == 0.0
        assert report["expected_control_fraction"] == 0.0
        assert report["expected_time_to_compromise"] == "Infinity"

    def test_finite_window_report(self, tmp_path):
        code = main(
            ["analytic", "--m", "1", "--n", "1", "--d", "900", "--a", "300", "--outdir", str(tmp_path)]
        )
        assert code == 0
        report = read_json(tmp_path / "analytic.json")
        assert report["finite_window"]["s"] == 900.0
        assert report["finite_window"]["p_success"] == pytest.approx(2 / 3)

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--m", "3", "--n", "2", "--j", "2", "--p", "0.5", "--strict", "--K", "2"],
             "245794aaa23c71afa67fd196341fdbe02471934ecb020047f78f17e4fe6022e6"),
            (["--m", "0", "--n", "5"], "7be2241db8a4d30fcf11fe63639ae634ee70572d7e1964aac2d4aa7a363b41bf"),
            (["--m", "1", "--n", "1", "--a", "300"],
             "1f586662aafd3d03e4ef07273a5f5736ec4a75d935d6296a840156715193f8b4"),
        ],
        ids=["worked-example", "infinity-string", "finite-window"],
    )
    def test_report_pinned(self, tmp_path, argv, digest):
        # sha256 of analytic.json as json.dumps(indent=2, sort_keys=True) wrote it
        assert main(["analytic", *argv, "--outdir", str(tmp_path)]) == 0
        assert sha256_of(tmp_path / "analytic.json") == digest

    def test_validation_failure_exits_2(self, tmp_path):
        assert main(["analytic", "--m", "-1", "--n", "2", "--outdir", str(tmp_path)]) == 2
        assert main(["analytic", "--m", "3", "--n", "2", "--j", "2", "--outdir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "window",
        [
            ["--a", "nan"],
            ["--a", "10", "--d", "nan"],
            ["--a", "10", "--s", "nan"],
            ["--a", "inf"],
            ["--a", "10", "--d", "inf"],
            ["--a", "10", "--s", "inf"],
        ],
        ids=["a-nan", "d-nan", "s-nan", "a-inf", "d-inf", "s-inf"],
    )
    def test_non_finite_window_exits_2(self, tmp_path, capsys, window):
        outdir = tmp_path / "never"
        argv = ["analytic", "--m", "3", "--n", "2", *window, "--outdir", str(outdir)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: d, a, and s must all be finite and positive\n"
        assert not outdir.exists()


class TestScheduleCommand:
    def test_diversity_schedule_report(self, tmp_path):
        code = main(["schedule", "--start", "CentOS", "--steps", "12", "--outdir", str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path / "schedule.json")
        assert report["trace"][0] == "CentOS"
        assert report["trace"][1] == "FreeBSD"
        assert report["periodicity"] == {"period": 3, "transient": 1}

    def test_unknown_start_platform(self, tmp_path):
        assert main(["schedule", "--start", "Plan9", "--outdir", str(tmp_path)]) == 2

    def test_empty_start_platform(self, tmp_path, capsys):
        # an empty name is a name, not the default start
        assert main(["schedule", "--start", "", "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: unknown platform ''")
        assert not (tmp_path / "schedule.json").exists()

    C, F, D, G, B = "CentOS", "Fedora", "Debian", "Gentoo", "FreeBSD"

    @pytest.mark.parametrize(
        "policy, seed, start, trace, periodicity",
        [
            ("diversity", 0, None, [C, B, F, D, B, F, D, B, F, D, B, F], (3, 1)),
            ("diversity", 5, D, [D, B, F] * 4, (3, 0)),
            ("uniform", 0, None, [C, B, D, G, F, D, C, F, C, F, B, D], None),
            ("uniform", 5, D, [D, G, B, C, B, F, G, D, F, B, C, D], None),
            # a random-k rotation starts at the head of its drawn subset, whatever --start says
            ("random_k", 0, None, [G, B, D] * 4, (3, 0)),
            ("random_k", 5, D, [G, D, C] * 4, (3, 0)),
            # a random walk that happens to end in a repeated window has no period
            ("uniform", 18, None, [C, B, F, C, G, B, F, D, C, B, G, D, G, D, G, D, G, B, F, D,
                                   C, B, F, G, D, G, B, D, B, D], None),
        ],
    )
    def test_schedule_pinned(self, tmp_path, policy, seed, start, trace, periodicity):
        # recorded from the per-step scheduler: a batched uniform draw must reproduce them
        argv = ["schedule", "--policy", policy, "--seed", str(seed), "--steps", str(len(trace))]
        argv += ["--start", start] if start else []
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
        report = read_json(tmp_path / "schedule.json")
        assert report == {
            "platforms": [self.C, self.F, self.D, self.G, self.B],
            "policy": policy,
            "k": 3,
            "seed": seed,
            "start": trace[0],
            "steps": len(trace),
            "trace": trace,
            "periodicity": None
            if periodicity is None
            else {"period": periodicity[0], "transient": periodicity[1]},
        }

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "8448725e9f5b246bccf1e455f3a01ee40b81fc7dacbf5ec5e66838be6be18e29"),
            (["--policy", "uniform", "--seed", "5", "--start", "Debian"],
             "ffb8f93600fac8483efc32b413873a6fdc25554d6684d832cf777e1ef8105722"),
        ],
        ids=["default", "uniform-periodicity-null"],
    )
    def test_report_bytes_pinned(self, tmp_path, argv, digest):
        # sha256 of schedule.json as json.dumps(indent=2, sort_keys=True) wrote it
        assert main(["schedule", *argv, "--outdir", str(tmp_path)]) == 0
        assert sha256_of(tmp_path / "schedule.json") == digest

    @pytest.mark.parametrize("steps", [30, 10])
    def test_repeat_shorter_than_the_walk_state_is_no_period(self, tmp_path, steps):
        # a 5-diversity step depends on the last 4 platforms, so the p4, p0 repeat inside
        # the cycle is no period; these traces used to report period 2 after 26 or 6 steps
        sim = tmp_path / "it.csv"
        sim.write_text(
            "p0,p1,p2,p3,p4\np0,1.0,1.0,0.5,0.5,0.0\np1,1.0,1.0,1.0,0.0,0.0\n"
            "p2,0.5,1.0,1.0,1.0,0.0\np3,0.5,0.0,1.0,1.0,0.0\np4,0.0,0.0,0.0,0.0,1.0\n",
            encoding="utf-8",
        )
        argv = ["schedule", "--similarity", str(sim), "--K", "5", "--start", "p2", "--steps", str(steps)]
        assert main([*argv, "--outdir", str(tmp_path / "out")]) == 0
        report = read_json(tmp_path / "out" / "schedule.json")
        assert report["trace"] == (["p2", "p4", "p0", "p4", "p0"] * 6)[:steps]
        assert report["periodicity"] == {"period": 5, "transient": 0}

    @pytest.mark.parametrize("steps, periodicity", [(4, None), (5, {"period": 2, "transient": 0})])
    def test_period_shorter_than_the_walk_state(self, tmp_path, steps, periodicity):
        # p2 and p3 are clones of every platform, so a 4-diversity walk from p0 swaps p0 and p1: a period
        # of 2 is shown once the steps repeat the k - 1 = 3 platforms a step depends on
        sim = tmp_path / "clone.csv"
        sim.write_text(
            "p0,p1,p2,p3\np0,1.0,0.0,1.0,1.0\np1,0.0,1.0,1.0,1.0\np2,1.0,1.0,1.0,1.0\np3,1.0,1.0,1.0,1.0\n",
            encoding="utf-8",
        )
        argv = ["schedule", "--similarity", str(sim), "--K", "4", "--start", "p0", "--steps", str(steps)]
        assert main([*argv, "--outdir", str(tmp_path / "out")]) == 0
        report = read_json(tmp_path / "out" / "schedule.json")
        assert report["trace"] == ["p0", "p1"] * (steps // 2) + ["p0"] * (steps % 2)
        assert report["periodicity"] == periodicity

    @pytest.mark.parametrize(
        "k, start, steps, period, transient",
        [
            (3, "Fedora", 6, 3, 0),
            (3, "CentOS", 7, 3, 1),
            (4, "Gentoo", 9, 4, 1),
            (4, "FreeBSD", 13, 4, 5),
            (5, "Debian", 10, 5, 0),
            (5, "Gentoo", 15, 5, 1),
        ],
    )
    def test_cycle_found_past_the_trace(self, tmp_path, k, start, steps, period, transient):
        # a walk of only --steps platforms has not found these cycles yet: the report walks on to find them
        argv = ["schedule", "--K", str(k), "--start", start, "--steps", str(steps), "--outdir", str(tmp_path)]
        assert main(argv) == 0
        assert read_json(tmp_path / "schedule.json")["periodicity"] == {"period": period, "transient": transient}

    @pytest.fixture(scope="class")
    def matrices(self, tmp_path_factory):
        family = tmp_path_factory.mktemp("family") / "family.csv"
        family.write_text(wide_similarity_csv(0), encoding="utf-8")
        return {
            "fixture": (None, load_similarity_matrix(bundled_similarity_path())),
            "family": (str(family), load_similarity_matrix(family)),
        }

    @given(
        st.sampled_from(["fixture", "family"]),
        st.sampled_from(["diversity", "uniform", "random_k"]),
        st.integers(min_value=0, max_value=2**64 + 5),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_schedule(self, tmp_path_factory, matrices, name, policy, seed, data):
        path, sim = matrices[name]
        k = data.draw(st.integers(min_value=2, max_value=sim.count), label="k")
        start = data.draw(st.integers(min_value=0, max_value=sim.count - 1), label="start")
        steps = data.draw(st.integers(min_value=2, max_value=80), label="steps")
        outdir = tmp_path_factory.mktemp("schedule")
        argv = ["schedule", "--policy", policy, "--K", str(k), "--start", sim.names[start]]
        argv += ["--steps", str(steps), "--seed", str(seed), "--outdir", str(outdir)]
        assert main(argv + (["--similarity", path] if path else [])) == 0
        report = read_json(outdir / "schedule.json")
        expected = reference_schedule(policy, sim.distances(), k, start, steps, substream(seed))
        assert report["trace"] == [sim.names[i] for i in expected]
        # a uniform schedule is a random walk: a repeated window in it is no period
        periodicity = None if policy == "uniform" else detect_periodicity(expected, k)
        assert report["periodicity"] == (None if periodicity is None else vars(periodicity))

    @pytest.mark.parametrize("policy, walked", [("uniform", 40), ("diversity", 85), ("random_k", 85)])
    def test_report_walks_its_search_length(self, tmp_path, monkeypatch, policy, walked):
        # Brent's search needs 2·steps + k platforms; a uniform walk has no cycle, so it walks only its steps
        lengths = []

        def recorded(kind, dist, k, steps, values, starts=None):
            lengths.append(steps)
            return walks(kind, dist, k, steps, values, starts)

        monkeypatch.setattr("diversity_lab.scheduler.walks", recorded)
        argv = ["schedule", "--policy", policy, "--K", "5", "--steps", "40", "--outdir", str(tmp_path)]
        assert main(argv) == 0
        assert lengths == [walked]

    @staticmethod
    def assert_sweep_equals_reference(outdir, path, sim, policy, k, seeds, steps):
        """Each ``schedule`` of ``policy`` over every start, seed and steps equals the oracles' trace and period."""
        for seed, start, count in itertools.product(seeds, range(sim.count), steps):
            argv = ["schedule", "--policy", policy, "--K", str(k), "--start", sim.names[start], "--steps", str(count)]
            argv += ["--seed", str(seed), "--outdir", str(outdir)] + (["--similarity", str(path)] if path else [])
            assert main(argv) == 0
            report = read_json(outdir / "schedule.json")
            expected = reference_schedule(policy, sim.distances(), k, start, count, substream(seed))
            periodicity = None if policy == "uniform" else detect_periodicity(expected, k)
            case = (policy, k, start, count, seed)
            assert report["trace"] == [sim.names[i] for i in expected], case
            assert report["periodicity"] == (None if periodicity is None else vars(periodicity)), case

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "policy, seeds, steps",
        [
            # diversity draws nothing, so one seed covers it
            ("diversity", [0], range(2, 81)),
            ("uniform", [0, 1], range(2, 81, 6)),
            ("random_k", [0, 1], range(2, 81, 6)),
        ],
        ids=["diversity", "uniform", "random_k"],
    )
    def test_fixture_sweep_equals_reference(self, tmp_path, five_platform_sim, k, policy, seeds, steps):
        # every start and steps on the fixture, so each cycle that lies past a short trace is met
        self.assert_sweep_equals_reference(tmp_path, None, five_platform_sim, policy, k, seeds, steps)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_short_cycle_sweep_equals_reference(self, tmp_path, k):
        # at K 4 and 5 every diversity walk here ends in a swap of two platforms: a cycle shorter than
        # the k - 1 platforms a step depends on, which is shown only once the steps repeat those
        path = tmp_path / "short.csv"
        path.write_text(
            "p0,p1,p2,p3,p4\np0,1.0,1.0,0.5,1.0,0.5\np1,1.0,1.0,0.0,1.0,0.5\np2,0.5,0.0,1.0,1.0,0.5\n"
            "p3,1.0,1.0,1.0,1.0,1.0\np4,0.5,0.5,0.5,1.0,1.0\n",
            encoding="utf-8",
        )
        sim = load_similarity_matrix(path)
        self.assert_sweep_equals_reference(tmp_path, path, sim, "diversity", k, [0], range(2, 41))

    @pytest.mark.parametrize("policy", ["diversity", "uniform", "random_k"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, policy):
        outdir = tmp_path / "never"
        argv = ["schedule", "--policy", policy, "--outdir", str(outdir)]
        assert main([*argv, "--seed", "-1"]) == 2
        monkeypatch.setenv("DIVERSITY_LAB_SEED", "-1")
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: master seed must be non-negative\n" * 2
        assert not outdir.exists()

    @pytest.mark.parametrize("policy", ["diversity", "uniform", "random_k"])
    @pytest.mark.parametrize("steps", ["0", "1"])
    def test_fewer_than_two_steps_exits_2(self, tmp_path, capsys, policy, steps):
        outdir = tmp_path / "never"
        argv = ["schedule", "--policy", policy, "--steps", steps]
        assert main([*argv, "--outdir", str(outdir)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not outdir.exists()


class TestMcCommand:
    def run_small(self, tmp_path, extra=(), outdir_name="out"):
        outdir = tmp_path / outdir_name
        code = main(
            [
                "mc",
                "--trials", "25",
                "--intervals", "30",
                "--seed", "4",
                "--outdir", str(outdir),
                *extra,
            ]
        )
        return code, outdir

    def test_outputs_and_schema(self, tmp_path):
        code, outdir = self.run_small(tmp_path)
        assert code == 0
        metrics = read_json(outdir / "metrics.json")
        assert set(metrics) == {"diversity", "uniform", "random_k"}
        for entry in metrics.values():
            assert "mean_vulnerable_fraction" in entry
            assert "mean_compromised_fraction" in entry
            assert 0.0 <= entry["mean_vulnerable_fraction"] <= 1.0
        for name in ("cdf_vulnerable.csv", "cdf_ttc.csv", "cdf_compromised.csv"):
            rows = read_csv_rows(outdir / name)
            assert rows[0] == ["policy", "value", "cumulative_probability"]
            by_policy: dict[str, list[float]] = {}
            for policy, value, prob in rows[1:]:
                by_policy.setdefault(policy, []).append(float(prob))
            for probs in by_policy.values():
                assert all(a <= b for a, b in zip(probs, probs[1:]))
                assert probs[-1] <= 1.0 + 1e-12

    def test_policy_filter(self, tmp_path):
        code, outdir = self.run_small(tmp_path, extra=["--policies", "diversity"])
        assert code == 0
        metrics = read_json(outdir / "metrics.json")
        assert set(metrics) == {"diversity"}
        rows = read_csv_rows(outdir / "cdf_vulnerable.csv")
        assert {row[0] for row in rows[1:]} == {"diversity"}

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        code, outdir = self.run_small(tmp_path)
        assert code == 0
        rerun_dir = tmp_path / "rerun"
        code = main(
            ["mc", "--from-manifest", str(outdir / "run_manifest.json"), "--outdir", str(rerun_dir)]
        )
        assert code == 0
        for name in (
            "metrics.json",
            "run_manifest.json",
            "cdf_vulnerable.csv",
            "cdf_ttc.csv",
            "cdf_compromised.csv",
        ):
            assert (outdir / name).read_bytes() == (rerun_dir / name).read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("A,B\nA,1.0,0.5\nB,0.6,1.0\n", "similarity matrix must be symmetric"),
            # the header's platform count is checked before any score row is read
            (",".join(f"p{i}" for i in range(10_000)) + "\n", "expected 10000 data rows after the header, found 0"),
            (",".join(f"p{i}" for i in range(10_001)) + "\n", f"{PLATFORM_LIMIT}, got 10001"),
            ("A,A\nA,1.0,0.5\nA,0.5,1.0\n", "platform identifiers must be unique"),
            ("A, \nA,1.0,0.5\n ,0.5,1.0\n", "platform identifiers must be non-empty"),
        ],
        ids=["asymmetric", "header-of-10000", "header-of-10001", "duplicate-name", "blank-name"],
    )
    def test_invalid_similarity_exits_2(self, tmp_path, capsys, text, message):
        # every error names the file, whether the loader, the platform set or the matrix raises it
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        message = f"error: {bad}: {message}"
        TestNonFiniteScenarioInput.assert_rejected(capsys, ["mc", "--similarity", str(bad)], tmp_path / "x", message)

    def test_outdir_collision_exits_3(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory", encoding="utf-8")
        code = main(
            ["mc", "--trials", "2", "--intervals", "10", "--outdir", str(blocker)]
        )
        assert code == 3

    def test_seed_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIVERSITY_LAB_SEED", "123")
        outdir = tmp_path / "env"
        assert main(["mc", "--trials", "2", "--intervals", "10", "--outdir", str(outdir)]) == 0
        assert read_json(outdir / "run_manifest.json")["seed"] == 123

    def test_seed_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIVERSITY_LAB_SEED", "123")
        outdir = tmp_path / "flag"
        code = main(
            ["mc", "--trials", "2", "--intervals", "10", "--seed", "9", "--outdir", str(outdir)]
        )
        assert code == 0
        assert read_json(outdir / "run_manifest.json")["seed"] == 9

    @pytest.mark.parametrize(
        "extra, seed, digests",
        [
            (
                [],
                0,
                (
                    "41bf7c1a4f9f3d605aefa83353077f096c3efc4a742455139f960e5a9ac32213",
                    "8263390613c521ff4e528d47ba7e05a3444187f2e7e5c35d15a2a7d60ccaf8d0",
                    "de5ef4a11ed579e20a8948a837a5f701dd013b5bbfe3cfc54ffa2f41bfdb9e3d",
                    "c2fefe7ab4b5685120ea9456f4cfcd433b8c11add0c249bc72db160b13faccb7",
                    "91a8af37c98aa6e63bc57e9944b56337aac1497b723f22b5d17f170b64ff8486",
                ),
            ),
            (
                [],
                1,
                (
                    "1d9da6c7bd62b15af3178001a05931fac99a4d29bf04ad3fd6784858ede1b658",
                    "417b251a7bb84c363faf897f512c25389d470be2925e48483bcc65d3d5643183",
                    "b45434331f2cdc39002df4ffc7d70f73c8e439cb850ebfa039724a49cece4ea7",
                    "6bd5c1f58834dbf60772603c1943927374ab1724f0cafd1d7d04e0f1e8fabdad",
                    "aeaa42f502ec75afe214f07158e4ebbd4a5caa3d4b6ff84bd2d7f877b07b9390",
                ),
            ),
            (
                [],
                2**32,
                (
                    "b64ae91f246d602df4244cdd00cfcc1fd210fcc2b8ba0a967c24040c17ae3b1f",
                    "9807f60458d0f7e106a22780f5f4f6e8efcfddc85b17486e31a6c9ba5a011aa6",
                    "d9b234e03f83132f7287ce0bd711d1d0ae7bac67f7f762e1efe47ba54f9e3e55",
                    "5f1c67749abbcfccd0a6003424fbf553d8c0654c8d092c33615434d81c1a24d1",
                    "24aa9a36a2a3da58bdd2ed935c6b4d61780ffa7a2940024c2c785e07419ea12b",
                ),
            ),
            (
                ["--intervals", "8", "--trials", "3000"],
                0,
                (
                    "ec45387503dbb10abfe0d0d875d6ef010183a806751ca274726f0644eed144e5",
                    "0ff2260cdab7e5f8fc5b712d1b9562f1db3572f1bf7903d5fb81209f5563a11b",
                    "62d5d192e31e2d7e50f1b0adb5ffaa72cc9dd6eb44072ac9e48ed9b33c13ed5e",
                    "38a604e382078b8961260af39c735047f21f12529822d2a82ea93b3edb19c3ba",
                    "2da52fe534cc1a061eca6dd8a4bda521e991a742a4ef8eafbd954360dbf424d0",
                ),
            ),
            (
                # 3000 trials of 100 intervals take three chunks of draws
                ["--trials", "3000"],
                0,
                (
                    "9673020bb53f8b4af6c60626a6f2b25f6630f8f286f208eecae767f39340a63e",
                    "97ca02b3acd0dc8e204a362acc753a85726cc32e145bea60871e094ceb80baa2",
                    "17f0ae40f2e870804841840a5898a33f17c823905859a3e9de6f505d60cede49",
                    "1202a5dcc04bf57090c0559fb449f55e7199ec30b553a8ae01944050d5014b60",
                    "601ec74e093b15693287d34b10665b7266424d678f2f5eb2dd590a4ce1ca0297",
                ),
            ),
        ],
    )
    def test_default_study_pinned(self, tmp_path, extra, seed, digests):
        # sha256 of the artifacts as the tuple-per-trial metrics wrote them; a change to
        # the draws, the metric reduction or the writers that moves any byte changes them
        assert main(["mc", *extra, "--seed", str(seed), "--outdir", str(tmp_path)]) == 0
        names = ("metrics.json", "cdf_vulnerable.csv", "cdf_ttc.csv", "cdf_compromised.csv",
                 "run_manifest.json")
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names) == digests

    @pytest.mark.parametrize(
        "seed, digests",
        [
            (
                0,
                (
                    "30a37a3bf0201760703da3035b533713ca3c4f07137508601a2aa67861e4e61b",
                    "0571b9d901daa9db586f2bed96ab3130403427368de50d9e38be80ee70401603",
                    "1f546bf6ead53a63fa051751e05e32eaf42934b028d3b9af5523f81e3bec2b92",
                    "0186efd2907ff5e8f66bf72d58e3f4eb5747e562a50eb862325c47ce7b219641",
                    "cdabd5d7497295953cb1ed410757b34e8ce2c3439901f2a0365d505700578744",
                ),
            ),
            (
                1,
                (
                    "33ec27b8d28c8298b4915698516a30000ce352ecae322438958238982a018cf0",
                    "a61ced1ea95b10069c1c16e54219835b47d1589cce4f7358b53ea12219fe36cf",
                    "fd9ed29816d55528717897d61ce2dc0630c5896c6f18d5b44bb348484e3c036a",
                    "f7b8405a5eeca8e273f3bd1f612b1cd82c753fe796daf9fb15212f9e855e30e9",
                    "3cd50fe5086973619fdd9d726eda0935bdd4312999f6ef3a34dc32019d02d04a",
                ),
            ),
        ],
    )
    def test_wide_study_pinned(self, tmp_path, seed, digests):
        # sha256 of every artifact as the walk scored at every step wrote them; the
        # 48-platform k=4 walks have transients of up to 10 steps before their cycles
        similarity = tmp_path / "similarity.csv"
        similarity.write_text(wide_similarity_csv(seed), encoding="utf-8")
        outdir = tmp_path / "out"
        argv = ["mc", "--K", "4", "--intervals", "200", "--trials", "50", "--seed", str(seed),
                "--similarity", str(similarity), "--outdir", str(outdir)]
        assert main(argv) == 0
        names = ("metrics.json", "cdf_vulnerable.csv", "cdf_ttc.csv", "cdf_compromised.csv",
                 "run_manifest.json")
        assert sorted(path.name for path in outdir.iterdir()) == sorted(names)
        assert tuple(hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in names) == digests


class TestSimilarityInput:
    def test_wide_manifest_rerun_is_byte_identical(self, tmp_path):
        similarity = tmp_path / "similarity.csv"
        similarity.write_text(wide_similarity_csv(3, platforms=300, families=10), encoding="utf-8")
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        argv = ["mc", "--trials", "5", "--intervals", "10", "--K", "4", "--seed", "3"]
        assert main([*argv, "--similarity", str(similarity), "--outdir", str(first)]) == 0
        manifest = first / "run_manifest.json"
        assert len(read_json(manifest)["similarity"]["scores"]) == 300
        assert main(["mc", "--from-manifest", str(manifest), "--outdir", str(rerun)]) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in rerun.iterdir()) and len(names) == 5
        for name in names:
            assert (first / name).read_bytes() == (rerun / name).read_bytes()

    def test_bad_cell_names_its_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B,C\nA,1.0,0.5,0.2\nB,0.5, abc ,0.3\nC,0.2,0.3,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 3: could not convert string to float"):
            load_similarity_matrix(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("A,B,C\n1.0,0.5,0.2\n0.5,1.0,x\n0.2,0.3,1.0\n", "row 3: could not convert string to float: 'x'"),
            ("A,B,C\nA,1.0,0.5,0.2\nB,0.5,1.0,0.3\nC,0.2,0.3,1e\n", "row 4: could not convert string to float: '1e'"),
            ("A,B,C\n1.0,0.5,0.2\nB,0.5,1.0,0.3\n0.2,0.3,\n", "row 4: could not convert string to float: ''"),
            ("A,B\n1.0,?\nB,!,1.0\n", "row 2: could not convert string to float: '\\?'"),
            # rows are checked in order, so a bad cell is reported before a later row's wrong label
            ("A,B,C\nA,1.0,x,0.2\nB,0.5,1.0,0.3\nD,0.2,0.3,1.0\n", "row 2: could not convert string to float: 'x'"),
        ],
        ids=["unlabeled-row", "last-row", "last-row-unlabeled", "first-of-two", "before-a-later-label"],
    )
    def test_bad_cell_anywhere_names_its_row(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad.csv: {message}$"):
            load_similarity_matrix(path)

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    def test_byte_order_mark_is_skipped(self, tmp_path, labeled):
        # spreadsheets' "CSV UTF-8" exports begin with a byte-order mark
        header, *rows = bundled_similarity_path().read_text(encoding="utf-8").splitlines()
        if not labeled:
            rows = [row.partition(",")[2] for row in rows]
        marked = tmp_path / "marked.csv"
        marked.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(codecs.BOM_UTF8)
        fixture = load_similarity_matrix(bundled_similarity_path())
        assert load_similarity_matrix(marked).names == fixture.names
        argv = ["mc", "--trials", "40", "--seed", "2"]
        assert main([*argv, "--outdir", str(tmp_path / "fixture")]) == 0
        assert main([*argv, "--similarity", str(marked), "--outdir", str(tmp_path / "marked")]) == 0
        names = sorted(path.name for path in (tmp_path / "fixture").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "marked").iterdir()) and len(names) == 5
        for name in names:
            assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "fixture" / name).read_bytes()
        argv = ["schedule", "--start", "CentOS", "--similarity", str(marked), "--outdir", str(tmp_path / "schedule")]
        assert main(argv) == 0

    def test_padded_labels(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text(" A , B \n A ,1.0, 0.5 \n\tB\t, 0.5 ,1.0\n", encoding="utf-8")
        assert load_similarity_matrix(path).scores.tolist() == [[1.0, 0.5], [0.5, 1.0]]
        path.write_text("A,B\n A ,1.0,0.5\n C ,0.5,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 3 is labeled 'C', expected 'B'"):
            load_similarity_matrix(path)


def run_fresh(argv, outdir):
    """The CLI run in a fresh interpreter, where a warning reaches stderr as a user sees it."""
    env = {**os.environ, "PYTHONPATH": str(Path(diversity_lab.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "diversity_lab.cli", *argv, "--outdir", str(outdir)],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestScenarioCommand:
    @pytest.mark.parametrize("goal", ["1", "1e-323"])
    def test_least_subnormal_delay_matches_the_oracle(self, tmp_path, goal):
        # lo / 2 + hi / 2 is 0 for these delays; the planned stays must not divide by it
        argv = ["scenario", "--T", goal, "--N", "2", "--exploit", "0,1@0", "--delay", "5e-324,5e-324", "--d", "1e-323"]
        done = run_fresh(argv, tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        exploits = (ExploitSpec(frozenset({0, 1}), 0.0),)
        runs = [max_control_run(2, 1e-323, (5e-324, 5e-324), exploits, substream(0, 2, s)) for s in range(300)]
        _, (n, t, fraction, samples) = read_csv_rows(tmp_path / "success_fraction.csv")
        assert (n, float(t), samples) == ("2", float(goal), "300")
        assert float(fraction) == sum(run >= float(goal) for run in runs) / 300

    def test_stay_ends_past_the_float_range_warn_nothing(self, tmp_path):
        # two 1e308 dwells sum to inf, which the scan then clips to the trial end
        done = run_fresh(["scenario", "--N", "2", "--T", "1", "--d", "1e308", "--delay", "1e308,1e308"], tmp_path)
        assert (done.returncode, done.stderr) == (0, "")

    def test_sweep_reproduces_declining_line(self, tmp_path):
        outdir = tmp_path / "sweep"
        code = main(
            [
                "scenario",
                "--N", "1",
                "--T-sweep", "0:900:300",
                "--samples", "400",
                "--seed", "2",
                "--outdir", str(outdir),
            ]
        )
        assert code == 0
        rows = read_csv_rows(outdir / "success_fraction.csv")
        assert rows[0] == ["N", "T_seconds", "success_fraction", "samples"]
        fractions = [float(row[2]) for row in rows[1:]]
        assert len(fractions) == 4
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] == 1.0
        assert abs(fractions[1] - 2 / 3) < 0.08

    def test_goal_beyond_duration_all_zero(self, tmp_path):
        outdir = tmp_path / "zero"
        code = main(
            ["scenario", "--N", "2", "--T", "1000", "--d", "900", "--samples", "50",
             "--exploit", "all@0", "--outdir", str(outdir)]
        )
        assert code == 0
        rows = read_csv_rows(outdir / "success_fraction.csv")
        assert [float(row[2]) for row in rows[1:]] == [0.0]

    def test_sweep_holds_no_object_per_grid_point(self, tmp_path):
        # 2 N values × 100,000 goals: the grid is 1.6 MB of doubles, and the text of each goal is made once.
        # Beside them, the writer holds one row's lines (a goal text and a few characters each), that row's
        # floats, the goals' own floats and the row's joined text, each at most a goal text apiece: so the
        # bound is the grid plus four times the goal texts, about 27 MiB. An object and a line per (N, T) cell,
        # all built before the first byte is written, took the peak to 50 MiB.
        t_values = range(100_000)
        grid = 2 * len(t_values) * 8
        texts = sum(sys.getsizeof(f",{float(t)!r},") + 8 for t in t_values)  # each text and its list slot
        argv = ["scenario", "--N", "1,3", "--T-sweep", "0:99999:1", "--samples", "10", "--outdir", str(tmp_path)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid + 4 * texts

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        outdir = tmp_path / "first"
        assert (
            main(
                ["scenario", "--N", "3", "--T", "25", "--samples", "100", "--seed", "6",
                 "--outdir", str(outdir)]
            )
            == 0
        )
        rerun = tmp_path / "second"
        assert (
            main(["scenario", "--from-manifest", str(outdir / "run_manifest.json"),
                  "--outdir", str(rerun)])
            == 0
        )
        for name in ("success_fraction.csv", "run_manifest.json"):
            assert (outdir / name).read_bytes() == (rerun / name).read_bytes()

    @pytest.mark.parametrize(
        "seed, sweep_digest, manifest_digest",
        [
            (
                0,
                "a9e291bb33dedb861d1e633a1a0bb01792fbb7f166157b19fa00a6962e2536f0",
                "d07d737f3eb6d12fd93b0789cf15ab1020dea614717932cc17b25df236f0ab7d",
            ),
            (
                1,
                "e9741903ce194bfdbe3d7d6ba488c8ac1e5cb262e6b92e2a54e61e712a5dc555",
                "7dcb3d8ea077eff6b62f28c44fcb446f02abc9b147714279ca22918f74615b94",
            ),
            (
                2**32,
                "b9a0c69b2c703d18ec6d7592b04a18b25e6d63d0124098d6f09dc7e553cbb445",
                "a9a58568473f5a2201e34f4b5568cededd7695e4f5b3da35773030508d6df728",
            ),
        ],
    )
    def test_default_exploit_sweep_pinned(self, tmp_path, seed, sweep_digest, manifest_digest):
        # sha256 of the artifacts as the per-sample generator wrote them; a change to
        # stream derivation or decoding that moves any draw changes them
        argv = ["scenario", "--N", "1,3,8", "--T-sweep", "0:900:75", "--samples", "300"]
        assert main([*argv, "--seed", str(seed), "--outdir", str(tmp_path)]) == 0
        digests = [
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("success_fraction.csv", "run_manifest.json")
        ]
        assert digests == [sweep_digest, manifest_digest]

    @pytest.mark.parametrize(
        "seed, sweep_digest, manifest_digest",
        [
            (
                0,
                "83c5f4b375d60d0f6619bf7694db439dbbcd8f302ad10c867e917946484e161b",
                "bafbd26ec090bd65cc3a8be4cb2c404c53a5ad92e092f7aa94e50a16e12247f5",
            ),
            (
                1,
                "99dbe683c6c22e7b4eba2877e859680be42558e7d805b6c7d52e70b54ba80bc3",
                "f01f516186fc46b84a39260ce1ab979cf90d9aa4490e4f779a93d2184baaeaa8",
            ),
        ],
    )
    def test_benchmark_sweep_pinned(self, tmp_path, seed, sweep_digest, manifest_digest):
        # the exact argv of the scenario-sweep benchmark workload: 1000 samples per N,
        # so each N is one draws chunk, a pass shape the 300-sample pin does not take
        argv = ["scenario", "--N", "1,3,5,8", "--T-sweep", "0:900:15", "--samples", "1000"]
        assert main([*argv, "--seed", str(seed), "--outdir", str(tmp_path)]) == 0
        digests = [
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("success_fraction.csv", "run_manifest.json")
        ]
        assert digests == [sweep_digest, manifest_digest]

    def test_t_and_sweep_mutually_exclusive(self, tmp_path):
        assert main(["scenario", "--N", "1", "--outdir", str(tmp_path / "a")]) == 2
        assert (
            main(["scenario", "--N", "1", "--T", "10", "--T-sweep", "0:10:5",
                  "--outdir", str(tmp_path / "b")])
            == 2
        )

    def test_grid_covers_all_n(self, tmp_path):
        outdir = tmp_path / "grid"
        code = main(
            ["scenario", "--N", "1,2", "--T", "30", "--samples", "20", "--outdir", str(outdir)]
        )
        assert code == 0
        rows = read_csv_rows(outdir / "success_fraction.csv")
        assert [row[0] for row in rows[1:]] == ["1", "2"]


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_calls_in_one_process_share_no_parsed_state(self, tmp_path):
        # --exploit appends to a list; a second call without it must get the default pair
        argv = ["scenario", "--N", "3", "--T", "10", "--samples", "5"]
        assert main([*argv, "--exploit", "0@5", "--outdir", str(tmp_path / "first")]) == 0
        assert main([*argv, "--outdir", str(tmp_path / "second")]) == 0
        first = read_json(tmp_path / "first" / "run_manifest.json")["exploits"]
        second = read_json(tmp_path / "second" / "run_manifest.json")["exploits"]
        assert first == [{"platforms": [0], "arrival": 5.0}]
        assert second == [{"platforms": [0], "arrival": None}, {"platforms": [1, 2], "arrival": None}]


class TestManifestSchema:
    """A manifest with a missing or ill-typed key is a validation error, not a crash."""

    @staticmethod
    def broken_manifest(tmp_path, argv, edit):
        assert main([*argv, "--outdir", str(tmp_path / "good")]) == 0
        manifest = read_json(tmp_path / "good" / "run_manifest.json")
        edit(manifest)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda m: m.pop("k"), "k"),
            (lambda m: m.update(k="3"), "k"),
            (lambda m: m.update(k=None), "k"),
            (lambda m: m.update(policies=["uniform", "best"]), "policies"),
            (lambda m: m["similarity"]["scores"][0].__setitem__(1, None), "similarity.scores"),
        ],
        ids=["missing", "string", "null", "unknown-policy", "nested"],
    )
    def test_mc_bad_key(self, tmp_path, capsys, edit, key):
        argv = ["mc", "--trials", "2", "--intervals", "10"]
        path = self.broken_manifest(tmp_path, argv, edit)
        capsys.readouterr()
        rerun = tmp_path / "rerun"
        assert main(["mc", "--from-manifest", str(path), "--outdir", str(rerun)]) == 2
        assert capsys.readouterr().err == f"error: {path}: missing/invalid key {key!r}\n"
        assert not rerun.exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda m: m.pop("samples"), "samples"),
            (lambda m: m.update(n_values="3"), "n_values"),
            (lambda m: m["exploits"][0].update(platforms=[None]), "exploits.platforms"),
        ],
        ids=["missing", "string", "nested"],
    )
    def test_scenario_bad_key(self, tmp_path, capsys, edit, key):
        argv = ["scenario", "--N", "3", "--T", "10", "--samples", "5"]
        path = self.broken_manifest(tmp_path, argv, edit)
        capsys.readouterr()
        rerun = tmp_path / "rerun"
        assert main(["scenario", "--from-manifest", str(path), "--outdir", str(rerun)]) == 2
        assert capsys.readouterr().err == f"error: {path}: missing/invalid key {key!r}\n"
        assert not rerun.exists()

    @pytest.mark.parametrize(
        "argv, edit, message",
        [
            (["mc", "--trials", "2", "--intervals", "10"], lambda m: m.update(k=1),
             "persistence requirement k must be >= 2"),
            (["scenario", "--N", "3", "--T", "10", "--samples", "5"],
             lambda m: m.update(duration=float("inf")), "trial duration must be finite"),
            # the platforms are checked before the scores
            (["mc", "--trials", "2", "--intervals", "10"],
             lambda m: m["similarity"].update(platforms=[f"p{i}" for i in range(10_000)]),
             "similarity matrix shape (5, 5) does not match 10000 platforms"),
            (["mc", "--trials", "2", "--intervals", "10"],
             lambda m: m["similarity"].update(platforms=[f"p{i}" for i in range(10_001)]),
             f"{PLATFORM_LIMIT}, got 10001"),
        ],
        ids=["mc-k-1", "scenario-duration-infinity", "mc-10000-platforms", "mc-10001-platforms"],
    )
    def test_value_error_names_the_file(self, tmp_path, capsys, argv, edit, message):
        path = self.broken_manifest(tmp_path, argv, edit)
        capsys.readouterr()
        rerun = tmp_path / "rerun"
        assert main([argv[0], "--from-manifest", str(path), "--outdir", str(rerun)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1
        assert not rerun.exists()

    def test_manifest_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["mc", "--from-manifest", str(path), "--outdir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command", ["mc", "scenario"])
    @pytest.mark.parametrize("text", ["", "{\"seed\": 0,", "\udcff"], ids=["empty", "truncated", "not-utf8"])
    def test_invalid_json_names_the_file(self, tmp_path, capsys, command, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        rerun = tmp_path / "rerun"
        assert main([command, "--from-manifest", str(path), "--outdir", str(rerun)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON: ")
        assert err.count("\n") == 1
        assert not rerun.exists()


    @pytest.mark.parametrize("command", ["mc", "scenario"])
    def test_too_deeply_nested_json_names_the_file(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        rerun = tmp_path / "rerun"
        assert main([command, "--from-manifest", str(path), "--outdir", str(rerun)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1
        assert not rerun.exists()


class TestExploitPlatformRange:
    def test_cli_rejects_platform_beyond_largest_n(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main(
            ["scenario", "--N", "3", "--T", "10", "--exploit", "9", "--outdir", str(outdir)]
        )
        assert code == 2
        assert "exploit platforms [9]" in capsys.readouterr().err
        assert not outdir.exists()

    def test_cli_rejects_negative_platform(self, tmp_path):
        outdir = tmp_path / "out"
        code = main(
            ["scenario", "--N", "3", "--T", "10", "--exploit=-1", "--outdir", str(outdir)]
        )
        assert code == 2

    def test_manifest_rejects_platform_beyond_largest_n(self, tmp_path):
        first = tmp_path / "first"
        argv = ["scenario", "--N", "1,3", "--T", "10", "--samples", "5", "--outdir", str(first)]
        assert main(argv) == 0
        manifest = read_json(first / "run_manifest.json")
        manifest["exploits"][0]["platforms"] = [3]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        rerun = tmp_path / "rerun"
        assert main(["scenario", "--from-manifest", str(path), "--outdir", str(rerun)]) == 2

    def test_platform_valid_for_largest_n_only_is_accepted(self, tmp_path):
        # platforms 1 and 2 do not exist when N=1; that grid point ignores them
        outdir = tmp_path / "sweep"
        code = main(
            ["scenario", "--N", "1,3", "--T", "10", "--samples", "5", "--exploit", "1,2",
             "--outdir", str(outdir)]
        )
        assert code == 0
        assert read_json(outdir / "run_manifest.json")["exploits"] == [
            {"platforms": [1, 2], "arrival": None}
        ]

    def test_default_pair_replays_with_n1(self, tmp_path):
        # the default exploits name platforms 1 and 2, which N=1 lacks
        first = tmp_path / "first"
        argv = ["scenario", "--N", "1", "--T", "10", "--samples", "5", "--outdir", str(first)]
        assert main(argv) == 0
        rerun = tmp_path / "rerun"
        code = main(["scenario", "--from-manifest", str(first / "run_manifest.json"),
                     "--outdir", str(rerun)])
        assert code == 0
        assert (first / "success_fraction.csv").read_bytes() == (
            rerun / "success_fraction.csv"
        ).read_bytes()


class TestNonFiniteScenarioInput:
    """Non-finite timing or arrivals exit 2 with one error line and no output directory.

    ``--d inf --exploit 0@0`` is covered by the ``ScenarioConfig`` tests only:
    code without the check never returns from it.
    """

    @staticmethod
    def assert_rejected(capsys, argv, outdir, message):
        assert main([*argv, "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--d", "nan"], "trial duration must be finite"),
            (["--d", "inf"], "trial duration must be finite"),
            (["--delay", "20,inf"], "migration delay must be finite"),
            (["--exploit", "0,1,2@nan"], "exploit arrival must be finite"),
            (["--exploit", "0,1,2@inf"], "exploit arrival must be finite"),
        ],
        ids=["d-nan", "d-inf-random-arrivals", "delay-inf", "arrival-nan", "arrival-inf"],
    )
    def test_argv(self, tmp_path, capsys, extra, message):
        argv = ["scenario", "--N", "3", "--T", "10", "--samples", "2", *extra]
        self.assert_rejected(capsys, argv, tmp_path / "never", message)

    @pytest.mark.parametrize(
        "extra, old, new, message",
        [
            ([], '"duration": 900.0', '"duration": Infinity', "trial duration must be finite"),
            (
                ["--exploit", "0@5"],
                '"arrival": 5.0',
                '"arrival": NaN',
                "exploit arrival must be finite",
            ),
            ([], '"t_values": [\n    10.0', '"t_values": [\n    NaN', "attacker goals must be finite"),
            ([], '"t_values": [\n    10.0', '"t_values": [\n    Infinity', "attacker goals must be finite"),
            # an infinite goal was once written as the string "Infinity"
            ([], '"t_values": [\n    10.0', '"t_values": [\n    "Infinity"', "invalid key 't_values'"),
        ],
        ids=["duration-infinity", "arrival-nan", "goal-nan", "goal-infinity", "goal-infinity-string"],
    )
    def test_manifest(self, tmp_path, capsys, extra, old, new, message):
        # json.loads accepts the non-standard literals Infinity and NaN
        first = tmp_path / "first"
        assert main(["scenario", "--N", "3", "--T", "10", "--samples", "2", *extra,
                     "--outdir", str(first)]) == 0
        text = (first / "run_manifest.json").read_text(encoding="utf-8")
        assert old in text
        path = tmp_path / "edited.json"
        path.write_text(text.replace(old, new), encoding="utf-8")
        capsys.readouterr()
        argv = ["scenario", "--from-manifest", str(path)]
        self.assert_rejected(capsys, argv, tmp_path / "never", message)


class TestOversizedIntegers:
    """An integer too large for the engines, or a pool past the platform limit, exits 2 with one error line."""

    @pytest.mark.parametrize(
        "n", [2**63, 2**64, sys.maxsize, 10_001], ids=["2**63", "2**64", "sys.maxsize", "10001"]
    )
    def test_platform_count_argv(self, tmp_path, capsys, n):
        argv = ["scenario", "--N", str(n), "--T", "10", "--samples", "2"]
        TestNonFiniteScenarioInput.assert_rejected(capsys, argv, tmp_path / "never", f"{PLATFORM_LIMIT}, got {n}")

    def test_largest_platform_count_runs_in_a_fresh_interpreter(self, tmp_path):
        # the pool of 10,000 platforms runs from argv and again from its manifest
        env = {**os.environ, "PYTHONPATH": str(Path(diversity_lab.__file__).parents[1])}
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        for argv, outdir in [
            (["--N", "10000", "--T", "10", "--samples", "3"], first),
            (["--from-manifest", str(first / "run_manifest.json")], rerun),
        ]:
            done = subprocess.run(
                [sys.executable, "-m", "diversity_lab.cli", "scenario", *argv, "--outdir", str(outdir)],
                capture_output=True, text=True, env=env, timeout=10,
            )
            assert (done.returncode, done.stderr) == (0, "")
        assert read_csv_rows(first / "success_fraction.csv")[1][0] == "10000"
        assert (first / "success_fraction.csv").read_bytes() == (rerun / "success_fraction.csv").read_bytes()

    @pytest.mark.parametrize(
        "argv, edit, message",
        [
            (["scenario", "--T", "10", "--samples", "2"], lambda m: m.update(t_values=[10**400]),
             "missing/invalid key 't_values'"),
            (["scenario", "--T", "10", "--samples", "2"], lambda m: m.update(duration=10**400),
             "missing/invalid key 'duration'"),
            (["scenario", "--T", "10", "--samples", "2"], lambda m: m.update(n_values=[2**63]),
             f"{PLATFORM_LIMIT}, got {2**63}"),
            (["scenario", "--T", "10", "--samples", "2"], lambda m: m.update(n_values=[3, 10_001]),
             f"{PLATFORM_LIMIT}, got 10001"),
            (["mc", "--trials", "2", "--intervals", "6"],
             lambda m: m["similarity"]["scores"][1].__setitem__(2, 10**400), "missing/invalid key 'similarity.scores'"),
            (["mc", "--trials", "2", "--intervals", "6"], lambda m: m.update(trials=10**400),
             "trials must be at most 100000000"),
            (["mc", "--trials", "2", "--intervals", "6"], lambda m: m.update(intervals=10**400),
             f"intervals must be at most {MAX_STEPS}"),
        ],
        ids=["goal", "duration", "platform-count", "platform-count-10001", "score", "trials", "intervals"],
    )
    def test_manifest(self, tmp_path, capsys, argv, edit, message):
        first = tmp_path / "first"
        assert main([*argv, "--outdir", str(first)]) == 0
        manifest = read_json(first / "run_manifest.json")
        edit(manifest)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        command = [manifest["command"], "--from-manifest", str(path)]
        TestNonFiniteScenarioInput.assert_rejected(capsys, command, tmp_path / "never", f"{path}: {message}")


class TestAttackerGoals:
    """Non-finite goals, endless sweeps and endless samples exit 2 at once.

    Each prints one error line and leaves no output directory.
    """

    @pytest.mark.parametrize(
        "goal, message",
        [
            (["--T", "inf"], "attacker goals must be finite and non-negative, got inf"),
            (["--T", "nan"], "attacker goals must be finite and non-negative, got nan"),
            (["--T-sweep", "0:inf:15"], "bounds and step must be finite"),
            (["--T-sweep", "nan:10:1"], "bounds and step must be finite"),
            (["--T-sweep", "0:10:1e-300"], f"gives more than {MAX_SWEEP_POINTS} goals"),
            # 1e20 + 1 == 1e20, so the running sum never passes hi
            (["--T-sweep", "1e20:1e20:1"], f"gives more than {MAX_SWEEP_POINTS} goals"),
            # each sample would step through about 5e306 stays
            (["--T", "10", "--d", "1e308", "--exploit", "0@0"], f"more than {MAX_STAYS} stays per sample"),
        ],
        ids=[
            "T-inf", "T-nan", "sweep-to-inf", "sweep-from-nan", "sweep-tiny-step", "sweep-stuck",
            "d-too-many-stays",
        ],
    )
    def test_rejected_in_a_fresh_interpreter(self, tmp_path, goal, message):
        # an endless sweep grows a list without bound, so the run gets a hard time limit
        outdir = tmp_path / "never"
        env = {**os.environ, "PYTHONPATH": str(Path(diversity_lab.__file__).parents[1])}
        argv = ["scenario", "--N", "3", "--samples", "2", *goal, "--outdir", str(outdir)]
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "diversity_lab.cli", *argv],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert time.perf_counter() - started < 5
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and message in done.stderr
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
        assert not outdir.exists()

    @staticmethod
    def sweep(spec):
        return _parse_t_values(argparse.Namespace(T=None, T_sweep=spec))

    def test_sweep_values_unchanged(self):
        assert self.sweep("0:900:15") == tuple(float(t) for t in range(0, 901, 15))
        # the running sum of ten steps of 0.1 is 0.9999999999999999; rounding gives 1.0
        assert self.sweep("0:1:0.1") == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        assert self.sweep("5:5:1") == (5.0,)

    def test_sweep_point_cap(self):
        assert len(self.sweep(f"0:{MAX_SWEEP_POINTS - 1}:1")) == MAX_SWEEP_POINTS
        with pytest.raises(ValueError, match="more than"):
            self.sweep(f"0:{MAX_SWEEP_POINTS}:1")


class TestImpossibleAllocation:
    """A study that cannot allocate an array exits 3 with one error line and writes nothing.

    ``mc`` holds one chunk of trials at a time, so no study it accepts asks for more than a
    47-bit address space; here a chunk's draws ask for 1 EiB, past even a 57-bit space.
    """

    @pytest.mark.parametrize("argv", [["mc", "--trials", "10"]], ids=["mc-chunk-of-1-EiB"])
    def test_exits_3_with_one_error_line(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr("diversity_lab.simulator.draws", lambda *args: np.empty(2**60, dtype=bool))
        outdir = tmp_path / "never"
        assert main([*argv, "--outdir", str(outdir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 1.00 EiB") and err.count("\n") == 1
        assert not outdir.exists()


class TestNoOutputOnValidationError:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["mc", "--trials", "0"], "trials must be >= 1"),
            *(
                (["mc", "--trials", trials], "trials must be at most 100000000")
                for trials in ("100000001", "100000000000", "100000000000000")
            ),
            *(
                (["mc", "--trials", "1", "--intervals", str(intervals)], f"intervals must be at most {MAX_STEPS}")
                for intervals in (MAX_STEPS + 1, 2**63 - 1)
            ),
            (["mc", "--K", "9"], "policy requires k=9 distinct platforms, only 5 available"),
            (["mc", "--K", "9", "--policies", "uniform,random_k", "--trials", "2"],
             "cannot rotate over k=9 of 5 platforms"),
            (["scenario", "--N", "1", "--samples", "0", "--T", "10"], "samples must be >= 1"),
            (["schedule", "--K", "1"], "diversity policy requires k >= 2"),
            (["schedule", "--K", "9"], "policy requires k=9 distinct platforms, only 5 available"),
            (["schedule", "--policy", "random_k", "--K", "1"], "random_k policy requires k >= 2"),
            (["schedule", "--policy", "random_k", "--K", "9"], "cannot rotate over k=9 of 5 platforms"),
            (["schedule", "--steps", "0"], "steps must be >= 2"),
            (["schedule", "--steps", "1"], "steps must be >= 2"),
            *(
                (["schedule", "--policy", policy, "--steps", str(steps)], f"steps must be at most {MAX_STEPS}")
                for policy in ("diversity", "uniform", "random_k")
                for steps in (MAX_STEPS + 1, 2**63 - 1)
            ),
            *(
                (["analytic", "--m", "3", "--n", "2", "--K", str(k)], f"--K must be at most {MAX_STEPS}")
                for k in (MAX_STEPS + 1, 2**63 - 1)
            ),
            (["analytic", "--m", "3", "--n", "2", "--K", "0", "--j", "2"], "--j and --p must be given together"),
            *(
                (["scenario", "--N", "3", "--T", "10", "--samples", str(samples)],
                 "samples must be at most 100000000")
                for samples in (2**63, 2**62, 10**11, 10**17)
            ),
            *(
                (["scenario", "--N", n, "--T", "10", "--exploit", "all@0"], f"{PLATFORM_LIMIT}, got {n}")
                for n in ("10001", "100000000")
            ),
            *(
                (["scenario", "--N", "3", "--T", "10", "--exploit", spec],
                 f"--exploit {spec!r}: platforms must be 'all' or comma-separated integers")
                for spec in ("x@5", "1,,2@5", "@5", "0.5")
            ),
            (["scenario", "--N", "3", "--T", "10", "--exploit", "0@abc"],
             "--exploit '0@abc': arrival must be 'uniform' or a number of seconds"),
            *(
                (["scenario", "--N", n, "--T", "10"], f"--N {n!r}: platform counts must be comma-separated integers")
                for n in ("abc", "3,,")
            ),
            (["scenario", "--N", "3", "--T", "10", "--delay", "x,y"],
             "--delay 'x,y': bounds must be numbers of seconds"),
            *(
                (["analytic", "--m", "2", "--n", "3", "--j", "2", "--p", p],
                 f"--p {p!r}: must be a fraction or a decimal, e.g. 1/2 or 0.5")
                for p in ("abc", "1/0")
            ),
        ],
        ids=[
            "mc-trials-0",
            # trial indices stay one-word key parts; 1e11 and 1e14 trials used to exit 3 on allocation
            "mc-trials-100000001", "mc-trials-1e11", "mc-trials-1e14",
            # checked before any allocation: 10**9 intervals used to be killed for memory with no message
            "mc-intervals-above-max", "mc-intervals-2-63",
            "mc-k-above-pool", "mc-random-k-above-pool", "scenario-samples-0",
            "schedule-diversity-k-1", "schedule-diversity-k-above-pool", "schedule-random-k-k-1",
            "schedule-random-k-above-pool", "schedule-steps-0", "schedule-steps-1",
            # checked before any draw: 2**63 - 1 steps used to exit 3 with a bare "error: " for
            # random_k, and 2 with NumPy's "array is too big" for the other two policies
            "schedule-diversity-steps-above-max", "schedule-diversity-steps-2-63",
            "schedule-uniform-steps-above-max", "schedule-uniform-steps-2-63",
            "schedule-random-k-steps-above-max", "schedule-random-k-steps-2-63",
            # checked before any computation; --K used to have no bound
            "analytic-k-above-max", "analytic-k-2-63",
            # the pairing is checked before the report, whose k >= 1 check this used to print
            "analytic-j-without-p",
            # these used to end in a NumPy error, "array is too big" or an allocation failure
            "scenario-samples-2-63", "scenario-samples-2-62", "scenario-samples-1e11",
            "scenario-samples-711-PiB",
            # "all" is checked against the platform limit before it lists every platform below the largest N
            "scenario-exploit-all-10001", "scenario-exploit-all-1e8",
            # these used to print Python's own int() and float() messages
            "scenario-exploit-name", "scenario-exploit-empty-platform", "scenario-exploit-no-platforms",
            "scenario-exploit-float-platform", "scenario-exploit-arrival",
            # these used to print Python's own int(), float() and Fraction() messages, and
            # --p 1/0 ended in a ZeroDivisionError traceback
            "scenario-n-name", "scenario-n-empty-count", "scenario-delay-names",
            "analytic-p-name", "analytic-p-zero-denominator",
        ],
    )
    def test_outdir_not_created(self, tmp_path, capsys, argv, message):
        outdir = tmp_path / "never"
        assert main([*argv, "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists()

    def test_k_above_pool_with_uniform_only_runs(self, tmp_path):
        outdir = tmp_path / "uniform"
        argv = ["mc", "--K", "9", "--policies", "uniform", "--trials", "3", "--intervals", "10"]
        assert main([*argv, "--outdir", str(outdir)]) == 0
        assert set(read_json(outdir / "metrics.json")) == {"uniform"}
