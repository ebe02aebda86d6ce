"""Run manifests round-trip through their configs, and malformed CLI input keeps the exit contract.

The round trips feed ``to_manifest`` through JSON text and back into
``from_manifest``. The fuzz tests start from a small valid manifest,
argv or similarity CSV, apply one mutation from ``MUTATIONS`` at one
place, and run the CLI in-process: it must exit 0, 2 or 3 with no
traceback, and exit 2 must leave no output directory.
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diversity_lab import (
    ExploitSpec,
    McConfig,
    PlatformSet,
    ScenarioConfig,
    SimilarityMatrix,
    bundled_similarity_path,
)
from diversity_lab.cli import main
from diversity_lab.core import is_number, is_number_list, list_of
from diversity_lab.simulator import DEFAULT_POLICY_KINDS

#: Fixed draws, so every run of the suite tries the same examples; the
#: deadline turns a study that runs far too long into a failure
PROPERTY = settings(max_examples=60, deadline=2000, derandomize=True)
FUZZ = settings(max_examples=300, deadline=5000, derandomize=True)

DROP = object()
#: One mutation replaces a value, or drops it (a key, a list item, a CSV cell or an option)
MUTATIONS = {
    "drop": DROP,
    "null": None,
    "object": {},
    "bool": True,
    "negative": -1,
    "zero": 0,
    "nan": float("nan"),
    "infinity": float("inf"),
    "string": "x",
    "empty-list": [],
    "huge-int": 10**400,
}
#: The same menu as command-line or CSV text
TEXT_MUTATIONS = {
    name: value if value is DROP or isinstance(value, str) else json.dumps(value)
    for name, value in MUTATIONS.items()
}

seeds = st.integers(0, 2**32 + 2) | st.integers(0, 2**70)
finite = st.floats(min_value=0.0, max_value=1e6)
positive = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)


@st.composite
def similarity_matrices(draw):
    count = draw(st.integers(1, 6))
    names = draw(
        st.lists(st.text(min_size=1).filter(str.strip), min_size=count, max_size=count, unique=True)
    )
    upper = np.triu(
        np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=count**2, max_size=count**2)))
        .reshape(count, count),
        k=1,
    )
    return SimilarityMatrix(PlatformSet(tuple(names)), upper + upper.T + np.eye(count))


@st.composite
def mc_configs(draw):
    k = draw(st.integers(2, 6))
    return McConfig(
        trials=draw(st.integers(1, 10**6)),
        intervals=draw(st.integers(k, 10**6)),
        k=k,
        policy_kinds=tuple(
            draw(st.permutations(DEFAULT_POLICY_KINDS))[: draw(st.integers(1, 3))]
        ),
        master_seed=draw(seeds),
    )


@st.composite
def scenario_configs(draw):
    lo = draw(positive)
    exploits = st.builds(
        ExploitSpec,
        st.frozensets(st.integers(0, 20), min_size=1, max_size=4),
        st.none() | finite,
    )
    return ScenarioConfig(
        t_values=tuple(draw(st.lists(finite, min_size=1, max_size=5))),
        n_values=tuple(draw(st.lists(st.integers(1, 10), min_size=1, max_size=4))),
        duration=draw(positive),
        delay=(lo, lo + draw(finite)),
        samples=draw(st.integers(1, 10**6)),
        exploits=tuple(draw(st.lists(exploits, min_size=1, max_size=3))),
        master_seed=draw(seeds),
    )


def through_json(manifest):
    return json.loads(json.dumps(manifest))


class TestRoundTrip:
    @PROPERTY
    @given(mc_configs(), similarity_matrices())
    def test_mc(self, config, sim):
        manifest = config.to_manifest(sim)
        read, read_sim = McConfig.from_manifest(through_json(manifest))
        assert read == config
        assert read_sim.platforms == sim.platforms
        assert np.array_equal(read_sim.scores, sim.scores)
        assert read.to_manifest(read_sim) == manifest

    @PROPERTY
    @given(scenario_configs())
    def test_scenario(self, config):
        manifest = config.to_manifest()
        read = ScenarioConfig.from_manifest(through_json(manifest))
        assert read == config
        assert read.to_manifest() == manifest


class TestNumberList:
    @PROPERTY
    @given(
        st.lists(st.floats() | st.integers(-(10**400), 10**400) | st.booleans() | st.none() | st.text(max_size=2))
        | st.lists(st.floats())
        | st.floats()
        | st.none()
    )
    def test_equals_the_check_of_each_item(self, value):
        assert is_number_list(value) == list_of(is_number)(value)

    def test_ints_past_the_float_range_are_refused(self):
        largest = int(sys.float_info.max)
        assert is_number_list([0.5, largest, -largest])
        assert not is_number_list([0.5, largest + 2**971])
        assert not is_number_list([-(10**400)])


def run_cli(argv):
    """Exit code and stderr of ``main(argv)``; an exception escaping it fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects argv with exit 2
            code = exc.code
    return code, err.getvalue()


def assert_contract(argv, outdir):
    code, err = run_cli([*argv, "--outdir", str(outdir)])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code:
        assert "error: " in err
    if code == 2:
        assert not outdir.exists()


def tree_paths(node, prefix=()):
    """The path of every value nested in a JSON document, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from tree_paths(child, prefix + (key,))


def mutated(document, path, value):
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return document


@pytest.fixture(scope="module")
def valid_manifests(tmp_path_factory):
    """A small valid ``run_manifest.json`` per study command."""
    runs = {
        "mc": ["mc", "--trials", "2", "--intervals", "6"],
        "scenario": ["scenario", "--N", "1,3", "--T", "10", "--samples", "3",
                     "--exploit", "0@5", "--exploit", "1,2"],
    }
    manifests = {}
    for command, argv in runs.items():
        outdir = tmp_path_factory.mktemp(command)
        assert main([*argv, "--outdir", str(outdir)]) == 0
        manifests[command] = json.loads((outdir / "run_manifest.json").read_text(encoding="utf-8"))
    return manifests


#: A small valid argv per command, as (option, value) pairs after the command name
VALID_ARGV = {
    "analytic": [("--m", "3"), ("--n", "2"), ("--K", "3"), ("--j", "2"), ("--p", "0.5"),
                 ("--d", "900"), ("--a", "300"), ("--s", "900")],
    "schedule": [("--policy", "uniform"), ("--K", "3"), ("--start", "Debian"),
                 ("--steps", "5"), ("--seed", "1")],
    "mc": [("--trials", "2"), ("--intervals", "6"), ("--K", "3"),
           ("--policies", "diversity,uniform,random_k"), ("--seed", "1")],
    "scenario": [("--N", "1,3"), ("--T", "10"), ("--samples", "3"), ("--d", "900"),
                 ("--delay", "20,30"), ("--exploit", "0@5"), ("--exploit", "1,2"), ("--seed", "1")],
}


@pytest.mark.parametrize("samples", [2**63, 2**62, 10**11], ids=["2-63", "2-62", "1e11"])
def test_scenario_samples_past_the_cap(valid_manifests, tmp_path, samples):
    # each used to end in a NumPy error or an allocation failure, not a message naming the field
    source = tmp_path / "run_manifest.json"
    source.write_text(json.dumps({**valid_manifests["scenario"], "samples": samples}), encoding="utf-8")
    code, err = run_cli(["scenario", "--from-manifest", str(source), "--outdir", str(tmp_path / "out")])
    assert (code, err) == (2, f"error: {source}: samples must be at most 100000000\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [10_001, 10**8], ids=["10001", "1e8"])
def test_scenario_exploits_past_the_target_cap(valid_manifests, tmp_path, n):
    # two overlapping exploits name 10,001 distinct platforms below N, one more than the cap
    exploits = [{"platforms": list(range(6_000)), "arrival": 0.0},
                {"platforms": list(range(5_000, 10_001)), "arrival": None}]
    source = tmp_path / "run_manifest.json"
    source.write_text(
        json.dumps({**valid_manifests["scenario"], "n_values": [n], "exploits": exploits}), encoding="utf-8"
    )
    code, err = run_cli(["scenario", "--from-manifest", str(source), "--outdir", str(tmp_path / "out")])
    message = "exploits may target at most 10000 platforms below the largest N"
    assert (code, err) == (2, f"error: {source}: {message}\n")
    assert not (tmp_path / "out").exists()


class TestFuzzedInputKeepsExitContract:
    @FUZZ
    @given(st.data(), st.sampled_from(["mc", "scenario"]), st.sampled_from(sorted(MUTATIONS)))
    def test_manifest(self, valid_manifests, data, command, mutation):
        manifest = valid_manifests[command]
        path = data.draw(st.sampled_from(list(tree_paths(manifest))), label="path")
        with tempfile.TemporaryDirectory() as scratch:
            source = Path(scratch) / "run_manifest.json"
            source.write_text(json.dumps(mutated(manifest, path, MUTATIONS[mutation])), encoding="utf-8")
            assert_contract([command, "--from-manifest", str(source)], Path(scratch) / "out")

    @FUZZ
    @given(st.data(), st.sampled_from(sorted(VALID_ARGV)), st.sampled_from(sorted(TEXT_MUTATIONS)))
    def test_argv(self, data, command, mutation):
        options = VALID_ARGV[command]
        at = data.draw(st.integers(0, len(options) - 1), label="option")
        value = TEXT_MUTATIONS[mutation]
        argv = [command]
        for index, (option, given_value) in enumerate(options):
            if index != at:
                argv += [option, given_value]
            elif value is not DROP:
                argv.append(f"{option}={value}")
        with tempfile.TemporaryDirectory() as scratch:
            assert_contract(argv, Path(scratch) / "out")

    @FUZZ
    @given(st.data(), st.sampled_from(["mc", "schedule"]), st.sampled_from(sorted(TEXT_MUTATIONS)))
    def test_similarity_csv(self, data, command, mutation):
        rows = [line.split(",") for line in bundled_similarity_path().read_text(encoding="utf-8").splitlines()]
        row = data.draw(st.integers(0, len(rows) - 1), label="row")
        cell = data.draw(st.integers(0, len(rows[row]) - 1), label="cell")
        value = TEXT_MUTATIONS[mutation]
        if value is DROP:
            del rows[row][cell]
        else:
            rows[row][cell] = value
        extra = ["--trials", "2", "--intervals", "6"] if command == "mc" else ["--steps", "5"]
        with tempfile.TemporaryDirectory() as scratch:
            source = Path(scratch) / "similarity.csv"
            source.write_text("\n".join(",".join(cells) for cells in rows) + "\n", encoding="utf-8")
            assert_contract([command, "--similarity", str(source), *extra], Path(scratch) / "out")
