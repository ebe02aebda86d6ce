"""Self-test of the benchmark. Run from the repository root::

    python3 -m pytest benchmarks -q

It runs every workload at smoke size (``--seconds 1``: the warm-up study,
its replay and one timed study), checks the printed metrics against
``BENCHMARK.json``, and checks that a corrupted artifact counts as a
failed operation. It takes about a minute on a 2-CPU machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import Target, Tracer, per_layer_units
from workloads import WIDE_PLATFORMS, WORKLOADS, wide_similarity_csv

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_spec_lists_what_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 3
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in expected}
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_corrupted_artifact_byte_is_a_failed_operation(tmp_path):
    cli = run.load_program()

    def corrupt(label, outdir):
        if label == "study-1":
            target = outdir / "success_fraction.csv"
            data = bytearray(target.read_bytes())
            data[len(data) // 2] ^= 1
            target.write_bytes(bytes(data))

    result = run.run_workload(
        cli, WORKLOADS["scenario-sweep"], 1, 0.01, False, tmp_path, on_artifacts=corrupt
    )
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)


def test_tracer_lists_missing_names_and_restores_originals():
    run.load_program()
    from diversity_lab import simulator

    substream = simulator.substream
    from_samples = vars(simulator.EmpiricalCdf)["from_samples"]
    tracer = Tracer(
        targets=(
            Target("gone.function", "simulator", "no_such_function"),
            Target("gone.module", "no_such_module", "anything"),
            Target("rng.substream", "simulator", "substream"),
            Target("simulator.cdf", "simulator", "EmpiricalCdf.from_samples"),
        )
    )
    tracer.install()
    try:
        assert tracer.missing == ["simulator.no_such_function", "no_such_module.anything"]
        assert simulator.substream is not substream
        simulator.substream(0, 1)
        assert simulator.EmpiricalCdf.from_samples([0.5, 0.25]).probs == (0.5, 1.0)
    finally:
        tracer.uninstall()
    assert simulator.substream is substream
    assert vars(simulator.EmpiricalCdf)["from_samples"] is from_samples
    stats, total_self = tracer.summarize()
    assert {name: entry[0] for name, entry in stats.items()} == {
        "rng.substream": 1,
        "simulator.cdf": 1,
    }
    assert total_self > 0


def test_wide_input_is_a_valid_seeded_matrix(tmp_path):
    cli = run.load_program()
    assert wide_similarity_csv(3) == wide_similarity_csv(3)
    assert wide_similarity_csv(3) != wide_similarity_csv(4)
    text = wide_similarity_csv(3)
    (tmp_path / "wide.csv").write_text(text, encoding="utf-8")
    sim = cli.load_similarity_matrix(tmp_path / "wide.csv")
    raw = np.array([row.split(",")[1:] for row in text.splitlines()[1:]], dtype=float)
    assert sim.count == WIDE_PLATFORMS
    assert np.array_equal(raw, raw.T)
    assert np.all(np.diag(raw) == 1.0)
    off = raw[~np.eye(WIDE_PLATFORMS, dtype=bool)]
    assert off.min() >= 0.0 and off.max() < 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = bench("--workload", "mc-default", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
