"""The experiment scripts under ``scripts/`` run end to end in a fresh interpreter.

Each runs with ``-W error``, so a warning fails it, and with the
library's ``src`` directory on ``PYTHONPATH``.
"""

import os
import subprocess
import sys
from pathlib import Path

import diversity_lab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
MC_ARTIFACTS = {"metrics.json", "cdf_vulnerable.csv", "cdf_ttc.csv", "cdf_compromised.csv", "run_manifest.json"}


def run_script(name, *argv):
    env = {**os.environ, "PYTHONPATH": str(Path(diversity_lab.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-W", "error", str(SCRIPTS / name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_reproduce_mc_study(tmp_path):
    done = run_script("reproduce_mc_study.py", "--outdir", str(tmp_path))
    assert (done.returncode, done.stderr) == (0, "")
    assert {path.name for path in tmp_path.iterdir()} == MC_ARTIFACTS
    # the CLI's output path, then a header and one row per policy
    lines = done.stdout.splitlines()
    assert lines[1].split() == ["policy", "vulnerable", "compromised", "incidence"]
    assert sorted(line.split()[0] for line in lines[2:]) == ["diversity", "random_k", "uniform"]


def test_scenario_sweep(tmp_path):
    done = run_script("scenario_sweep.py", "--samples", "20", "--outdir", str(tmp_path))
    assert (done.returncode, done.stderr) == (0, "")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["n1", "n3", "n5"]
    for outdir in tmp_path.iterdir():
        assert {path.name for path in outdir.iterdir()} == {"success_fraction.csv", "run_manifest.json"}
    assert [line.split(":")[0] for line in done.stdout.splitlines() if line.startswith("N=")] == [
        "N=1", "N=3", "N=5"
    ]
