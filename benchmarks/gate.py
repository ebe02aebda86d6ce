"""Correctness gate for the artifacts of one CLI study.

A study passes when its artifacts match the reference digests and satisfy
checks that hold for every seed:

- every fraction lies in [0, 1];
- every CDF is nondecreasing, and the vulnerable and compromised CDFs
  end at 1;
- the last value of each policy's ``cdf_ttc`` curve equals its
  ``compromise_incidence``;
- ``success_fraction`` does not increase with T for any N.

At the default workload seed the reference digests are the ones pinned
in ``reference_digests.json`` (written by ``record_digests.py``); at any
other seed they are the digests of the run's first study, so every later
study must repeat it byte for byte. Separately, a ``--from-manifest``
replay must reproduce the first study's artifacts byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference_digests.json")

ARTIFACTS = {
    "mc": (
        "metrics.json",
        "cdf_vulnerable.csv",
        "cdf_ttc.csv",
        "cdf_compromised.csv",
        "run_manifest.json",
    ),
    "scenario": ("success_fraction.csv", "run_manifest.json"),
}


def digests(outdir: Path, command: str) -> dict[str, str]:
    """SHA-256 of every artifact ``command`` writes; raises OSError if one is missing."""
    return {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in ARTIFACTS[command]
    }


def output_bytes(outdir: Path, command: str) -> int:
    return sum((outdir / name).stat().st_size for name in ARTIFACTS[command])


def pinned_digests(workload, seed: int) -> dict[str, str] | None:
    """Digests recorded for ``workload`` at the default seed, or None at other seeds."""
    if seed != DEFAULT_SEED:
        return None
    entry = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[workload.name]
    if entry["args"] != list(workload.args):
        raise ValueError(f"{REFERENCE_PATH.name} was recorded for other {workload.name} args")
    return entry["sha256"]


def trials_per_study(outdir: Path) -> int:
    """Monte Carlo trials in one study: mc trials, or scenario (N, sample) draws."""
    manifest = json.loads((outdir / "run_manifest.json").read_text(encoding="utf-8"))
    if manifest["command"] == "mc":
        return manifest["trials"]
    return manifest["samples"] * len(manifest["n_values"])


def check(outdir: Path, command: str, reference: dict[str, str] | None) -> list[str]:
    """Problems found in one study's artifacts; empty when the study passes."""
    try:
        found = digests(outdir, command)
    except OSError as exc:
        return [f"missing artifact: {exc}"]
    problems = [
        f"{name} differs from the reference digest"
        for name, digest in (reference or {}).items()
        if found.get(name) != digest
    ]
    try:
        problems += _INVARIANTS[command](outdir)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable artifact: {exc!r}")
    return problems


def replay_problems(first: Path, replay: Path, command: str) -> list[str]:
    """Artifacts of ``replay`` that are not byte-identical to those of ``first``."""
    problems = []
    for name in ARTIFACTS[command]:
        try:
            same = (first / name).read_bytes() == (replay / name).read_bytes()
        except OSError as exc:
            problems.append(f"replay: {exc}")
            continue
        if not same:
            problems.append(f"replay changed {name}")
    return problems


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


def _fraction_problems(label: str, value) -> list[str]:
    return [] if 0.0 <= value <= 1.0 else [f"{label} = {value!r} is outside [0, 1]"]


def _cdf_curves(path: Path) -> dict[str, list[tuple[float, float]]]:
    curves: dict[str, list[tuple[float, float]]] = {}
    for policy, value, prob in _read_rows(path):
        curves.setdefault(policy, []).append((float(value), float(prob)))
    return curves


def _mc_problems(outdir: Path) -> list[str]:
    metrics = json.loads((outdir / "metrics.json").read_text(encoding="utf-8"))
    problems = []
    for policy, entry in metrics.items():
        for key in ("mean_vulnerable_fraction", "mean_compromised_fraction", "compromise_incidence"):
            problems += _fraction_problems(f"{policy} {key}", entry[key])
    for name in ("cdf_vulnerable.csv", "cdf_ttc.csv", "cdf_compromised.csv"):
        curves = _cdf_curves(outdir / name)
        for policy, points in curves.items():
            values = [value for value, _ in points]
            probs = [prob for _, prob in points]
            if any(b <= a for a, b in zip(values, values[1:])):
                problems.append(f"{name} {policy}: values are not increasing")
            if any(b < a for a, b in zip(probs, probs[1:])):
                problems.append(f"{name} {policy}: CDF decreases")
            for prob in probs:
                problems += _fraction_problems(f"{name} {policy} probability", prob)
            if name != "cdf_ttc.csv":
                for value in values:
                    problems += _fraction_problems(f"{name} {policy} value", value)
        if name == "cdf_ttc.csv":
            for policy, entry in metrics.items():
                final = curves[policy][-1][1] if policy in curves else 0.0
                if final != entry["compromise_incidence"]:
                    problems.append(f"{name} {policy}: ends at {final!r}, incidence differs")
        else:
            for policy in metrics:
                if policy not in curves or curves[policy][-1][1] != 1.0:
                    problems.append(f"{name} {policy}: CDF does not end at 1")
    return problems


def _scenario_problems(outdir: Path) -> list[str]:
    problems = []
    by_n: dict[str, list[tuple[float, float]]] = {}
    for n, t, fraction, _samples in _read_rows(outdir / "success_fraction.csv"):
        by_n.setdefault(n, []).append((float(t), float(fraction)))
        problems += _fraction_problems(f"success_fraction N={n} T={t}", float(fraction))
    for n, points in by_n.items():
        fractions = [fraction for _, fraction in sorted(points)]
        if any(b > a for a, b in zip(fractions, fractions[1:])):
            problems.append(f"success_fraction increases with T for N={n}")
    return problems


_INVARIANTS = {"mc": _mc_problems, "scenario": _scenario_problems}
