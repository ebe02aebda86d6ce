#!/usr/bin/env python3
"""diversity-lab benchmark: closed-loop CLI studies, timed end to end or traced.

Run from the repository root::

    python3 benchmarks/run.py --workload mc-default --seed 0 --seconds 20 --trace 0

One single-threaded process imports ``diversity_lab`` from ``src/`` and
runs the workload's study through ``diversity_lab.cli.main`` again and
again for ``--seconds`` seconds; each study starts after the previous one
has written its files. Before timing, one warm-up study is run and then
replayed with ``--from-manifest``. Every study, the replay included, is
one operation, and it fails when the CLI exits nonzero or the
correctness gate (``gate.py``) rejects its artifacts.

``--trace 0`` prints the end-to-end metrics:

- ``study_s``: median time of one study, argv to last artifact;
- ``trials_per_s``: Monte Carlo trials per second of ``study_s``;
- ``setup_s``: median time for a fresh interpreter to import
  ``diversity_lab.cli`` and load the workload's similarity input;
- ``peak_rss_mb``: peak resident set of this process.

The two times are wall times scaled to a nominal host speed by a
calibration loop run around each of them (``HostClock``); the quartiles
line also gives the unscaled wall times.

``--trace 1`` wraps the program's cross-module calls (``tracer.py``) for
every second study and prints the per-layer metrics, each a median over
the traced studies; the untraced studies between them give the tracing
overhead.

The last line of standard output is the result object; the lines before
it give the provenance block and the quartiles behind each median.
Scratch files go under ``.bench_work/`` in the repository root; the
provenance block, the generated input and the spans of the last traced
study stay there beside the (deleted) study artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate
from tracer import LAYER_STATS, Tracer, per_layer_units
from workloads import WORKLOADS, Workload, wide_similarity_csv

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 7
CALIBRATION_STEPS = 15_000
#: Nominal duration of ``calibrate()``: its typical time on a 2-vCPU
#: Intel Xeon VM. Times are reported at the speed this defines.
CALIBRATION_S = 0.040
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import diversity_lab.cli as cli\n"
    "for path in sys.argv[2:]:\n"
    "    cli.load_similarity_matrix(path)\n"
)

END_TO_END_UNITS = {"study_s": "s", "trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MiB"}


class ProgramMissing(RuntimeError):
    """The checkout holds no diversity_lab sources to measure."""


def load_program(root: Path = ROOT):
    """Import ``diversity_lab.cli`` from ``root/src``, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "diversity_lab" / "cli.py").is_file():
        raise ProgramMissing(f"no diversity_lab sources under {src}")
    sys.path.insert(0, str(src))
    import diversity_lab.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"imported {cli.__file__}, not the copy under {src}")
    return cli


def run_study(cli, argv: list[str], outdir: Path) -> tuple[int, float]:
    """One in-process CLI study; returns its exit code and wall time."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv + ["--outdir", str(outdir)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return code, elapsed


def similarity_input(cli, workload: Workload, seed: int, workdir: Path):
    """The workload's similarity CSV (None for scenario) and the path ``--similarity`` gets."""
    if workload.wide_input:
        path = workdir / "similarity.csv"
        path.write_text(wide_similarity_csv(seed), encoding="utf-8")
        cli.load_similarity_matrix(path)
        return path, path
    if workload.command == "mc":
        return Path(cli.bundled_similarity_path()), None
    return None, None


def setup_command(src: Path, similarity: Path | None) -> list[str]:
    """A fresh interpreter that imports ``diversity_lab.cli`` and loads ``similarity``."""
    command = [sys.executable, "-c", SETUP_CODE, str(src)]
    return command if similarity is None else command + [str(similarity)]


def time_command(command: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(command, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def calibrate() -> float:
    """Wall time of a fixed interpreter-and-NumPy loop that shares no code with the program.

    The loop mixes what the studies spend their time on: scalar draws from
    a NumPy generator, small-array indexing, float arithmetic and list
    updates in the interpreter.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(7))
    scores = rng.random((5, 5))
    total = 0.0
    history: list[int] = []
    for step in range(CALIBRATION_STEPS):
        pick = int(rng.integers(5))
        total += float(scores[pick, step % 5])
        history.append(pick)
        if len(history) > 3:
            del history[0]
    return time.perf_counter() - start


class HostClock:
    """Converts wall times into seconds at the nominal host speed.

    On a shared 2-vCPU VM the speed of the whole guest drifts by up to 30%
    within minutes, for the studies and for ``calibrate()`` alike, which
    no number of studies in a run averages away. Each time is therefore
    scaled by ``CALIBRATION_S`` over the mean of the calibration loops run
    just before and just after it, which cancels the drift the two share.
    """

    def __init__(self) -> None:
        self.before = calibrate()
        self.paces: list[float] = []

    def adjust(self, wall: float) -> float:
        after = calibrate()
        pace = (self.before + after) / 2
        self.before = after
        self.paces.append(pace)
        return wall * CALIBRATION_S / pace


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def provenance(workload: Workload, seed: int, trace: bool, seconds: float, argv, similarity):
    """Where and on what the run measured; kept beside the CLI artifacts, never inside them."""
    import diversity_lab

    package = Path(diversity_lab.__file__).parent
    sources = sorted(p for p in package.rglob("*") if p.is_file() and p.suffix in (".py", ".csv"))
    source_digest = hashlib.sha256()
    for path in sources:
        source_digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        source_digest.update(path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "traced": trace,
        "seconds": seconds,
        "argv": [str(part) for part in argv],
        "similarity_sha256": _file_sha256(similarity) if similarity else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "diversity_lab": diversity_lab.__version__,
        "source_sha256": source_digest.hexdigest(),
        "git_commit": _git_commit(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def quartiles(values) -> dict:
    values = list(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Runs and gates the studies of one benchmark run and counts operations."""

    def __init__(self, cli, workload: Workload, argv: list[str], workdir: Path, on_artifacts=None):
        self.cli = cli
        self.workload = workload
        self.argv = argv
        self.workdir = workdir
        self.on_artifacts = on_artifacts
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def _record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"{self.workload.name} {label}: {problem}", file=sys.stderr)

    def study(self, keep: bool = False) -> tuple[Path, float, int]:
        """One gated study; returns its outdir (deleted unless ``keep``), time and output bytes."""
        label = f"study-{self.count}"
        self.count += 1
        outdir = self.workdir / label
        code, elapsed = run_study(self.cli, self.argv, outdir)
        if self.on_artifacts is not None:
            self.on_artifacts(label, outdir)
        command = self.workload.command
        problems = (
            [f"exit code {code}"] if code != 0 else gate.check(outdir, command, self.reference)
        )
        size = 0 if problems else gate.output_bytes(outdir, command)
        self._record(label, problems)
        if not keep:
            shutil.rmtree(outdir, ignore_errors=True)
        return outdir, elapsed, size

    def warm_up(self, pinned: dict[str, str] | None) -> int:
        """First study, checked against ``pinned`` and replayed; returns trials per study."""
        self.reference = pinned
        first, _, _ = self.study(keep=True)
        try:
            trials = gate.trials_per_study(first)
            if self.reference is None:
                self.reference = gate.digests(first, self.workload.command)
        except (OSError, ValueError, KeyError) as exc:
            raise RuntimeError(f"warm-up study left no usable artifacts: {exc}") from exc
        manifest = first / "run_manifest.json"
        replay = self.workdir / "replay"
        code, _ = run_study(self.cli, [self.workload.command, "--from-manifest", str(manifest)], replay)
        problems = [f"exit code {code}"] if code != 0 else []
        self._record("replay", problems + gate.replay_problems(first, replay, self.workload.command))
        shutil.rmtree(first, ignore_errors=True)
        shutil.rmtree(replay, ignore_errors=True)
        return trials

    def loop(self, seconds: float, tracer: Tracer | None = None):
        """Closed loop of studies for ``seconds``; yields (time, bytes, span stats) per study.

        With ``tracer``, every second study is traced, so that traced and
        untraced studies see the same host speed, and the loop ends on a
        traced study. Untraced studies yield None for span stats.
        """
        deadline = time.perf_counter() + seconds
        traced = False
        while True:
            if traced:
                tracer.reset()
                tracer.install()
            try:
                _, elapsed, size = self.study()
            finally:
                if traced:
                    tracer.uninstall()
            yield elapsed, size, tracer.summarize() if traced else None
            if time.perf_counter() >= deadline and (tracer is None or traced):
                return
            traced = tracer is not None and not traced


def write_spans(path: Path, workload: str, study: int, spans) -> None:
    """Spans of one traced study: name, start, end, parent span, workload and study."""
    with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
        handle.write("workload,study,span,name,start_ns,end_ns,parent\n")
        for index, (name, start, end, parent) in enumerate(spans):
            handle.write(f"{workload},{study},{index},{name},{start},{end},{parent}\n")


def traced_metrics(runner: Runner, seconds: float, workdir: Path):
    """Alternating untraced and traced studies; per-layer metrics and the quartiles of study time."""
    tracer = Tracer()
    untraced, traced = [], []
    for elapsed, size, spans in runner.loop(seconds, tracer):
        if spans is None:
            untraced.append(elapsed)
        else:
            traced.append((elapsed, size, spans))
    write_spans(workdir / "spans.csv.gz", runner.workload.name, runner.count - 1, tracer.spans)
    samples: dict[str, list[float]] = {}
    durations: dict[str, list[np.ndarray]] = {}
    for elapsed, size, (stats, total_self) in traced:
        for span, _ in LAYER_STATS:
            calls, self_s, durations_us = stats.get(span, (0, 0.0, np.zeros(0)))
            samples.setdefault(f"{span}.calls", []).append(calls)
            samples.setdefault(f"{span}.self_s", []).append(self_s)
            durations.setdefault(span, []).append(durations_us)
        samples.setdefault("cli.output_bytes", []).append(size)
        samples.setdefault("trace.study_s", []).append(elapsed)
        samples.setdefault("trace.unaccounted_s", []).append(elapsed - total_self)
        samples.setdefault("trace.spans", []).append(sum(entry[0] for entry in stats.values()))
    values = {name: statistics.median(series) for name, series in samples.items()}
    values["trace.overhead_s"] = values["trace.study_s"] - statistics.median(untraced)
    values["trace.missing"] = len(tracer.missing)
    # Percentiles pool the calls of every traced study, so that p90 keeps
    # at least ten calls beyond it on mc-wide's 50 trials per study.
    for span, series in durations.items():
        pooled = np.concatenate(series)
        for stat, q in (("p50_us", 50), ("p90_us", 90)):
            values[f"{span}.{stat}"] = float(np.percentile(pooled, q)) if pooled.size else 0.0
    spread = {"trace.study_s": quartiles(samples["trace.study_s"]), "study_s": quartiles(untraced)}
    return values, spread, tracer.missing


def run_workload(
    cli, workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path, on_artifacts=None
) -> dict:
    """One benchmark run; prints the provenance and quartile lines, returns the result object.

    ``on_artifacts(label, outdir)`` is called after each study, before it is gated.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    similarity, argument = similarity_input(cli, workload, seed, workdir)
    argv = workload.argv(seed, argument)
    block = provenance(workload, seed, trace, seconds, argv, similarity)
    (workdir / "provenance.json").write_text(json.dumps(block, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": block}))

    runner = Runner(cli, workload, argv, workdir, on_artifacts)
    if trace:
        trials = runner.warm_up(gate.pinned_digests(workload, seed))
        values, spread, missing = traced_metrics(runner, seconds, workdir)
        units = per_layer_units()
        if missing:
            print(json.dumps({"trace_missing": missing}))
    else:
        command = setup_command(Path(cli.__file__).resolve().parent.parent, similarity)
        time_command(command)  # may compile bytecode in a fresh checkout; not counted
        clock = HostClock()
        setup_wall = []
        setup = []
        for _ in range(SETUP_REPEATS):
            setup_wall.append(time_command(command))
            setup.append(clock.adjust(setup_wall[-1]))
        trials = runner.warm_up(gate.pinned_digests(workload, seed))
        clock = HostClock()
        wall = []
        times = []
        for elapsed, _, _ in runner.loop(seconds):
            wall.append(elapsed)
            times.append(clock.adjust(elapsed))
        study_s = statistics.median(times)
        values = {
            "study_s": study_s,
            "trials_per_s": trials / study_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        spread = {
            "study_s": quartiles(times),
            "setup_s": quartiles(setup),
            "study_wall_s": quartiles(wall),
            "setup_wall_s": quartiles(setup_wall),
            "calibration_s": quartiles(clock.paces),
        }
        units = END_TO_END_UNITS
    print(json.dumps({"quartiles": spread, "trials_per_study": trials}))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        cli = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    result = run_workload(
        cli, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
