"""Span tracer that wraps the program's cross-module calls from outside.

Each target names a function the way its caller looks it up: a name in
the caller module's namespace (``simulator.substream``) or an attribute
of a class (``core.SimilarityMatrix.distances``). ``install`` swaps in a
wrapper that records one span per call and ``uninstall`` puts the
original back. A target that no longer exists on a commit is listed in
``missing`` instead of failing the run, so the benchmark runs unchanged
across refactors that rename or remove these functions.

A span is ``(name, start_ns, end_ns, parent)`` where ``parent`` is the
index of the enclosing span, or -1. Spans stay in memory for one study
and are reduced to per-name statistics after it. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np

from workloads import SCENARIO_N

PACKAGE = "diversity_lab"
POLICIES = ("diversity", "uniform", "random_k")
OTHER = "other"


def _trial_policy(tracer: Tracer, args, kwargs) -> str:
    policy = kwargs["policy"] if "policy" in kwargs else args[1]
    return policy.kind.value


def _enclosing_policy(tracer: Tracer, args, kwargs) -> str:
    return tracer.context or OTHER


def _pool_size(tracer: Tracer, args, kwargs) -> str:
    return f"n{kwargs['n'] if 'n' in kwargs else args[0]}"


@dataclass(frozen=True)
class Target:
    """``metric`` is the callee's layer and name; ``module``/``attr`` say where the caller finds it.

    ``label`` appends a suffix to the span name per call. With ``scope``
    the suffix is also the context seen by spans nested in the call.
    """

    metric: str
    module: str
    attr: str
    label: Callable | None = None
    scope: bool = False


TARGETS = (
    Target("cli.main", "cli", "main"),
    Target("core.load_similarity_matrix", "cli", "load_similarity_matrix"),
    Target("simulator.run_mc_study", "cli", "run_mc_study"),
    Target("scenario.run_scenario_study", "cli", "run_scenario_study"),
    Target("rng.substream", "simulator", "substream"),
    Target("rng.substream", "scenario", "substream"),
    Target("simulator.assign_vulnerabilities", "simulator", "assign_vulnerabilities"),
    Target("simulator.run_mc_trial", "simulator", "run_mc_trial", _trial_policy, scope=True),
    Target("scheduler.make_random_k_policy", "simulator", "make_random_k_policy"),
    Target("scheduler.step_schedule", "simulator", "step_schedule", _enclosing_policy),
    Target("core.distances", "core", "SimilarityMatrix.distances"),
    Target("simulator.compute_metrics", "simulator", "compute_metrics"),
    Target("simulator.cdf", "simulator", "EmpiricalCdf.from_samples"),
    Target("scenario.max_control_run", "scenario", "max_control_run", _pool_size),
)

STAT_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p90_us": "us"}

#: (span name, statistics reported for it). A span with no calls in a
#: workload reports zero for each statistic.
LAYER_STATS = (
    *((f"scheduler.step_schedule.{p}", ("calls", "self_s")) for p in POLICIES),
    ("scheduler.make_random_k_policy", ("calls", "self_s")),
    ("core.distances", ("calls", "self_s")),
    ("core.load_similarity_matrix", ("self_s",)),
    ("rng.substream", ("calls", "self_s", "p50_us")),
    ("simulator.run_mc_study", ("self_s",)),
    ("simulator.assign_vulnerabilities", ("calls", "self_s")),
    *((f"simulator.run_mc_trial.{p}", ("calls", "self_s", "p50_us", "p90_us")) for p in POLICIES),
    ("simulator.compute_metrics", ("self_s",)),
    ("simulator.cdf", ("calls", "self_s")),
    ("scenario.run_scenario_study", ("self_s",)),
    *(
        (f"scenario.max_control_run.n{n}", ("calls", "self_s", "p50_us", "p90_us"))
        for n in SCENARIO_N
    ),
    ("cli.main", ("self_s",)),
)

#: Per-run metrics beside the span statistics.
RUN_UNITS = {
    "cli.output_bytes": "bytes",
    "trace.study_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
    "trace.missing": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {
        f"{span}.{stat}": STAT_UNITS[stat] for span, stats in LAYER_STATS for stat in stats
    }
    units.update(RUN_UNITS)
    return units


class Tracer:
    """Installs span-recording wrappers on ``targets`` and collects their spans."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list = []
        self.context: str | None = None
        self.missing: list[str] = []
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for target in self.targets:
            owner, name = self._resolve(target)
            if owner is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            raw = vars(owner)[name]
            self._originals.append((owner, name, raw))
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, name, type(raw)(self._wrap(raw.__func__, target)))
            else:
                setattr(owner, name, self._wrap(raw, target))

    def uninstall(self) -> None:
        while self._originals:
            owner, name, raw = self._originals.pop()
            setattr(owner, name, raw)

    def reset(self) -> None:
        self.spans = []
        self.context = None

    def _resolve(self, target: Target):
        try:
            owner = importlib.import_module(f"{PACKAGE}.{target.module}")
        except ImportError:
            return None, None
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or name not in vars(owner):
            return None, None
        return owner, name

    def _wrap(self, fn, target: Target):
        tracer = self
        base, label, scope = target.metric, target.label, target.scope

        def traced(*args, **kwargs):
            name = base
            if label is not None:
                try:
                    suffix = label(tracer, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    suffix = OTHER
                name = f"{base}.{suffix}"
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            stack = tracer._stack
            parent = stack[-1]
            stack.append(index)
            if scope:
                outer, tracer.context = tracer.context, suffix
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                if scope:
                    tracer.context = outer
                stack.pop()
                spans[index] = (name, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def summarize(self) -> tuple[dict[str, tuple[int, float, np.ndarray]], float]:
        """Per span name: (calls, self seconds, durations in µs); plus total self seconds."""
        if not self.spans:
            return {}, 0.0
        names, starts, ends, parents = zip(*self.spans)
        duration = np.subtract(ends, starts, dtype=np.int64)
        parents = np.asarray(parents, dtype=np.int64)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested], minlength=len(names))
        self_ns = duration - covered
        index: dict[str, list[int]] = {}
        for position, name in enumerate(names):
            index.setdefault(name, []).append(position)
        stats = {}
        for name, positions in index.items():
            rows = np.asarray(positions)
            stats[name] = (len(rows), float(self_ns[rows].sum()) / 1e9, duration[rows] / 1e3)
        return stats, float(self_ns.sum()) / 1e9
