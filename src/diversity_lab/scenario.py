"""Continuous-time scenario engine.

Abstracts a live rotation deployment: the application dwells on one of N
platforms for a uniformly random delay, migrates to a uniformly random
other platform (no immediate repeat), and exploits arrive at configured
or random times, permanently marking their target platforms exploited.
The attacker succeeds in a sample when the active platform is exploited
for at least T contiguous seconds within the trial duration. Simulation
is event-driven (migrations and exploit arrivals), not tick-based.

``run_scenario_study`` gets the draws of many samples at once from
``rng.draws`` and evaluates them in one stay-major pass. Every N > 1
plans the same stays, so a pass takes the samples of several N: one
``draws`` call decodes each N's plan straight into its columns of one
array, ``scheduler.uniform_walks``, the no-repeat walk of the Monte
Carlo study, gives the platforms, and one loop over the stays scans the
control runs of every sample at once. A stay's exploit time is one cell
of a table with a row per class of platforms that the same exploits
reach; the classes do not depend on N, so the sweep builds them once.
A pass holds at most ``PASS_CELLS`` cells, whatever the number of N.
``tests/oracles.py`` keeps a scalar simulation of one sample on its
stream, which every result equals.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import check_platform_count, is_int, is_number, is_number_list, list_of, manifest_value
from .rng import WORD_CELLS, DrawPlan, draw_plan, draws
from .scheduler import uniform_walks


@dataclass(frozen=True)
class ExploitSpec:
    """One exploit: the platforms it breaches and its arrival time.

    ``arrival`` is an absolute time in seconds, or None to draw the
    arrival uniformly over the trial duration per sample.
    """

    platforms: frozenset[int]
    arrival: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "platforms", frozenset(int(p) for p in self.platforms))
        if not self.platforms:
            raise ValueError("an exploit must target at least one platform")
        negative = sorted(p for p in self.platforms if p < 0)
        if negative:
            raise ValueError(f"exploit platforms {negative} are negative")
        if self.arrival is not None and not 0 <= self.arrival < math.inf:
            raise ValueError(f"exploit arrival must be finite and non-negative, got {self.arrival}")


#: Two network exploits with uniformly random arrivals: one breaches a
#: single platform, the other a pair.
DEFAULT_EXPLOITS = (
    ExploitSpec(frozenset({0})),
    ExploitSpec(frozenset({1, 2})),
)


#: Cells (samples × the larger of their plan's words and their exploit table's rows)
#: of one pass, across all its N values: every sample of as many N as fit, or as many
#: samples of one N. A pass holds at most 48 B a cell, 12 MiB, beside its N's plans (8 B
#: a draw each, and 16 B shared); the default sweep's 3 × 1,000 samples of 67 words take
#: one pass of 3.5 MiB. A constant, not an option: it sets cost and memory, not results.
PASS_CELLS = 2 * WORD_CELLS
#: Stays a sample may need: a study whose ``duration / delay[0]`` exceeds it
#: with N > 1 is refused. At the bound, the words of 3 samples at N = 3 with two
#: drawn arrivals still fit in ``WORD_CELLS``, so a pass holds at least 3 samples,
#: or every sample of the sweep if fewer; narrower passes scan slowly.
MAX_STAYS = 29_000
#: Samples per N: each holds about 16 B of arrays through the sweep, 1.6 GB at the cap.
MAX_SAMPLES = 100_000_000
#: Standard deviations of a sample's summed dwells that the planned stays leave spare. A constant, not
#: an option: a sample that still falls short is derived again with every stay it can need, so it sets
#: cost, not results.
STAY_MARGIN = 8


@dataclass(frozen=True)
class ScenarioConfig:
    """Grid of (N, T) scenario configurations sharing one engine setup."""

    t_values: tuple[float, ...]
    n_values: tuple[int, ...] = (3,)
    duration: float = 900.0
    delay: tuple[float, float] = (20.0, 30.0)
    samples: int = 300
    exploits: tuple[ExploitSpec, ...] = DEFAULT_EXPLOITS
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not self.t_values:
            raise ValueError("at least one attacker goal T is required")
        bad = [t for t in self.t_values if not 0 <= t < math.inf]
        if bad:
            raise ValueError(f"attacker goals must be finite and non-negative, got {bad[0]}")
        if not self.n_values:
            raise ValueError("at least one platform count N is required")
        for n in self.n_values:
            check_platform_count(n)
        if not 0 < self.duration < math.inf:
            raise ValueError(f"trial duration must be finite and positive, got {self.duration}")
        lo, hi = self.delay
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"migration delay must be finite with 0 < lo <= hi, got {self.delay}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples must be at most {MAX_SAMPLES}")
        if not self.exploits:
            raise ValueError("at least one exploit is required")
        if self.master_seed < 0:
            raise ValueError("master seed must be non-negative")

    def to_manifest(self) -> dict:
        """The run manifest fields of this sweep."""
        return {
            "seed": self.master_seed,
            "n_values": list(self.n_values),
            "t_values": list(self.t_values),
            "duration": self.duration,
            "delay": list(self.delay),
            "samples": self.samples,
            "exploits": [
                {"platforms": sorted(spec.platforms), "arrival": spec.arrival}
                for spec in self.exploits
            ],
        }

    @classmethod
    def from_manifest(cls, manifest: dict) -> ScenarioConfig:
        """The config that ``to_manifest`` wrote; every key's type is checked."""
        return cls(
            master_seed=manifest_value(manifest, "seed", is_int),
            n_values=tuple(manifest_value(manifest, "n_values", list_of(is_int))),
            t_values=tuple(manifest_value(manifest, "t_values", is_number_list)),
            duration=manifest_value(manifest, "duration", is_number),
            delay=tuple(manifest_value(manifest, "delay", list_of(is_number, length=2))),
            samples=manifest_value(manifest, "samples", is_int),
            exploits=tuple(
                ExploitSpec(
                    frozenset(manifest_value(entry, "platforms", list_of(is_int), "exploits.platforms")),
                    manifest_value(
                        entry, "arrival", lambda value: value is None or is_number(value), "exploits.arrival"
                    ),
                )
                for entry in manifest_value(
                    manifest, "exploits", list_of(lambda value: isinstance(value, dict))
                )
            ),
        )


def _exploit_table(drawn: np.ndarray, classes: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Each sample's exploit time in each class of platforms, one row per class.

    ``drawn`` holds the random arrivals, one row per drawn exploit in order. A class pairs the
    earliest fixed arrival of the exploits that reach it (``inf`` if none) with the rows of their
    drawn arrivals, and its table row is the earliest of them all, folded with one reduce. Any fold
    order gives the same number, up to the sign of a zero arrival, which no control run can tell.
    """
    table = np.empty((len(classes), drawn.shape[1]))
    for cells, (fixed, exploits) in zip(table, classes):
        np.minimum.reduce(drawn[exploits], axis=0, initial=fixed, out=cells)
    return table


def _control_runs(
    start: np.ndarray, dwells: np.ndarray, moves: np.ndarray, table: np.ndarray, row: np.ndarray,
    duration: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's longest control run, and whether its drawn stays reach ``duration``.

    ``dwells`` and ``moves`` hold one row per stay: its dwell, and the draw
    after it before the no-repeat shift. Each sample's stay ends are its
    dwells summed left to right, as a scalar loop sums them; they
    overwrite ``dwells``. One loop over the stays carries every sample's
    run head and best run in preallocated arrays; it stops at the first
    stay by which every sample has reached ``duration``. A stay's control
    segment runs from ``max(previous end, exploit time)`` to its end; it
    continues the run when the previous stay was controlled and the
    segment starts at that stay's end. Slots past a sample's trial end
    are empty stays at ``duration``. A stay's exploit time is the
    ``table`` cell in the row of its platform's class, through ``row``.
    """
    samples = len(start)
    # the stay ends, summed in place stay by stay: faster than a cumsum down the columns
    bounds = dwells
    with np.errstate(over="ignore"):  # an end past the float range is inf, as in a scalar sum
        for previous, bound in zip(bounds, bounds[1:]):
            bound += previous
    exact = bounds[-1] >= duration
    reached = bounds.min(axis=1) >= duration
    stays = int(reached.argmax()) + 1 if reached[-1] else len(bounds)
    ends = np.minimum(bounds[:stays], duration, out=bounds[:stays])
    # the move after the last stay leads nowhere
    platforms = uniform_walks(start, moves[: stays - 1].T)
    # a stay's exploit time is the table cell (row of its platform's class, sample)
    row, columns, cells = row * samples, np.arange(samples), table.ravel()
    head, best, previous_end = np.zeros(samples), np.zeros(samples), np.zeros(samples)
    arrival, index = np.empty(samples), np.empty(samples, np.intp)
    uncontrolled, fresh = np.ones(samples, bool), np.empty(samples, bool)
    for end, platform in zip(ends, platforms.T):
        row.take(platform, mode="clip", out=index)
        index += columns
        cells.take(index, out=arrival)
        # a segment starts a new run unless the previous stay was controlled and it starts at its end
        np.greater(arrival, previous_end, out=fresh)
        fresh |= uncontrolled
        np.greater_equal(arrival, end, out=uncontrolled)
        np.maximum(previous_end, arrival, out=arrival)
        np.copyto(head, arrival, where=fresh)
        # uncontrolled, the head is the arrival, not before the end, or an empty stay repeats a run
        np.subtract(end, head, out=arrival)
        np.maximum(best, arrival, out=best)
        previous_end = end
    return best, exact


def _exploit_classes(config: ScenarioConfig) -> tuple[int, list[tuple[float, np.ndarray]], np.ndarray]:
    """The drawn arrivals per sample, the classes of platforms, and each platform's class.

    The platforms below the sweep's largest N that the same exploit
    platform sets reach form a class: its fixed arrivals fold to their
    earliest once, and it takes one row of each sample's exploit table,
    where its drawn arrivals fold per pass. A platform's class does not
    depend on N, and a walk over n platforms never reaches platform n, so
    one row map serves every N of the sweep.
    """
    # exploits that share a platform set act as one: the earliest fixed arrival, and the drawn ones
    earliest, draws_of, drawn = {}, {}, 0
    for spec in config.exploits:
        if spec.arrival is None:
            draws_of.setdefault(spec.platforms, []).append(drawn)
            drawn += 1
        else:
            earliest[spec.platforms] = min(earliest.get(spec.platforms, math.inf), spec.arrival)
    reached, n = {}, max(config.n_values)
    for platforms in {**earliest, **draws_of}:
        for p in platforms:
            if p < n:
                reached.setdefault(p, []).append(platforms)
    # class 0, reached by no set, also takes every platform past the last one reached
    row, index = np.zeros(max(reached, default=-1) + 2, dtype=np.intp), {(): 0}
    for p, sets in reached.items():
        row[p] = index.setdefault(tuple(sets), len(index))
    classes = []
    for sets in index:
        fixed = min((earliest.get(platforms, math.inf) for platforms in sets), default=math.inf)
        exploits = [i for platforms in sets for i in draws_of.get(platforms, [])]
        classes.append((fixed, np.array(exploits, dtype=np.intp)))
    return drawn, classes, row


def _passes(
    config: ScenarioConfig, exploits: tuple, ns: list[int], samples: np.ndarray, stays: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Each N of ``ns`` with the longest control run of each of ``samples``, and the samples
    whose ``stays`` drawn stays end before ``duration``, one group of N at a time.

    Every N plans ``stays`` stays, so the plans have one length; N = 1
    plans none and takes one stay, the whole trial. A pass derives and
    scans up to ``PASS_CELLS`` cells of the (N, sample) grid: one
    ``draws`` call that decodes every N's plan straight into its columns
    of one array, one exploit table, and one ``_control_runs`` scan of
    all its columns. Each N's run of a ``draws`` call has a cost of its
    own, so a pass takes as many samples of one N as fit, then as many N
    as that leaves room for: a group. A group of several N takes one pass
    and one N may take several; a group's runs are held until it is done.
    """
    drawn, classes, row = exploits
    duration, (lo, hi) = float(config.duration), config.delay

    def bounds(n: int) -> list[int]:
        return [0] * drawn + [n] + [0, n - 1] * stays

    # every N >= 3 takes a 32-bit draw at each bound, so their plans share the largest N's words and
    # halves; N = 2's moves are integers(1), which take none
    widest = draw_plan(bounds(max(ns)))

    def plan(n: int) -> DrawPlan:
        return widest._replace(bounds=np.array(bounds(n))) if n > 2 else draw_plan(bounds(n))

    columns = max(1, PASS_CELLS // max(widest.words, len(classes)))
    per = min(len(samples), columns)
    size = min(len(ns), columns // per)
    for at in range(0, len(ns), size):
        group = ns[at : at + size]
        plans, keys = [plan(n) for n in group], np.array(group)[:, None]
        runs, exact = np.empty((len(group), len(samples))), np.empty((len(group), len(samples)), dtype=bool)
        for first in range(0, len(samples), per):
            rows = samples[first : first + per]
            values = np.zeros((len(plans[0].bounds), len(group) * len(rows)))
            draws(plans, config.master_seed, keys, rows, out=values)
            arrivals, start = values[:drawn], values[drawn]
            arrivals *= duration
            dwells, moves = values[drawn + 1 :: 2], values[drawn + 2 :: 2]
            dwells *= hi - lo
            dwells += lo
            if not stays:  # N = 1: one stay, the whole trial
                dwells = np.full((1, values.shape[1]), duration)
            table = _exploit_table(arrivals, classes)
            best, ended = _control_runs(start, dwells, moves, table, row, duration)
            runs[:, first : first + per] = best.reshape(len(group), -1)
            exact[:, first : first + per] = ended.reshape(len(group), -1)
        for n, sweep, ended in zip(group, runs, exact):
            yield n, sweep, samples[~ended]


def _runs(config: ScenarioConfig) -> Iterator[tuple[int, np.ndarray]]:
    """Each distinct N of the sweep with the longest control run of each sample.

    A sample draws the random arrivals, the start and then each stay's
    dwell and move. Every N > 1 plans ``_stays`` stays, so their samples
    are derived and scanned together in ``_passes``; a sample whose drawn
    stays end before ``duration`` is derived again, one N at a time, with
    the ``duration / lo + 2`` stays that every sample reaches.
    """
    exploits, samples = _exploit_classes(config), np.arange(config.samples)
    if 1 in config.n_values:
        ((n, runs, _),) = _passes(config, exploits, [1], samples, 0)
        yield n, runs
    ns = [n for n in dict.fromkeys(config.n_values) if n > 1]
    if not ns:
        return
    duration = float(config.duration)
    bound = int(duration / config.delay[0]) + 2
    for n, runs, short in _passes(config, exploits, ns, samples, min(_stays(duration, config.delay), bound)):
        if short.size:
            ((_, again, still),) = _passes(config, exploits, [n], short, bound)
            if still.size:
                raise RuntimeError(f"{still.size} samples at N={n} end before {duration} s after {bound} stays")
            runs[short] = again
        yield n, runs


def run_scenario_study(config: ScenarioConfig) -> np.ndarray:
    """The success fraction of every (N, T) configuration: a float64 array, a row per N and a column per T.

    Rows follow ``config.n_values`` and columns ``config.t_values``; a
    repeated N repeats its row. Samples are shared across the T sweep for
    each N, so the success fraction at T is the fraction of samples whose
    longest control run reaches T: hits ÷ ``samples``, both below 2**53,
    so the double that int ÷ int gives. Sample streams derive from
    (master seed, N, sample index). A sweep with N > 1 whose samples may
    need more than ``MAX_STAYS`` stays raises ValueError before any
    sample is drawn.

    Each result equals the scalar simulation in ``tests/oracles.py`` on
    the sample's stream. Each sample plans the draws of ``_stays`` stays,
    as many as the delay distribution calls for with ``STAY_MARGIN``
    standard deviations to spare, whatever its N > 1. The (N, sample)
    grid comes in passes of up to ``PASS_CELLS`` cells: every sample of
    as many N as fit, or as many samples of one N. A sample's cells are
    the larger of its words and its exploit table rows, one per class of
    platforms that the same exploits reach. A pass is one ``rng.draws``
    call, which decodes each N's draws into its columns of one array, and
    one stay-major scan: ``uniform_walks`` gives the platforms, and one
    loop over the stays scans all its samples' control runs at once, up to
    the stay by which every sample has ended. A sample whose drawn stays
    end before ``duration`` is derived and scanned again, once, with every
    stay it can need. The T sweep sorts each N's runs once its pass is
    done and counts the hits of every goal with one ``searchsorted``.
    """
    ratio = float(config.duration) / config.delay[0]
    if ratio > MAX_STAYS and max(config.n_values) > 1:
        raise ValueError(
            f"trial duration {config.duration} over the shortest delay {config.delay[0]} "
            f"asks for more than {MAX_STAYS} stays per sample"
        )
    goals = np.asarray(config.t_values, dtype=float)
    hits = {}
    for n, runs in _runs(config):
        runs.sort()
        hits[n] = config.samples - np.searchsorted(runs, goals)  # the runs below a goal miss it
    return np.array([hits[n] for n in config.n_values], dtype=float) / config.samples


def _stays(duration: float, delay: tuple[float, float]) -> int:
    """The stays planned per sample: enough for all but a negligible share of samples.

    A sum of s dwells, uniform on ``[lo, hi]``, has mean ``s·(lo + hi)/2``
    and standard deviation ``√s·(hi − lo)/√12``. The plan takes the least
    s whose mean, less ``STAY_MARGIN`` standard deviations, reaches
    ``duration``, plus one for float sums that fall short; ``_runs`` caps
    it at the ``duration / lo + 2`` stays that every sample reaches. It is solved
    as a quadratic in √s, in units of the mean dwell, so nothing
    overflows.
    """
    lo, hi = delay
    mean = lo + (hi - lo) / 2  # at least lo: lo / 2 + hi / 2 underflows to 0 for the least subnormals
    spread = STAY_MARGIN / math.sqrt(12) * ((hi - lo) / mean)
    root = (spread + math.sqrt(spread * spread + 4 * (duration / mean))) / 2
    return math.ceil(root * root) + 1
