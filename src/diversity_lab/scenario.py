"""Continuous-time scenario engine.

Abstracts a live rotation deployment: the application dwells on one of N
platforms for a uniformly random delay, migrates to a uniformly random
other platform (no immediate repeat), and exploits arrive at configured
or random times, permanently marking their target platforms exploited.
The attacker succeeds in a sample when the active platform is exploited
for at least T contiguous seconds within the trial duration. Simulation
is event-driven (migrations and exploit arrivals), not tick-based.

``run_scenario_study`` gets the draws of many samples at once from
``rng.draws`` and evaluates them in one stay-major pass:
``scheduler.uniform_walks``, the no-repeat walk of the Monte Carlo
study, gives the platforms, and one loop over the stays scans the
control runs of every sample at once. A stay's exploit time is one cell
of a table with a row per class of platforms that the same exploits
reach. ``tests/oracles.py`` keeps a scalar simulation of one sample on
its stream, which every result equals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_platform_count, is_int, is_number, is_number_list, list_of, manifest_value
from .rng import WORD_CELLS, draw_plan, draws
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


#: Stays a sample may need: a study whose ``duration / delay[0]`` exceeds it
#: with N > 1 is refused. At the bound, the words of 3 samples at N = 3 with two
#: drawn arrivals still fit in one ``WORD_CELLS`` chunk; narrower chunks scan slowly.
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


@dataclass(frozen=True)
class GridPoint:
    """Attacker success fraction for one (N, T) configuration."""

    n: int
    t: float
    success_fraction: float
    samples: int


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


def _runs(config: ScenarioConfig, n: int) -> np.ndarray:
    """The longest control run of each sample at N = ``n``.

    A sample draws the random arrivals, the start and then each stay's
    dwell and move. It plans ``_stays`` stays; a sample whose drawn stays
    end before ``duration`` is derived again, with the ``duration / lo + 2``
    stays that every sample reaches. The platforms below ``n`` that the
    same exploit platform sets reach form a class: its fixed arrivals fold
    to their earliest once, and it takes one row of each sample's exploit
    table, where its drawn arrivals fold per chunk.
    """
    duration, (lo, hi) = float(config.duration), config.delay
    # exploits that share a platform set act as one: the earliest fixed arrival, and the drawn ones
    earliest, draws_of, drawn = {}, {}, 0
    for spec in config.exploits:
        if spec.arrival is None:
            draws_of.setdefault(spec.platforms, []).append(drawn)
            drawn += 1
        else:
            earliest[spec.platforms] = min(earliest.get(spec.platforms, math.inf), spec.arrival)
    reached = {}
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
    if n == 1:  # nothing is drawn after the start
        planned = bound = 0
    else:
        bound = int(duration / lo) + 2
        planned = min(_stays(duration, config.delay), bound)
    runs, short = np.empty(config.samples), np.arange(config.samples)
    for stays in (planned, bound):
        plan = draw_plan([0] * drawn + [n] + [0, n - 1] * stays)
        per = max(1, WORD_CELLS // max(plan.words, len(classes)))
        ended = []
        for first in range(0, len(short), per):
            rows = short[first : first + per]
            (values,) = draws([plan], config.master_seed, n, rows)
            arrivals, start = values[:drawn], values[drawn]
            arrivals *= duration
            dwells, moves = values[drawn + 1 :: 2], values[drawn + 2 :: 2]
            dwells *= hi - lo
            dwells += lo
            if n == 1:  # one stay, the whole trial
                dwells = np.full((1, len(rows)), duration)
            table = _exploit_table(arrivals, classes)
            runs[rows], exact = _control_runs(start, dwells, moves, table, row, duration)
            ended.append(rows[~exact])
        short = np.concatenate(ended)
        if not short.size:
            return runs
    raise RuntimeError(f"{short.size} samples at N={n} end before {duration} s after {bound} stays")


def run_scenario_study(config: ScenarioConfig) -> list[GridPoint]:
    """Success fraction per (N, T) grid point.

    Samples are shared across the T sweep for each N, so the success
    fraction at T is the fraction of samples whose longest control run
    reaches T. Sample streams derive from (master seed, N, sample index).
    A sweep with N > 1 whose samples may need more than ``MAX_STAYS``
    stays raises ValueError before any sample is drawn.

    Each result equals the scalar simulation in ``tests/oracles.py`` on
    the sample's stream. Each sample plans the draws of ``_stays`` stays,
    as many as the delay distribution calls for with ``STAY_MARGIN``
    standard deviations to spare. The samples of one N come in chunks of
    up to ``WORD_CELLS`` cells, one ``rng.draws`` call each; a sample's
    cells are the larger of its words and its exploit table rows, one per
    class of platforms that the same exploits reach. A chunk is evaluated
    in one stay-major pass: ``uniform_walks`` gives the platforms, and one
    loop over the stays scans all its samples' control runs at once, up to
    the stay by which every sample has ended. A sample whose drawn stays
    end before ``duration`` is derived and scanned again, once, with every
    stay it can need. The T sweep sorts each N's runs once and counts the
    hits of every goal with one ``searchsorted``.
    """
    ratio = float(config.duration) / config.delay[0]
    if ratio > MAX_STAYS and max(config.n_values) > 1:
        raise ValueError(
            f"trial duration {config.duration} over the shortest delay {config.delay[0]} "
            f"asks for more than {MAX_STAYS} stays per sample"
        )
    results: list[GridPoint] = []
    goals = np.asarray(config.t_values, dtype=float)
    for n in config.n_values:
        runs = np.sort(_runs(config, n))
        # the runs below a goal miss it
        hits = config.samples - np.searchsorted(runs, goals)
        for t, hit in zip(config.t_values, hits.tolist()):
            results.append(GridPoint(n=n, t=t, success_fraction=hit / config.samples, samples=config.samples))
    return results


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
