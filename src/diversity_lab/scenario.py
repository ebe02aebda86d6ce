"""Continuous-time scenario engine.

Abstracts a live rotation deployment: the application dwells on one of N
platforms for a uniformly random delay, migrates to a uniformly random
other platform (no immediate repeat), and exploits arrive at configured
or random times, permanently marking their target platforms exploited.
The attacker succeeds in a sample when the active platform is exploited
for at least T contiguous seconds within the trial duration. Simulation
is event-driven (migrations and exploit arrivals), not tick-based.

``max_control_run`` simulates one sample with scalar draws.
``run_scenario_study`` gets the same draws for many samples at once from
``rng.draws`` and evaluates them in one stay-major pass:
``scheduler.uniform_walks``, the no-repeat walk of the Monte Carlo
study, gives the platforms, and one loop over the stays scans the
control runs of every sample at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import is_int, is_number, is_number_list, list_of, manifest_value
from .rng import WORD_CELLS, DrawPlan, draw_plan, draws, substream
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
#: with N > 1 is refused, since the scalar simulation steps through each stay.
MAX_STAYS = 100_000
#: Samples per N: each holds about 16 B of arrays through the sweep, 1.6 GB at the cap.
MAX_SAMPLES = 100_000_000
#: Distinct platforms below the largest N that exploits may target; each holds a time per sample.
MAX_TARGETED = 10_000


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
        # uniform_walks holds platforms in intp arrays, so N is at most sys.maxsize
        if not self.n_values or any(not 1 <= n <= sys.maxsize for n in self.n_values):
            raise ValueError(f"platform counts must be between 1 and {sys.maxsize}")
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
        largest = max(self.n_values)
        if len({p for spec in self.exploits for p in spec.platforms if p < largest}) > MAX_TARGETED:
            raise ValueError(f"exploits may target at most {MAX_TARGETED} platforms below the largest N")
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


def max_control_run(
    n: int,
    duration: float,
    delay: tuple[float, float],
    exploits: tuple[ExploitSpec, ...],
    rng: np.random.Generator,
) -> float:
    """Longest contiguous attacker-control span (seconds) in one sample.

    Draw order per sample: exploit arrivals (for unspecified arrivals) in
    exploit order, then the initial platform, then one dwell per stay and
    one choice per migration. With ``n == 1`` the platform never
    migrates. Control persists across a migration when the next platform
    is already exploited at handover; migration time itself is treated as
    negligible.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = delay
    arrivals = [
        spec.arrival if spec.arrival is not None else float(rng.uniform(0.0, duration))
        for spec in exploits
    ]
    # keyed by the targeted platforms only, so its size does not grow with n
    exploited_at: dict[int, float] = {}
    for spec, arrival in zip(exploits, arrivals):
        for platform in spec.platforms:
            if platform < n:
                exploited_at[platform] = min(exploited_at.get(platform, math.inf), arrival)

    current = int(rng.integers(n)) if n > 1 else 0
    segments: list[tuple[float, float]] = []
    now = 0.0
    while now < duration:
        if n == 1:
            dwell_end = duration
        else:
            dwell_end = min(now + float(rng.uniform(lo, hi)), duration)
        arrival = exploited_at.get(current, math.inf)
        if arrival < dwell_end:
            segments.append((max(now, arrival), dwell_end))
        now = dwell_end
        if n > 1 and now < duration:
            draw = int(rng.integers(n - 1))
            if draw >= current:
                draw += 1
            current = draw

    best = 0.0
    run_start: float | None = None
    run_end = 0.0
    for start, end in segments:
        if run_start is not None and start == run_end:
            run_end = end
        else:
            if run_start is not None:
                best = max(best, run_end - run_start)
            run_start, run_end = start, end
    if run_start is not None:
        best = max(best, run_end - run_start)
    return best


def _exploit_table(
    drawn: np.ndarray, exploits: tuple[ExploitSpec, ...], spec_rows: list[np.ndarray], size: int
) -> np.ndarray:
    """Each sample's exploit time in each of ``size`` rows; ``spec_rows`` holds each exploit's rows.

    ``drawn`` holds the random arrivals, one row per exploit without a fixed arrival. A row no
    exploit sets stays ``inf``. As with ``min()`` in ``max_control_run``, a platform takes an
    arrival only if it is earlier.
    """
    table = np.full((size, drawn.shape[1]), np.inf)
    drawn_rows = iter(drawn)
    for spec, at in zip(exploits, spec_rows):
        arrival = next(drawn_rows) if spec.arrival is None else spec.arrival
        # np.minimum keeps its second operand on a tie, as min() keeps its first
        table[at] = np.minimum(arrival, table[at])
    return table


def _control_runs(
    start: np.ndarray, dwells: np.ndarray, moves: np.ndarray, table: np.ndarray, row: np.ndarray,
    duration: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's longest control run, and whether its drawn stays reach ``duration``.

    ``dwells`` and ``moves`` hold one row per stay: its dwell, and the draw
    after it before the no-repeat shift. One loop over stays carries every
    sample's stay end (summed left to right, as ``max_control_run`` does),
    run head and best run. A stay's control segment runs from
    ``max(previous end, exploit time)`` to its end; it continues the run
    when the previous stay was controlled and the segment starts at that
    stay's end. Slots past the trial end are empty stays at ``duration``.
    """
    samples = len(start)
    # the move after the last stay leads nowhere
    platforms = uniform_walks(start, moves[:-1].T)
    # a stay's exploit time is the table cell (row of its platform, sample)
    row, columns, cells = row * samples, np.arange(samples), table.ravel()
    bound, head, best = np.zeros(samples), np.zeros(samples), np.zeros(samples)
    previous_end, previous_control = np.zeros(samples), np.zeros(samples, bool)
    for dwell, platform in zip(dwells, platforms.T):
        bound += dwell
        end = np.minimum(bound, duration)
        arrival = cells.take(row.take(platform, mode="clip") + columns)
        joined = previous_control & (arrival <= previous_end)
        head = np.where(joined, head, np.maximum(previous_end, arrival))
        previous_control = arrival < end
        # uncontrolled, the head is the arrival, not before the end, or an empty stay repeats a run
        np.maximum(best, end - head, out=best)
        previous_end = end
    return best, bound >= duration


def _runs(config: ScenarioConfig, n: int, drawn: int, plan: DrawPlan) -> np.ndarray:
    """The longest control run of each sample at N = ``n``, each equal to ``max_control_run``'s.

    ``plan`` holds the ``drawn`` random arrivals, the start and then each
    stay's dwell and move.
    """
    duration, (lo, hi) = float(config.duration), config.delay
    targeted = sorted({p for spec in config.exploits for p in spec.platforms if p < n})
    # a sample holds its words and its column of the exploit table: a row per targeted platform and
    # a last row of inf for every other platform
    cells = max(plan.words, len(targeted) + 1)
    runs, exact = np.empty(config.samples), np.zeros(config.samples, bool)
    # with room for fewer than 3 samples, array steps through each stay are slower than scalar loops
    if 3 * cells <= WORD_CELLS and targeted[-1:] < [WORD_CELLS] and n <= 2**53:
        # each platform's table row; platforms past the last targeted one clip to the inf row
        row = np.full(targeted[-1] + 2 if targeted else 1, len(targeted), dtype=np.intp)
        row[targeted] = np.arange(len(targeted))
        spec_rows = [row[[p for p in spec.platforms if p < n]] for spec in config.exploits]
        for first in range(0, config.samples, WORD_CELLS // cells):
            rows = np.arange(first, min(first + WORD_CELLS // cells, config.samples))
            values = draws(plan, config.master_seed, n, rows)
            arrivals, start = values[:drawn], values[drawn]
            arrivals *= duration
            dwells, moves = values[drawn + 1 :: 2], values[drawn + 2 :: 2]
            dwells *= hi - lo
            dwells += lo
            if n == 1:  # no dwell is drawn: one stay, the whole trial
                dwells = np.full((1, len(rows)), duration)
            table = _exploit_table(arrivals, config.exploits, spec_rows, len(targeted) + 1)
            runs[rows], exact[rows] = _control_runs(start, dwells, moves, table, row, duration)
    for i in np.flatnonzero(~exact).tolist():
        rng = substream(config.master_seed, n, i)
        runs[i] = max_control_run(n, config.duration, config.delay, config.exploits, rng)
    return runs


def run_scenario_study(config: ScenarioConfig) -> list[GridPoint]:
    """Success fraction per (N, T) grid point.

    Samples are shared across the T sweep for each N, so the success
    fraction at T is the fraction of samples whose longest control run
    reaches T. Sample streams derive from (master seed, N, sample index).
    A sweep with N > 1 whose samples may need more than ``MAX_STAYS``
    stays raises ValueError before any sample is drawn.

    Each result equals ``max_control_run`` on the sample's stream. The
    samples of one N come in chunks of up to ``WORD_CELLS`` cells, one
    ``rng.draws`` call each; a sample's cells are the larger of its words
    and its exploit table rows. A chunk is evaluated in one stay-major
    pass: ``uniform_walks`` gives the platforms, and one loop over the
    stays scans all its samples' control runs at once. A sample whose
    drawn stays end before ``duration`` is rerun through
    ``max_control_run``. Every sample takes ``max_control_run`` where a
    chunk holds fewer than 3 samples (from about 29,100 stays at N > 2 and
    43,700 at N = 2), where a targeted platform is at least ``WORD_CELLS``,
    or where N exceeds 2**53, past exact doubles.
    """
    ratio = float(config.duration) / config.delay[0]
    if ratio > MAX_STAYS and max(config.n_values) > 1:
        raise ValueError(
            f"trial duration {config.duration} over the shortest delay {config.delay[0]} "
            f"asks for more than {MAX_STAYS} stays per sample"
        )
    drawn = sum(spec.arrival is None for spec in config.exploits)
    results: list[GridPoint] = []
    for n in config.n_values:
        # dwells are at least lo, so duration / lo stays reach the trial end,
        # plus slack for float sums that fall short; with N = 1 nothing is drawn after the start
        stays = 0 if n == 1 else int(ratio) + 2
        runs = _runs(config, n, drawn, draw_plan([0] * drawn + [n] + [0, n - 1] * stays))
        for t in config.t_values:
            hits = int(np.count_nonzero(runs >= t))
            results.append(GridPoint(n=n, t=t, success_fraction=hits / config.samples, samples=config.samples))
    return results
