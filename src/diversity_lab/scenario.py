"""Continuous-time scenario engine.

Abstracts a live rotation deployment: the application dwells on one of N
platforms for a uniformly random delay, migrates to a uniformly random
other platform (no immediate repeat), and exploits arrive at configured
or random times, permanently marking their target platforms exploited.
The attacker succeeds in a sample when the active platform is exploited
for at least T contiguous seconds within the trial duration. Simulation
is event-driven (migrations and exploit arrivals), not tick-based.

``max_control_run`` simulates one sample with scalar draws.
``run_scenario_study`` gets the same draws in bulk: it takes the raw
PCG64 words of many samples' streams at once from ``rng.stream_words``
and decodes them the way NumPy's ``Generator`` would. It then evaluates
them in one stay-major pass: ``scheduler.uniform_walks``, the no-repeat
walk of the Monte Carlo study, gives the platforms, and one loop over
the stays scans the control runs of every sample at once. A sample the
decoding cannot reproduce goes back through ``max_control_run``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import is_int, is_number, is_number_list, list_of, manifest_value
from .rng import WORD_BLOCK, WORD_CELLS, _bounded32, stream_words, substream
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
        # N is the length of the scalar path's per-platform list, so at most sys.maxsize
        if not self.n_values or any(not 1 <= n <= sys.maxsize for n in self.n_values):
            raise ValueError(f"platform counts must be between 1 and {sys.maxsize}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"trial duration must be finite and positive, got {self.duration}")
        lo, hi = self.delay
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"migration delay must be finite with 0 < lo <= hi, got {self.delay}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
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
    exploited_at = [math.inf] * n
    for spec, arrival in zip(exploits, arrivals):
        for platform in spec.platforms:
            if platform < n:
                exploited_at[platform] = min(exploited_at[platform], arrival)

    current = int(rng.integers(n)) if n > 1 else 0
    segments: list[tuple[float, float]] = []
    now = 0.0
    while now < duration:
        if n == 1:
            dwell_end = duration
        else:
            dwell_end = min(now + float(rng.uniform(lo, hi)), duration)
        arrival = exploited_at[current]
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


#: Stays a sample may need: a study whose ``duration / delay[0]`` exceeds it
#: with N > 1 is refused, since the scalar simulation steps through each stay.
MAX_STAYS = 100_000


def _uniform(words: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``Generator.uniform(lo, hi)`` of each raw word: ``lo + (hi - lo) * (word >> 11) / 2**53``."""
    values = (words >> np.uint64(11)) * (1 / 9007199254740992)
    values *= hi - lo
    values += lo
    return values


class _Layout(NamedTuple):
    """Where one sample's draws sit in its stream: word indices, or half columns for 32-bit draws."""

    words: int
    arrivals: np.ndarray  # the random arrivals take the first words
    dwells: np.ndarray
    draws32: np.ndarray  # the start, then the move after each stay; half 2w is word w's low half


def _draw_layout(n: int, drawn_arrivals: int, stays: int) -> _Layout:
    """Lay out the draws of one sample with ``stays`` stay slots.

    ``max_control_run`` draws the random arrivals, then (for ``n > 1``)
    the start and one dwell and one move per stay. A double takes the next
    word. PCG64 serves a 32-bit draw from the high half that the previous
    32-bit draw left cached or, with none cached, from the low half of the
    next word, whose high half it caches. ``integers(1)``, every move when
    ``n == 2``, takes nothing.
    """
    word, cached, dwells, draws32 = drawn_arrivals, None, [], []
    if n > 1:
        for bits in [32] + ([64, 32] if n > 2 else [64]) * stays:
            if bits == 64:
                dwells.append(word)
                word += 1
            elif cached is None:
                draws32.append(2 * word)
                cached, word = 2 * word + 1, word + 1
            else:
                draws32.append(cached)
                cached = None
    dwells, draws32 = np.array(dwells, dtype=np.intp), np.array(draws32, dtype=np.intp)
    return _Layout(word, np.arange(drawn_arrivals), dwells, draws32)


class _Draws(NamedTuple):
    """Decoded draws, one row per sample; platform draws are integral doubles."""

    arrivals: np.ndarray  # the random arrivals, in exploit order
    start: np.ndarray
    dwells: np.ndarray  # one column per stay, stored stay-major; with n == 1, the whole trial
    moves: np.ndarray  # the draw after each stay, before the no-repeat shift, stored stay-major
    rejected: np.ndarray  # whether any 32-bit draw would be redrawn


def _decode(
    raw: np.ndarray, layout: _Layout, n: int, duration: float, delay: tuple[float, float]
) -> _Draws:
    """Decode raw PCG64 words (one row per sample) into ``max_control_run``'s draws.

    Dwells and moves are decoded ``WORD_BLOCK`` cells, or one stay, at a time.
    """
    samples, stays = len(raw), max(1, len(layout.dwells))
    # column h is half h of every sample's words: word h // 2's low half when h is even
    halves = raw.astype("<u8", copy=False).view("<u4")
    start, rejected = np.zeros(samples), np.zeros(samples, bool)
    dwells, moves = np.full((samples, stays), duration, order="F"), np.zeros((samples, stays), order="F")
    if n > 1:
        start, rejected = _bounded32(halves[:, layout.draws32[0]].astype(np.float64), n)
    step = max(1, WORD_BLOCK // samples)
    for first in range(0, len(layout.dwells), step):
        stay = slice(first, first + step)
        dwells[:, stay] = _uniform(raw[:, layout.dwells[stay]], *delay)
        if n > 2:
            draws32 = halves[:, layout.draws32[1:][stay]].astype(np.float64)
            moves[:, stay], redrawn = _bounded32(draws32, n - 1)
            rejected |= redrawn.any(axis=1)
    return _Draws(_uniform(raw[:, layout.arrivals], 0.0, duration), start, dwells, moves, rejected)


def _exploit_table(
    drawn: np.ndarray, exploits: tuple[ExploitSpec, ...], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's exploit time per targeted platform, and each platform's row of that table.

    ``drawn`` holds the random arrivals, one column per exploit without a fixed arrival. The table
    has a row per platform below ``n`` that an exploit targets and a last row of ``inf`` for every
    other platform, so its size does not grow with ``n``. As with ``min()`` in
    ``max_control_run``, a platform takes an arrival only if it is earlier.
    """
    targeted = sorted({p for spec in exploits for p in spec.platforms if p < n})
    # platforms past the last targeted one clip to the inf row
    row = np.full(targeted[-1] + 2 if targeted else 1, len(targeted), dtype=np.intp)
    row[targeted] = np.arange(len(targeted))
    table = np.full((len(targeted) + 1, len(drawn)), np.inf)
    drawn_columns = iter(drawn.T)
    for spec in exploits:
        arrival = next(drawn_columns) if spec.arrival is None else spec.arrival
        for platform in spec.platforms:
            if platform < n:
                times = table[row[platform]]
                np.copyto(times, arrival, where=arrival < times)
    return table, row


def _control_runs(
    draws: _Draws, table: np.ndarray, row: np.ndarray, duration: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's longest control run, and whether its drawn stays reach ``duration``.

    One loop over stays carries every sample's stay end (summed left to
    right, as ``max_control_run`` does), run head and best run. A stay's
    control segment runs from ``max(previous end, exploit time)`` to its
    end; it continues the run when the previous stay was controlled and
    the segment starts at that stay's end. Slots past the trial end are
    empty stays at ``duration``.
    """
    samples = len(draws.start)
    # the move after the last stay leads nowhere
    platforms = uniform_walks(draws.start, draws.moves[:, :-1])
    # a stay's exploit time is the table cell (row of its platform, sample)
    row, columns, cells = row * samples, np.arange(samples), table.ravel()
    bound, head, best = np.zeros(samples), np.zeros(samples), np.zeros(samples)
    previous_end, previous_control = np.zeros(samples), np.zeros(samples, bool)
    for dwell, platform in zip(draws.dwells.T, platforms.T):
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


def _chunk_runs(config: ScenarioConfig, n: int, layout: _Layout, rows: np.ndarray) -> np.ndarray:
    """The longest control run of samples ``rows`` at N = ``n``, each equal to ``max_control_run``'s."""
    duration = float(config.duration)
    runs, redo = np.empty(len(rows)), np.ones(len(rows), bool)
    # with room for fewer than 3 samples, array steps through each stay are slower than scalar loops
    if 3 * layout.words <= WORD_CELLS:
        raw = stream_words(config.master_seed, n, rows, words=layout.words)
        draws = _decode(raw, layout, n, duration, config.delay)
        del raw  # the scan needs only the decoded draws
        runs, exact = _control_runs(draws, *_exploit_table(draws.arrivals, config.exploits, n), duration)
        redo = ~exact | draws.rejected
    for i in np.flatnonzero(redo):
        rng = substream(config.master_seed, n, rows[i])
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
    samples of one N come in chunks of up to ``WORD_CELLS`` word cells,
    one ``stream_words`` call each. A chunk is evaluated in one stay-major
    pass: its draws are decoded, ``uniform_walks`` gives the platforms,
    and one loop over the stays scans all its samples' control runs at
    once. A sample with a draw NumPy would redraw, or whose decoded stays
    end before ``duration``, is rerun through ``max_control_run``. Where a
    chunk holds fewer than 3 samples (from about 29,100 stays at N > 2 and
    43,700 at N = 2, so also where a sample near ``MAX_STAYS`` has more
    than ``WORD_CELLS`` words), every sample takes ``max_control_run``.
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
        # plus slack for float sums that fall short
        layout = _draw_layout(n, drawn, 1 if n == 1 else int(ratio) + 2)
        rows, chunk = np.arange(config.samples), max(1, WORD_CELLS // max(1, layout.words))
        runs = np.concatenate([_chunk_runs(config, n, layout, rows[i : i + chunk]) for i in rows[::chunk]])
        for t in config.t_values:
            hits = int(np.count_nonzero(runs >= t))
            results.append(GridPoint(n=n, t=t, success_fraction=hits / config.samples, samples=config.samples))
    return results
