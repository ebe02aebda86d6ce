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
PCG64 words of many samples' streams at once from ``rng.stream_words``,
decodes them the way NumPy's ``Generator`` would, and then evaluates a
block of samples as arrays. A sample the decoding cannot reproduce goes
back through ``max_control_run`` on its ``substream``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import is_int, is_number, list_of, manifest_value
from .rng import _bounded32, _halves, stream_words, substream


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
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ValueError("platform counts must be >= 1")
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
            t_values=tuple(manifest_value(manifest, "t_values", list_of(is_number))),
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
#: Stay slots (samples x stays) decoded in one array pass. It bounds the
#: memory of a pass; a sample that needs more stays takes the scalar path.
#: A pass steps through its stays in Python, so fewer, wider passes cost less.
_BLOCK_CELLS = 8192
#: Word cells (samples x words) that one ``stream_words`` call derives. It
#: bounds the memory of the words whatever the sample count.
_WORD_CELLS = 1 << 17


def _uniform(halves: np.ndarray, words: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``Generator.uniform(lo, hi)`` of each word: ``lo + (hi - lo) * (word >> 11) / 2**53``.

    ``word >> 11`` is ``high * 2**21 + floor(low / 2**11)``.
    """
    top53 = halves[:, 2 * words + 1] * 2097152.0 + np.floor(halves[:, 2 * words] * (1 / 2048))
    return lo + (hi - lo) * (top53 * (1 / 9007199254740992))


class _Layout(NamedTuple):
    """Where one sample's draws sit in its stream: word indices, or half columns for 32-bit draws."""

    words: int
    arrivals: np.ndarray  # the random arrivals take the first words
    dwells: np.ndarray
    draws32: np.ndarray  # the start, then the move after each stay


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
    """A block's decoded draws, one row per sample; platform draws are integral doubles."""

    arrivals: np.ndarray  # the random arrivals, in exploit order
    start: np.ndarray
    dwells: np.ndarray  # one column per stay
    moves: np.ndarray  # the draw after each stay, before the no-repeat shift
    rejected: np.ndarray  # whether any 32-bit draw would be redrawn


def _decode(
    raw: np.ndarray, layout: _Layout, n: int, duration: float, delay: tuple[float, float]
) -> _Draws:
    """Decode raw PCG64 words (one row per sample) into ``max_control_run``'s draws."""
    halves = _halves(raw)
    samples, stays = len(raw), len(layout.dwells)
    start, moves, rejected = np.zeros(samples), np.zeros((samples, stays)), np.zeros(samples, bool)
    if n > 1:
        start, rejected = _bounded32(halves[:, layout.draws32[0]], n)
    if n > 2:
        moves, redrawn = _bounded32(halves[:, layout.draws32[1:]], n - 1)
        rejected = rejected | redrawn.any(axis=1)
    return _Draws(
        _uniform(halves, layout.arrivals, 0.0, duration),
        start,
        _uniform(halves, layout.dwells, *delay),
        moves,
        rejected,
    )


def _control_runs(
    draws: _Draws, exploited_at: np.ndarray, duration: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's longest control run, and whether its drawn stays reach ``duration``.

    ``exploited_at`` holds each sample's exploit time per platform. Stay
    ends are the running sums of the dwells, summed left to right as
    ``max_control_run`` does. A stay's control segment runs from
    ``max(stay start, exploit time)`` to the stay's end; it extends the
    current run when it starts exactly where the previous segment ended.
    """
    samples, n = exploited_at.shape
    if n == 1:
        bounds = np.full((samples, 1), duration)
        platform = np.zeros((samples, 1))
    else:
        bounds = np.cumsum(draws.dwells, axis=1)
        platform = np.empty(bounds.shape)
        platform[:, 0] = draws.start
        for k in range(1, bounds.shape[1]):
            move = draws.moves[:, k - 1]
            platform[:, k] = move + (move >= platform[:, k - 1])
    ends = np.minimum(bounds, duration)
    starts = np.zeros_like(ends)
    starts[:, 1:] = ends[:, :-1]
    arrival = np.take_along_axis(exploited_at, platform.astype(np.intp), axis=1)
    # slots past the trial end are empty stays at ``duration``: they add no time to any run
    control = arrival < ends
    seg_start = np.maximum(starts, arrival)
    # stay ends never decrease, so the latest segment end so far is the largest
    last_end = np.full_like(ends, -np.inf)
    last_end[:, 1:] = np.maximum.accumulate(np.where(control, ends, -np.inf), axis=1)[:, :-1]
    head = np.where(control & (seg_start != last_end), seg_start, -np.inf)
    runs = np.where(control, ends - np.maximum.accumulate(head, axis=1), 0.0)
    return runs.max(axis=1), bounds[:, -1] >= duration


def _platform_mask(exploits: tuple[ExploitSpec, ...], n: int) -> np.ndarray:
    """Boolean (exploit, platform) mask of the platforms below ``n`` that each exploit breaches."""
    mask = np.zeros((len(exploits), n), dtype=bool)
    for row, spec in zip(mask, exploits):
        row[[p for p in spec.platforms if p < n]] = True
    return mask


def _exploit_times(arrivals: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each sample's exploit time per platform: the earliest arrival of an exploit targeting it.

    ``arrivals`` is (sample, exploit) and ``targets`` (exploit, platform).
    As with ``min()`` in ``max_control_run``, a platform takes an arrival
    only if it is earlier.
    """
    exploited_at = np.full((len(arrivals), targets.shape[1]), np.inf)
    for i in range(arrivals.shape[1]):
        arrival = arrivals[:, i, None]
        exploited_at = np.where(targets[i] & (arrival < exploited_at), arrival, exploited_at)
    return exploited_at


def run_scenario_study(config: ScenarioConfig) -> list[GridPoint]:
    """Success fraction per (N, T) grid point.

    Samples are shared across the T sweep for each N, so the success
    fraction at T is the fraction of samples whose longest control run
    reaches T. Sample streams derive from (master seed, N, sample index).
    A sweep with N > 1 whose samples may need more than ``MAX_STAYS``
    stays raises ValueError before any sample is drawn.

    Each result equals ``max_control_run`` on the sample's stream: the
    raw words of up to ``_WORD_CELLS`` cells of samples come from one
    ``stream_words`` call, blocks of samples are decoded from them and
    evaluated as arrays, and a sample with a draw NumPy would redraw, or
    whose decoded stays end before ``duration``, is rerun through
    ``max_control_run``.
    """
    duration = float(config.duration)
    ratio = duration / config.delay[0]
    if ratio > MAX_STAYS and max(config.n_values) > 1:
        raise ValueError(
            f"trial duration {config.duration} over the shortest delay {config.delay[0]} "
            f"asks for more than {MAX_STAYS} stays per sample"
        )
    drawn = [i for i, spec in enumerate(config.exploits) if spec.arrival is None]
    fixed = np.array([np.nan if spec.arrival is None else spec.arrival for spec in config.exploits])
    # dwells are at least lo, so duration / lo stays reach the trial end, plus
    # slack for float sums that fall short; a larger ratio takes the cap
    max_stays = int(ratio) + 2 if ratio < _BLOCK_CELLS - 2 else _BLOCK_CELLS
    results: list[GridPoint] = []
    for n in config.n_values:
        layout = _draw_layout(n, len(drawn), 1 if n == 1 else max_stays)
        targets = _platform_mask(config.exploits, n)
        block = _BLOCK_CELLS // max(1, len(layout.dwells))
        chunk = block * max(1, _WORD_CELLS // (block * max(1, layout.words)))
        runs = np.empty(config.samples)
        for first in range(0, config.samples, block):
            samples = range(first, min(first + block, config.samples))
            if first % chunk == 0:
                rows = np.arange(first, min(first + chunk, config.samples))
                chunk_raw = stream_words(config.master_seed, n, rows, words=layout.words)
            raw = chunk_raw[first % chunk : first % chunk + len(samples)]
            draws = _decode(raw, layout, n, duration, config.delay)
            arrivals = np.empty((len(samples), len(fixed)))
            arrivals[:] = fixed
            arrivals[:, drawn] = draws.arrivals
            block_runs, exact = _control_runs(draws, _exploit_times(arrivals, targets), duration)
            for i in np.flatnonzero(~exact | draws.rejected):
                rng = substream(config.master_seed, n, first + i)
                block_runs[i] = max_control_run(
                    n, config.duration, config.delay, config.exploits, rng
                )
            runs[first : first + len(samples)] = block_runs
        for t in config.t_values:
            hits = int(np.count_nonzero(runs >= t))
            results.append(GridPoint(n=n, t=t, success_fraction=hits / config.samples, samples=config.samples))
    return results
