"""Deterministic random-stream derivation.

Every stochastic component draws from a PCG64 generator derived from the
master seed plus an integer key path, e.g. ``substream(seed, trial,
stream_id)``. Identical (seed, key) pairs always produce identical
streams, so trials can run in any order or concurrently without
changing results.

``substream`` is the reference: it seeds PCG64 through NumPy's
``SeedSequence``. ``stream_words`` gives the first raw words of many
streams at once with no generator at all. It runs SeedSequence's pool
mixing and ``generate_state(4, uint64)`` as uint32 array arithmetic over
a block of keys, then PCG64's seeding, ``inc = 2·initseq + 1`` and
``s = (initstate + inc)·MULT + inc``. PCG64 steps by
``s ↦ s·MULT + inc`` and outputs each new state's XSL-RR,
``rotr64(hi ^ lo, hi >> 58)``. So the state behind word j is
``A_j·s + B_j·inc mod 2**128``, with ``A_j = MULT**(j+1)`` and ``B_j``
the sum of ``MULT**i`` for i <= j, and the state behind word j + g is
``MULT**g`` times that of word j plus ``Q_g·inc``, with ``Q_g`` the sum
of ``MULT**i`` for i < g. ``stream_words`` jumps to the first g words of
every key and then steps all g lanes together by g words. A 128-bit
value is a pair of uint64 arrays, high word first.

A stream's draws, listed as ``random()`` and ``integers(m)`` calls, are
its ``draw_plan``; ``draws`` derives the words of many streams and
decodes them as ``Generator`` would draw them. ``_random_k_subsets``
turns the draws of ``_floyd_bounds`` into ``choice(N, k, replace=False)``.
This is the only module that knows where a draw sits in a stream.

All of this reimplements NumPy internals (``SeedSequence`` in
``bit_generator.pyx``, ``pcg64_set_seed`` and ``pcg64_next64`` in
``pcg64.h``, Lemire's method in ``distributions.c``, ``choice`` in
``_generator.pyx``), not documented guarantees. If a NumPy release
changes them, ``tests/test_rng.py`` fails: it compares the mixed words
with ``generate_state``, ``stream_words`` with ``random_raw`` and
``draws`` with scalar ``Generator`` calls.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

#: Cells (rows × words) that one array operation of ``stream_words`` covers
#: at most; it is also the most key rows that share one derivation pass.
WORD_BLOCK = 4096
#: Cells (rows × words) that one ``stream_words`` call of either engine derives
#: at most: it bounds the memory of the words whatever the trial or sample count.
WORD_CELLS = 1 << 17
#: Above this pool size ``Generator.choice`` may draw a random-k subset by a
#: tail shuffle, which ``_random_k_subsets`` does not follow.
FLOYD_POOL_LIMIT = 10_000

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_HALF, _SHIFT32, _ONE = np.uint64(_MASK32), np.uint64(32), np.uint64(1)


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Child generator uniquely keyed by ``(master_seed, *key)``."""
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    entropy = (int(master_seed),) + tuple(int(part) for part in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def stream_words(master_seed: int, *key, words: int) -> np.ndarray:
    """The first ``words`` raw outputs of each key row's stream, as a (rows, words) uint64 array.

    Row r equals ``substream(master_seed, *row_r).bit_generator.random_raw(words)``.
    The key parts are integers or arrays of integers in ``[0, 2**64)``;
    they broadcast against each other, and the rows are taken in C order,
    so ``stream_words(s, trials[:, None], ids, words=w)`` gives
    ``(s, trial, id)`` for each id of each trial. Keys are derived
    ``WORD_BLOCK`` rows at a time. For a block of R rows, g =
    ``WORD_BLOCK // R`` lanes (at least 1, at most ``words``) jump to the
    states behind words 0 to g - 1, and then every lane steps by g words
    at once, so each array operation covers at most ``WORD_BLOCK`` cells.
    """
    seed_words, columns, rows = _key_columns(master_seed, key)
    # filled word by word, as the lanes are computed, and returned transposed
    out = np.empty((words, rows), dtype=np.uint64)
    if not words:
        return out.T
    for first in range(0, rows, WORD_BLOCK):
        block = _key_block(columns, first, WORD_BLOCK)
        # lanes are laid out lane by row, so the long axis of each array op runs over rows
        init_hi, init_lo, seq_hi, seq_lo = _generate_state(*_entropy(seed_words, block)).T[:, None, :]
        inc = (seq_hi << _ONE) | (seq_lo >> np.uint64(63)), (seq_lo << _ONE) | _ONE
        lanes = max(1, min(words, WORD_BLOCK // len(block)))
        power, total, leap, stride = _leapfrog_constants(lanes)
        state = _add(_mul(power, (init_hi, init_lo)), _mul(total, inc))
        advance = _mul(stride, inc)
        rows_out = out[:, first : first + len(block)]
        for col in range(0, words, lanes):
            width = min(lanes, words - col)
            rows_out[col : col + width] = _xsl_rr(*state)[:width]
            if col + lanes < words:
                state = _add(_mul(leap, state), advance)
    return out.T


def _key_columns(master_seed: int, key) -> tuple[list[int], list[np.ndarray], int]:
    """The master seed's entropy words, the broadcast key columns, and the number of key rows."""
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    parts = [np.asarray(part) for part in key]
    if any(part.size and part.min() < 0 for part in parts):
        raise ValueError("key parts must be non-negative")
    columns = [column.ravel() for column in np.broadcast_arrays(*parts)]
    return _uint32_words(int(master_seed)), columns, columns[0].size if columns else 1


def _key_block(columns: list[np.ndarray], first: int, size: int) -> np.ndarray:
    """Key rows ``first`` to ``first + size`` (or the last) as a (rows, parts) uint64 array."""
    rows = columns[0].size if columns else 1
    block = np.empty((min(size, rows - first), len(columns)), dtype=np.uint64)
    for i, column in enumerate(columns):
        block[:, i] = column[first : first + size]
    return block


@functools.lru_cache(maxsize=16)
def _leapfrog_constants(lanes: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The 128-bit constants of ``stream_words`` with ``lanes`` lanes, as (high, low) word pairs.

    PCG64's seeding sets ``s = (init + inc)·MULT + inc``, so the state
    before word j, ``A_j·s + B_j·inc``, is also ``MULT**(j+2)·init`` plus
    the sum of ``MULT**i`` for i <= j + 2, times ``inc``. The first two
    pairs hold these factors for lanes 0 to ``lanes - 1``, one per row;
    the last two hold ``MULT**lanes`` and ``Q``, the sum of ``MULT**i``
    for i < lanes, which advance a lane by ``lanes`` words:
    ``s ↦ MULT**lanes·s + Q·inc``. Built on first use, not at import.
    """
    power = _PCG64_MULT * _PCG64_MULT & _MASK128
    total = (1 + _PCG64_MULT + power) & _MASK128
    leap, stride = 1, 0
    powers, totals = [], []
    for _ in range(lanes):
        powers.append(power)
        totals.append(total)
        power = power * _PCG64_MULT & _MASK128
        total = (total + power) & _MASK128
        stride = (stride + leap) & _MASK128
        leap = leap * _PCG64_MULT & _MASK128
    return _split128(powers), _split128(totals), _split128([leap]), _split128([stride])


def _split128(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as a column of high words and a column of low words, read-only."""
    pair = (
        np.array([[value >> 64] for value in values], dtype=np.uint64),
        np.array([[value & _MASK64] for value in values], dtype=np.uint64),
    )
    for half in pair:
        half.flags.writeable = False
    return pair


def _mulhi64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``x·y``, from four products of 32-bit halves.

    Each partial sum stays below 2**64: a product of halves is at most
    ``(2**32 - 1)**2``, and adding a half to it cannot carry out.
    """
    x_lo, x_hi = x & _HALF, x >> _SHIFT32
    y_lo, y_hi = y & _HALF, y >> _SHIFT32
    upper = x_hi * y_lo + (x_lo * y_lo >> _SHIFT32)
    lower = x_lo * y_hi + (upper & _HALF)
    return x_hi * y_hi + (upper >> _SHIFT32) + (lower >> _SHIFT32)


def _mul(a: tuple, x: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``a·x mod 2**128`` of (high, low) pairs: uint64 products wrap, so only one high word is missing."""
    (a_hi, a_lo), (x_hi, x_lo) = a, x
    return a_hi * x_lo + a_lo * x_hi + _mulhi64(a_lo, x_lo), a_lo * x_lo


def _add(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``a + b mod 2**128`` of (high, low) pairs; the low sum wraps below ``b``'s low word on a carry."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _xsl_rr(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """PCG64's output of each state: ``rotr64(hi ^ lo, hi >> 58)``."""
    mixed = high ^ low
    rotation = high >> np.uint64(58)
    return (mixed >> rotation) | (mixed << ((np.uint64(64) - rotation) & np.uint64(63)))


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, least significant first; 0 is ``[0]``."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _entropy(seed_words: list[int], keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key row's assembled entropy words, zero-padded to one width, and its word count.

    A key part below 2**32 is one word and a larger one two, low word
    first. The width is at least the pool size: SeedSequence hashes a
    zero for each pool word past a short entropy, as for a zero word.
    """
    low = (keys & np.uint64(_MASK32)).astype(np.uint32)
    high = (keys >> np.uint64(32)).astype(np.uint32)
    counts = 1 + (high > 0)
    ends = len(seed_words) + np.cumsum(counts, axis=1)
    lengths = ends[:, -1] if keys.shape[1] else np.full(len(keys), len(seed_words))
    entropy = np.zeros((len(keys), max(_POOL, int(lengths.max(initial=0)))), dtype=np.uint32)
    entropy[:, : len(seed_words)] = seed_words
    rows = np.broadcast_to(np.arange(len(keys))[:, None], keys.shape)
    starts = ends - counts
    entropy[rows, starts] = low
    wide = counts == 2
    entropy[rows[wide], starts[wide] + 1] = high[wide]
    return entropy, lengths


def _hashmix(values: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix`` of each value, and the hash constant it leaves."""
    values = values ^ np.uint32(const)
    const = const * _MULT_A & _MASK32
    values = values * np.uint32(const)
    return values ^ (values >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _generate_state(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, uint64)`` of each row of ``entropy``.

    The hash constant evolves the same way for every row, so rows of
    different lengths share one pass: a row takes no part in the extra
    mixing past its own length.
    """
    const = _INIT_A
    pool = []
    for i in range(_POOL):
        word, const = _hashmix(entropy[:, i], const)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for src in range(_POOL, entropy.shape[1]):
        live = src < lengths
        for dst in range(_POOL):
            hashed, const = _hashmix(entropy[:, src], const)
            pool[dst] = np.where(live, _mix(pool[dst], hashed), pool[dst])
    const = _INIT_B
    state = np.empty((len(entropy), 2 * _POOL), dtype=np.uint32)
    for i in range(2 * _POOL):
        word = pool[i % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        word = word * np.uint32(const)
        state[:, i] = word ^ (word >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _bounded32(draws: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(m)`` of 32-bit draws, and whether NumPy would redraw each.

    Lemire's method: the value is ``(draw * m) >> 32``, and NumPy draws
    again when ``(draw * m) % 2**32`` falls below ``2**32 % m``. The
    product is exact in a double for ``m <= 2**21``; a larger ``m`` marks
    every draw for a redraw.
    """
    product = draws * m
    value = np.floor(product * (1 / 4294967296))
    return value, (product - value * 4294967296 < 2**32 % m) | (m > 1 << 21)



class DrawPlan(NamedTuple):
    """Where each ``Generator`` draw of one stream sits in the stream's raw words."""

    bounds: np.ndarray  # per draw: 0 for random(), m for integers(m)
    word: np.ndarray  # the word each draw reads; unused for integers(1)
    half: np.ndarray  # the half a 32-bit draw reads: 0 for the low half, 1 for the cached high half
    words: int  # the words the stream's draws take


def draw_plan(bounds) -> DrawPlan:
    """The plan of a stream whose draws are, in order, ``random()`` for a bound 0 and ``integers(m)`` for m.

    ``random()`` takes the next word. ``integers(m)`` with m > 1 is a 32-bit
    draw: PCG64 serves it from the high half that the previous 32-bit draw
    left cached or, with none cached, from the low half of the next word,
    whose high half it caches; ``random()`` leaves that cache alone. So the
    32-bit draws pair up on one word each. ``integers(1)`` takes nothing.
    """
    bounds = np.array(bounds, dtype=np.int64).reshape(-1)
    bits32 = np.flatnonzero(bounds > 1)
    fresh = bounds == 0
    fresh[bits32[::2]] = True
    word = np.cumsum(fresh) - 1
    cached = bits32[1::2]
    word[cached] = word[bits32[: 2 * len(cached) : 2]]
    half = np.zeros(len(bounds), dtype=np.intp)
    half[cached] = 1
    return DrawPlan(bounds, word, half, int(np.count_nonzero(fresh)))


def draws(plan: DrawPlan, master_seed: int, *key) -> np.ndarray:
    """The draws of ``plan`` on each key row's stream, exactly as ``Generator`` gives them.

    The key parts broadcast as in ``stream_words``. Row i holds draw i of
    every key row; an ``integers`` draw is an integral double, exact for
    bounds up to 2**53. ``random()`` of a word ``w`` is
    ``(w >> 11)·2**-53``, and ``integers(m)`` is ``_bounded32`` of its
    half; draws are decoded ``WORD_BLOCK`` cells at a time. A key row with
    a draw NumPy would redraw, or with a bound above 2**21, is drawn again
    on its ``substream``, one ``random()`` or ``integers(m)`` call at a time.
    """
    raw = stream_words(master_seed, *key, words=plan.words).T
    keys = raw.shape[1]
    # halves[w, r, h]: half h of row r's word w, the low half first
    halves = raw.astype("<u8", copy=False).view("<u4").reshape(plan.words, keys, 2)
    values, redraw = np.zeros((len(plan.bounds), keys)), np.zeros(keys, dtype=bool)
    step = max(1, WORD_BLOCK // max(1, keys))
    doubles, bits32 = np.flatnonzero(plan.bounds == 0), np.flatnonzero(plan.bounds > 1)
    for first in range(0, len(doubles), step):
        at = doubles[first : first + step]
        values[at] = (raw[plan.word[at]] >> np.uint64(11)) * (1 / 9007199254740992)
    for first in range(0, len(bits32), step):
        at = bits32[first : first + step]
        half = halves[plan.word[at], :, plan.half[at]].astype(np.float64)
        values[at], redrawn = _bounded32(half, plan.bounds[at, None])
        redraw |= redrawn.any(axis=0)
    if redraw.any():
        columns = _key_columns(master_seed, key)[1]
        bounds = plan.bounds.tolist()
        for row in np.flatnonzero(redraw).tolist():
            replay = substream(master_seed, *(int(column[row]) for column in columns))
            values[:, row] = [replay.integers(m) if m else replay.random() for m in bounds]
    return values


def _floyd_bounds(count: int, k: int) -> list[int]:
    """The bounds of ``choice(count, k, replace=False)``'s draws: Floyd's, then the shuffle's."""
    return list(range(count - k + 1, count + 1)) + list(range(k, 1, -1))


def _random_k_subsets(values: np.ndarray, count: int, k: int) -> np.ndarray:
    """Each key row's ``choice(count, k, replace=False)`` from the draws of ``_floyd_bounds``.

    Floyd's algorithm draws on ``[0, j]`` for j = N-k to N-1 and adds the
    value to the subset, or j when the value is in it already. A
    Fisher–Yates shuffle follows: for i = k-1 down to 1, slot i swaps with
    a draw on ``[0, i]``. NumPy follows these draws up to
    ``FLOYD_POOL_LIMIT`` platforms only.
    """
    picks = values.astype(np.intp)
    subset = np.empty((picks.shape[1], k), dtype=np.intp)
    for slot, j in enumerate(range(count - k, count)):
        value = picks[slot]
        taken = (subset[:, :slot] == value[:, None]).any(axis=1)
        subset[:, slot] = np.where(taken, j, value)
    index = np.arange(len(subset))
    for swap, i in zip(picks[k:], range(k - 1, 0, -1)):
        picked = subset[index, swap]
        subset[index, swap] = subset[:, i]
        subset[:, i] = picked
    return subset
