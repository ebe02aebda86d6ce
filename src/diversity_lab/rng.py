"""Deterministic random-stream derivation.

Every stochastic component draws from a PCG64 generator derived from the
master seed plus an integer key path, e.g. ``substream(seed, trial,
stream_id)``. Identical (seed, key) pairs always produce identical
streams, so trials can run in any order or concurrently without
changing results.

``substream`` is the reference: it seeds PCG64 through NumPy's
``SeedSequence``. ``_word_pieces`` gives the first raw words of many
streams at once with no generator at all. A key part is one uint32
word, so every key row has one entropy layout. SeedSequence's pool
mixing and ``generate_state(4, uint64)`` run once per ``draws`` call as
uint32 array arithmetic, one pool word at a time, each word at the
broadcast shape of the key parts mixed into it so far, with hash
constants built on the first use of each entropy length: a word of the
master seed alone is hashed once, one of the trial alone once per
trial. Then PCG64's seeding runs,
``inc = 2·initseq + 1`` and ``s = (initstate + inc)·MULT + inc``.
PCG64 steps by ``s ↦ s·MULT + inc`` and outputs each new state's XSL-RR,
``rotr64(hi ^ lo, hi >> 58)``. So the state behind word j is
``A_j·s + B_j·inc mod 2**128``, with ``A_j = MULT**(j+1)`` and ``B_j``
the sum of ``MULT**i`` for i <= j, and the state behind word j + g is
``MULT**g`` times that of word j plus ``Q_g·inc``, with ``Q_g`` the sum
of ``MULT**i`` for i < g: each piece of keys jumps to the first g words
and steps its g lanes by g words, both by one multiply-add,
``a·x + b mod 2**128`` (``_mul``, then ``_add``). The keys fall into
runs, each with its own word count, so no key derives more words than
its run's count. A 128-bit value is a pair of uint64 arrays, high word
first.

A stream's draws, listed as ``random()`` and ``integers(m)`` calls, are
its ``draw_plan``; ``draws`` derives the words of many streams, with a
plan for each run of keys, in one pass of ``_word_pieces``, and decodes
each piece as it comes, as ``Generator`` would draw it, ``integers(m)``
in uint64 arithmetic, exact for every bound up to 2**32, the largest a
plan takes. ``_random_k_subsets`` turns the draws of ``_floyd_bounds``
into ``choice(N, k, replace=False)`` for N up to ``core.MAX_PLATFORMS``.
This is the only module that knows where a draw sits in a stream, and
the only one that calls ``substream`` or ``np.random``.

All of this reimplements NumPy internals (``SeedSequence`` in
``bit_generator.pyx``, ``pcg64_set_seed`` and ``pcg64_next64`` in
``pcg64.h``, Lemire's method in ``distributions.c``, ``choice`` in
``_generator.pyx``), not documented guarantees. If a NumPy release
changes them, ``tests/test_rng.py`` fails: it compares the mixed words
with ``generate_state``, the words of ``_word_pieces`` with ``random_raw``
and ``draws`` with scalar ``Generator`` calls.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

#: Cells (rows × words) that one array operation of ``_word_pieces`` stepping
#: and of ``draws``' decoding covers at most, unless a run has more key rows.
WORD_BLOCK = 4096
#: Cells (rows × words) of one plan that one ``draws`` call of ``run_mc_study``
#: derives at most, and half of a scenario pass (``scenario.PASS_CELLS``): they
#: bound the memory of the words whatever the trial or sample count.
WORD_CELLS = 1 << 17

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT16 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_HALF, _SHIFT32, _ONE = np.uint64(_MASK32), np.uint64(32), np.uint64(1)


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Child generator uniquely keyed by ``(master_seed, *key)``."""
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    entropy = (int(master_seed),) + tuple(int(part) for part in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def _word_pieces(master_seed: int, key: tuple, counts: Sequence[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The words of the key rows, split in C order into one equal run per count, one piece per run.

    Every key row of the call is seeded in one ``_generate_state`` pass. A
    piece is a run's R rows, stepped together into a fresh (count, R)
    array and yielded with the run's (R, parts) key rows; a call without
    key rows yields no piece. g = ``WORD_BLOCK // R`` lanes (at least 1, at
    most the count) jump to the states behind words 0 to g - 1, and then
    every lane steps by g words at once, so each array operation covers at
    most ``WORD_BLOCK`` cells, or R cells when R is larger.

    The call holds 32 bytes per key row, its seeded state and increment,
    and 4 per key part and row until the last piece is stepped, and about
    60 per key row while it hashes; the callers' chunks (``WORD_CELLS``,
    ``scenario.PASS_CELLS``) bound the rows of one call.
    """
    seed_words, parts = _key_parts(master_seed, key)
    shape = np.broadcast_shapes((1,), *(part.shape for part in parts))
    rows = math.prod(shape)
    if not rows:
        return
    # (1, rows) pairs: _step_lanes lays its lanes out lane by row, so the long axis of each array op runs over rows
    init_hi, init_lo, inc_hi, inc_lo = _generate_state(seed_words + parts).reshape(4, 1, rows)
    # PCG64's increment, 2·initseq + 1, in place of initseq
    inc_hi <<= _ONE
    inc_hi |= inc_lo >> np.uint64(63)
    inc_lo <<= _ONE
    inc_lo |= _ONE
    keys = np.empty((*shape, len(parts)), dtype=np.uint32)
    for column, part in enumerate(parts):
        keys[..., column] = part
    keys = keys.reshape(rows, len(parts))
    per = rows // len(counts)
    for run, count in enumerate(counts):
        at = slice(run * per, (run + 1) * per)
        words = np.empty((count, per), dtype=np.uint64)
        if count:
            _step_lanes((init_hi[:, at], init_lo[:, at]), (inc_hi[:, at], inc_lo[:, at]), words)
        yield words, keys[at]


def _step_lanes(init: tuple, inc: tuple, out: np.ndarray) -> None:
    """The first words of each of ``out.shape[1]`` streams into ``out``, one row of ``out`` per word.

    ``init`` and ``inc`` hold each stream's seeded state and increment as
    (1, streams) (high, low) pairs; the lanes leap as ``_word_pieces`` says.
    """
    words, rows = out.shape
    lanes = max(1, min(words, WORD_BLOCK // rows))
    power, total, leap, stride = _leapfrog_constants(lanes)
    state = _add(_mul(power, init), _mul(total, inc))
    # a leap's increment, needed only when the lanes hold fewer than all the words
    advance = _mul(stride, inc) if lanes < words else None
    for col in range(0, words, lanes):
        high, low = (half[: words - col] for half in state)
        # XSL-RR: rotr64(hi ^ lo, r) with r = hi >> 58; the left rotation by 64 - r is 0 for r = 0
        mixed, rotation = high ^ low, high >> np.uint64(58)
        out[col : col + lanes] = mixed >> rotation | mixed << (np.uint64(64) - rotation & np.uint64(63))
        if col + lanes < words:
            state = _add(_mul(leap, state), advance)


def _key_parts(master_seed: int, key) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The master seed's entropy words and the key parts, each a uint32 array of one dimension or more.

    A seed word is a one-item array, so that hashing it never takes scalar
    arithmetic, whose wrap NumPy warns of. A key part is one SeedSequence
    word, in ``[0, 2**32)``; the engines' trial, sample, stream and
    platform-count parts all are.
    """
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    parts = [np.asarray(part) for part in key]
    bad = [value for part in parts if part.size for value in (part.min(), part.max()) if not 0 <= value < 2**32]
    if bad:
        raise ValueError(f"key parts must be in [0, 2**32), got {bad[0]}")
    # SeedSequence's uint32 words of the seed, least significant first; 0 is one word
    seed = int(master_seed)
    seed_words = [np.array([seed >> at & _MASK32], dtype=np.uint32) for at in range(0, max(1, seed.bit_length()), 32)]
    return seed_words, [np.atleast_1d(part).astype(np.uint32) for part in parts]


@functools.lru_cache(maxsize=16)
def _leapfrog_constants(lanes: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The 128-bit constants of ``_word_pieces`` with ``lanes`` lanes, as (high, low) word pairs.

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
    upper = x_lo * y_lo
    upper >>= _SHIFT32
    upper += x_hi * y_lo
    lower = x_lo * y_hi
    lower += upper & _HALF
    lower >>= _SHIFT32
    upper >>= _SHIFT32
    upper += lower
    upper += x_hi * y_hi
    return upper


def _mul(a: tuple, x: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``a·x mod 2**128`` of (high, low) pairs: uint64 products wrap, so only one high word is missing."""
    (a_hi, a_lo), (x_hi, x_lo) = a, x
    high = _mulhi64(a_lo, x_lo)
    high += a_hi * x_lo
    high += a_lo * x_hi
    return high, a_lo * x_lo


def _add(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``a + b mod 2**128`` of (high, low) pairs; the low sum wraps below ``b``'s low word on a carry."""
    low = a[1] + b[1]
    high = a[0] + b[0]
    high += low < b[1]
    return high, low


@functools.lru_cache(maxsize=16)
def _hash_pairs(length: int) -> tuple[tuple[np.uint32, np.uint32], ...]:
    """SeedSequence's (xor, mult) hash constants, in hashing order, for ``length`` entropy words (at least 4).

    Mixing takes ``4·length`` hashes from ``_INIT_A``, and the output eight
    from ``_INIT_B``; each hash moves the constant on by its multiplier.
    Master seeds have any number of words, so each length's pairs are
    built on its first use, not at import.
    """
    pairs = []
    for const, mult, count in ((_INIT_A, _MULT_A, _POOL * length), (_INIT_B, _MULT_B, 2 * _POOL)):
        for _ in range(count):
            pairs.append((np.uint32(const), np.uint32(const := const * mult & _MASK32)))
    return tuple(pairs)


def _generate_state(entropy: Sequence[np.ndarray]) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, uint64)`` over the broadcast of the uint32 ``entropy`` words.

    Returns (4, *shape) for the words' broadcast shape. SeedSequence's own
    loops run over a list of pool words, each an array: each pool word is
    hashed from its entropy word, or from a zero past the entropy, then
    mixes into the other three; each entropy word past the pool mixes into
    all four; the eight output halves hash the pool twice over. Each hash
    runs at the broadcast shape of the words mixed in so far, so a pool
    word of the master seed alone is hashed once, not once per key row.
    ``hashmix`` is ``v = (v ^ xor)·mult; v ^ v >> 16`` with the next pair
    of constants, and ``mix(x, y)`` is ``v = L·x − R·hashmix(y); v ^ v >> 16``.
    """
    words = [*entropy, *[np.zeros(1, dtype=np.uint32)] * (_POOL - len(entropy))]
    pairs = iter(_hash_pairs(len(words)))

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mult = next(pairs)
        value = (value ^ xor) * mult
        value ^= value >> _SHIFT16
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # not in place: y may broadcast x to a larger shape
        value = x * _MIX_L - hashmix(y) * _MIX_R
        value ^= value >> _SHIFT16
        return value

    pool = [hashmix(word) for word in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                pool[dst] = mix(pool[dst], pool[src])
    for word in words[_POOL:]:
        pool = [mix(dst, word) for dst in pool]
    # output word w is halves 2w (low) and 2w + 1 (high), side by side as one little-endian uint64
    halves = np.empty((_POOL, *pool[0].shape, 2), dtype="<u4")
    for half in range(2 * _POOL):
        halves[half // 2, ..., half % 2] = hashmix(pool[half % _POOL])
    return halves.view("<u8")[..., 0]


def _bounded32(draws: np.ndarray, m) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(m)`` of uint64 32-bit draws, and whether NumPy would not return it.

    Lemire's method: the value is ``(draw·m) >> 32``, and NumPy draws
    again when ``(draw·m) mod 2**32`` falls below ``2**32 mod m``. With a
    draw below 2**32 and m at most 2**32, the product is exact in uint64.
    """
    product = draws * m
    return product >> _SHIFT32, (product & _HALF) < 2**32 % m


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
    A bound above 2**32, for which NumPy takes a 64-bit draw, raises ValueError.
    """
    bounds = np.array(bounds, dtype=np.int64).reshape(-1)
    if bounds.max(initial=0) > 2**32:
        raise ValueError(f"integers(m) is planned for m up to 2**32, got {bounds.max()}")
    bits32 = np.flatnonzero(bounds > 1)
    fresh = bounds == 0
    fresh[bits32[::2]] = True
    word = np.cumsum(fresh) - 1
    cached = bits32[1::2]
    word[cached] = word[bits32[: 2 * len(cached) : 2]]
    half = np.zeros(len(bounds), dtype=np.intp)
    half[cached] = 1
    return DrawPlan(bounds, word, half, int(np.count_nonzero(fresh)))


def draws(plans: Sequence[DrawPlan], master_seed: int, *key, out: np.ndarray | None = None) -> list[np.ndarray]:
    """The draws of each plan on its key rows' streams, exactly as ``Generator`` gives them.

    The key parts are integers or arrays of integers in ``[0, 2**32)``;
    they broadcast against each other, and the key rows, in C order, fall
    into one equal run per plan, so ``draws(plans, s, trials, ids[:, None])``
    draws ``plans[i]`` on the streams ``(s, trial, ids[i])``. Returns one
    array per plan: row i holds draw i of every key row of its run; an
    ``integers`` draw is an integral double. With ``out``, a zeroed
    (draws, key rows) array for plans of that many draws, each plan is
    decoded straight into its run's block of columns, and the arrays
    returned are those blocks.

    Each row derives only its own plan's words, and each plan's
    ``_word_pieces`` piece is decoded into its array as it comes. ``random()`` of a
    word ``w`` is ``(w >> 11)·2**-53``, and ``integers(m)`` is
    ``_bounded32`` of its half, in uint64; draws are decoded
    ``WORD_BLOCK`` cells at a time. A key row with a draw NumPy would
    redraw is drawn again on its ``substream``, one ``random()`` or
    ``integers(m)`` call at a time.
    """
    rows = math.prod(np.broadcast_shapes(*(np.shape(part) for part in key)))
    per, rest = divmod(rows, len(plans))
    if rest:
        raise ValueError(f"{rows} key rows do not split into {len(plans)} equal runs")
    if out is None:
        values = [np.zeros((len(plan.bounds), per)) for plan in plans]
    elif out.shape != (len(plans[0].bounds), rows) or any(len(plan.bounds) != len(out) for plan in plans):
        raise ValueError(f"out of shape {out.shape} does not hold {len(plans)} plans of {rows} key rows")
    else:
        values = [out[:, run * per : (run + 1) * per] for run in range(len(plans))]
    pieces = _word_pieces(master_seed, key, [plan.words for plan in plans])
    for plan, run, (raw, keys) in zip(plans, values, pieces):
        _decode(plan, raw, master_seed, keys, run)
    return values


def _decode(plan: DrawPlan, raw: np.ndarray, master_seed: int, keys: np.ndarray, values: np.ndarray) -> None:
    """The draws of ``plan`` from ``raw[w, r]``, word w of key row ``keys[r]``, into ``values`` as ``draws`` gives them.

    ``values`` starts at zero, the draw of ``integers(1)``.
    """
    rows = len(keys)
    # halves[w, r, h]: half h of row r's word w, the low half first
    halves = raw.astype("<u8", copy=False)[..., None].view("<u4")
    redraw = np.zeros(rows, dtype=bool)
    step = max(1, WORD_BLOCK // max(1, rows))
    doubles, bits32 = np.flatnonzero(plan.bounds == 0), np.flatnonzero(plan.bounds > 1)
    moduli = plan.bounds.astype(np.uint64)[:, None]
    for first in range(0, len(doubles), step):
        at = doubles[first : first + step]
        values[at] = (raw[plan.word[at]] >> np.uint64(11)) * (1 / 9007199254740992)
    for first in range(0, len(bits32), step):
        at = bits32[first : first + step]
        half = halves[plan.word[at], :, plan.half[at]].astype(np.uint64)
        values[at], redrawn = _bounded32(half, moduli[at])
        redraw |= redrawn.any(axis=0)
    if not redraw.any():
        return
    bounds = plan.bounds.tolist()
    for row in np.flatnonzero(redraw).tolist():
        replay = substream(master_seed, *keys[row].tolist())
        values[:, row] = [replay.integers(m) if m else replay.random() for m in bounds]


def _floyd_bounds(count: int, k: int) -> list[int]:
    """The bounds of ``choice(count, k, replace=False)``'s draws: Floyd's, then the shuffle's."""
    return list(range(count - k + 1, count + 1)) + list(range(k, 1, -1))


def _random_k_subsets(values: np.ndarray, count: int, k: int) -> np.ndarray:
    """Each key row's ``choice(count, k, replace=False)`` from the draws of ``_floyd_bounds``.

    Floyd's algorithm draws on ``[0, j]`` for j = N-k to N-1 and adds the
    value to the subset, or j when the value is in it already. A
    Fisher–Yates shuffle follows: for i = k-1 down to 1, slot i swaps with
    a draw on ``[0, i]``. NumPy follows these draws up to
    ``core.MAX_PLATFORMS`` platforms only.
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
