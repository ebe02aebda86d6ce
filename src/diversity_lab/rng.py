"""Deterministic random-stream derivation.

Every stochastic component draws from a PCG64 generator derived from the
master seed plus an integer key path, e.g. ``substream(seed, trial,
stream_id)``. Identical (seed, key) pairs always produce identical
streams, so trials can run in any order or concurrently without
changing results.

``substream`` is the reference: it seeds PCG64 through NumPy's
``SeedSequence``. ``substreams`` gives the same streams for many keys at
a fraction of the cost. It runs SeedSequence's pool mixing and
``generate_state(4, uint64)`` as uint32 array arithmetic over a block of
keys, applies PCG64's seeding to each result, and resets one reused
generator to each key's state.

``stream_words`` makes no generator at all: it returns each stream's
first raw words. PCG64 seeds with ``inc = 2·initseq + 1`` and
``s = (initstate + inc)·MULT + inc``, steps by ``s ↦ s·MULT + inc`` and
outputs each new state's XSL-RR, ``rotr64(hi ^ lo, hi >> 58)``. So the
state behind word j is ``A_j·s + B_j·inc mod 2**128``, with
``A_j = MULT**(j+1)`` and ``B_j`` the sum of ``MULT**i`` for i <= j: one
array expression over every (stream, word) cell, computed in 32-bit
limbs. ``_halves`` and ``_bounded32`` decode the words into
``Generator.integers`` draws.

All of this reimplements NumPy internals (``SeedSequence`` in
``bit_generator.pyx``, ``pcg64_set_seed`` and ``pcg64_next64`` in
``pcg64.h``, Lemire's method in ``distributions.c``), not documented
guarantees. If a NumPy release changes them, ``tests/test_rng.py``
fails: it compares the derived states with NumPy's own and
``stream_words`` with ``random_raw``.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

#: Keys whose states one array pass derives; it bounds the memory of a pass.
KEY_BLOCK = 512
#: Cells (rows × words) that one array pass of ``stream_words`` derives.
WORD_BLOCK = 4096

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence's pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LIMB, _SHIFT32, _ONE = np.uint64(_MASK32), np.uint64(32), np.uint64(1)


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Child generator uniquely keyed by ``(master_seed, *key)``."""
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    entropy = (int(master_seed),) + tuple(int(part) for part in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def substreams(master_seed: int, *key) -> Iterator[np.random.Generator]:
    """``substream(master_seed, *row)`` for each key row, in order, as one reused generator.

    The key parts are integers or arrays of integers in ``[0, 2**64)``;
    they broadcast against each other, and the rows of the result are
    taken in C order, so ``substreams(s, trials[:, None], ids)`` gives
    ``(s, trial, id)`` for each id of each trial. Every item yielded is
    the same ``Generator``, reset to the next row's stream with no cached
    32-bit half, so finish drawing from one item before taking the next.
    States are derived ``KEY_BLOCK`` rows at a time.
    """
    seed_words, columns, rows = _key_columns(master_seed, key)
    bitgen = np.random.PCG64(0)
    generator = np.random.Generator(bitgen)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for first in range(0, rows, KEY_BLOCK):
        block = _key_block(columns, first, KEY_BLOCK)
        # pcg64_set_seed: initstate is words 0-1 and initseq words 2-3, high word first
        seeds = _generate_state(*_entropy(seed_words, block)).tolist()
        for state_hi, state_lo, seq_hi, seq_lo in seeds:
            inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
            pcg["inc"] = inc
            pcg["state"] = (((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc) & _MASK128
            bitgen.state = state
            yield generator


def stream_words(master_seed: int, *key, words: int) -> np.ndarray:
    """The first ``words`` raw outputs of each key row's stream, as a (rows, words) uint64 array.

    Row r equals ``substream(master_seed, *row_r).bit_generator.random_raw(words)``;
    the key parts broadcast and give their rows in C order, as in
    ``substreams``. No generator is made: after PCG64's seeding, the
    state before word j is ``A_j·s + B_j·inc mod 2**128`` with the
    per-word constants ``A_j = MULT**(j+1)`` and ``B_j`` the sum of
    ``MULT**i`` for i <= j, so every word of every row is one array
    expression. Words are derived ``WORD_BLOCK`` cells at a time.
    """
    seed_words, columns, rows = _key_columns(master_seed, key)
    out = np.empty((rows, words), dtype=np.uint64)
    if not words:
        return out
    constants = _jump_constants(words)
    span, per_pass = min(words, WORD_BLOCK), max(1, WORD_BLOCK // words)
    # seeds are derived for whole passes, at least KEY_BLOCK rows at a time
    per_seed_block = per_pass * -(-KEY_BLOCK // per_pass)
    for first in range(0, rows, per_seed_block):
        block = _key_block(columns, first, per_seed_block)
        # cells are laid out word by row, so the long axis of each array op runs over rows
        seeds = _generate_state(*_entropy(seed_words, block)).T[:, None, :]
        for row in range(0, len(block), per_pass):
            init_hi, init_lo, seq_hi, seq_lo = seeds[:, :, row : row + per_pass]
            init = _limbs(init_hi, init_lo)
            inc = _limbs((seq_hi << _ONE) | (seq_lo >> np.uint64(63)), (seq_lo << _ONE) | _ONE)
            rows_out = out[first + row : first + row + per_pass]
            for col in range(0, words, span):
                power, total = np.split(constants[:, col : col + span, None], 2)
                rows_out[:, col : col + span] = _xsl_rr(_mul_add(power, init, total, inc)).T
    return out


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
def _jump_constants(words: int) -> np.ndarray:
    """Limbs of the jump constants of words 0 to ``words - 1``, one column per word.

    PCG64's seeding sets ``s = (init + inc)·MULT + inc``, so the state
    before word j, ``A_j·s + B_j·inc``, is also ``MULT**(j+2)·init`` plus
    the sum of ``MULT**i`` for i <= j + 2, times ``inc``. Rows 0-3 hold
    the first factor and rows 4-7 the second, low limb first. Built on
    first use, not at import.
    """
    power = _PCG64_MULT * _PCG64_MULT & _MASK128
    total = (1 + _PCG64_MULT + power) & _MASK128
    columns = []
    for _ in range(words):
        limbs = [value >> shift & _MASK32 for value in (power, total) for shift in range(0, 128, 32)]
        columns.append(limbs)
        power = power * _PCG64_MULT & _MASK128
        total = (total + power) & _MASK128
    constants = np.array(columns, dtype=np.uint64).T.copy()
    constants.flags.writeable = False
    return constants


def _limbs(high: np.ndarray, low: np.ndarray) -> list[np.ndarray]:
    """32-bit limbs, least significant first, of the 128-bit values ``high·2**64 + low``."""
    return [low & _LIMB, low >> _SHIFT32, high & _LIMB, high >> _SHIFT32]


def _mul_add(a: list, x: list, b: list, y: list) -> np.ndarray:
    """Limbs of ``(a·x + b·y) mod 2**128`` from limb lists; the products broadcast.

    A product of two limbs fits in 64 bits. Its low half adds into limb
    ``i + j`` and its high half into the next; each limb sum stays below
    2**37 before the carries run. Limb 3 keeps only its low 32 bits, so
    its products add whole: a uint64 sum wraps without touching them.
    """
    shape = np.broadcast_shapes(a[0].shape, x[0].shape)
    acc = np.zeros((4, *shape), dtype=np.uint64)
    product, part = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
    for i in range(4):
        for j in range(4 - i):
            for u, v in ((a, x), (b, y)):
                np.multiply(u[i], v[j], out=product)
                if i + j == 3:
                    acc[3] += product
                    continue
                acc[i + j] += np.bitwise_and(product, _LIMB, out=part)
                acc[i + j + 1] += np.right_shift(product, _SHIFT32, out=product)
    for limb in range(3):
        acc[limb + 1] += acc[limb] >> _SHIFT32
        acc[limb] &= _LIMB
    acc[3] &= _LIMB
    return acc


def _xsl_rr(state: list[np.ndarray]) -> np.ndarray:
    """PCG64's output of each state: ``rotr64(hi ^ lo, hi >> 58)`` of its two 64-bit halves."""
    mixed = ((state[3] ^ state[1]) << _SHIFT32) | (state[2] ^ state[0])
    rotation = state[3] >> np.uint64(26)
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


def _halves(raw: np.ndarray) -> np.ndarray:
    """The 32-bit halves of raw words as doubles: word ``w`` has its low half in column ``2w``.

    A half is an integer below 2**32, so the double is exact, and so is
    every sum and product below 2**53 made from the halves.
    """
    return raw.astype("<u8", copy=False).view("<u4").astype(np.float64)


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


def as_generator(seed) -> np.random.Generator:
    """Coerce an int seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
