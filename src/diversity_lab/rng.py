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
generator to each key's state. Both steps reimplement NumPy internals
(``SeedSequence`` in ``bit_generator.pyx``, ``pcg64_set_seed`` in
``pcg64.h``), not documented guarantees; ``tests/test_rng.py`` compares
them with NumPy's own.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: Keys whose states one array pass derives; it bounds the memory of a pass.
KEY_BLOCK = 512

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence's pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    parts = [np.asarray(part) for part in key]
    if any(part.size and part.min() < 0 for part in parts):
        raise ValueError("key parts must be non-negative")
    columns = [column.ravel() for column in np.broadcast_arrays(*parts)]
    rows = columns[0].size if columns else 1
    seed_words = _uint32_words(int(master_seed))
    bitgen = np.random.PCG64(0)
    generator = np.random.Generator(bitgen)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for first in range(0, rows, KEY_BLOCK):
        block = np.empty((min(KEY_BLOCK, rows - first), len(columns)), dtype=np.uint64)
        for i, column in enumerate(columns):
            block[:, i] = column[first : first + KEY_BLOCK]
        entropy, lengths = _entropy(seed_words, block)
        # pcg64_set_seed: initstate is words 0-1 and initseq words 2-3, high word first
        for state_hi, state_lo, seq_hi, seq_lo in _generate_state(entropy, lengths).tolist():
            inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
            pcg["inc"] = inc
            pcg["state"] = (((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc) & _MASK128
            bitgen.state = state
            yield generator


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


def as_generator(seed) -> np.random.Generator:
    """Coerce an int seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
