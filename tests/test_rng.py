"""``rng.stream_words`` reimplements SeedSequence mixing, PCG64 seeding, PCG64's
128-bit arithmetic and its output, and ``rng.draws`` the ``Generator`` draws made
from those words; NumPy and Python ints are the reference.

If a NumPy release changes any of these internals, these tests fail.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diversity_lab import rng
from diversity_lab.rng import WORD_BLOCK, draw_plan, draws, stream_words, substream

#: 0 and the edges of one and two uint32 words; 2**200 is seven words,
#: longer than SeedSequence's four-word pool, so it takes the extra mixing loop
BOUNDARY_SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**200]

key_parts = st.integers(0, 2**64 - 1) | st.integers(0, 2**32 + 2)


def numpy_words(master_seed, keys, words):
    return [substream(master_seed, *key).bit_generator.random_raw(words).tolist() for key in keys]


def mixed_words(master_seed, keys):
    """``generate_state(4, uint64)`` of each key, from one array pass of the bulk mixing."""
    block = np.array(keys, dtype=np.uint64).reshape(len(keys), -1)
    return rng._generate_state(*rng._entropy(rng._uint32_words(master_seed), block)).tolist()


def numpy_mixed_words(master_seed, keys):
    return [
        np.random.SeedSequence((master_seed, *key)).generate_state(4, np.uint64).tolist()
        for key in keys
    ]


class TestDerivationMatchesNumpy:
    @pytest.mark.parametrize("master_seed", BOUNDARY_SEEDS)
    def test_boundary_seeds(self, master_seed):
        keys = [(trial, stream) for trial in (0, 1, 2**32 - 1, 2**32, 2**64 - 1) for stream in (0, 3)]
        assert mixed_words(master_seed, keys) == numpy_mixed_words(master_seed, keys)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**70) | st.sampled_from(BOUNDARY_SEEDS),
        st.integers(1, 4).flatmap(
            lambda parts: st.lists(st.tuples(*[key_parts] * parts), min_size=1, max_size=6)
        ),
    )
    def test_random_keys(self, master_seed, keys):
        # key paths of 1-4 parts, each part one or two words: up to 11 entropy words
        assert mixed_words(master_seed, keys) == numpy_mixed_words(master_seed, keys)

    @pytest.mark.parametrize("master_seed", [5, 2**64])
    def test_block_whose_keys_change_word_count(self, master_seed):
        # trial indices crossing 2**32 go from one entropy word to two within one
        # block; after the three words of 2**64 that is five or six, past the pool
        trials = np.arange(2**32 - 3, 2**32 + 3, dtype=np.uint64)
        keys = [(t, s) for t in trials.tolist() for s in (0, 2)]
        assert mixed_words(master_seed, keys) == numpy_mixed_words(master_seed, keys)
        words = stream_words(master_seed, trials[:, None], [0, 2], words=2)
        assert words.tolist() == numpy_words(master_seed, keys, 2)

    def test_no_key_parts(self):
        assert mixed_words(9, [()]) == [np.random.SeedSequence(9).generate_state(4, np.uint64).tolist()]


class TestMulhi64:
    """``_mulhi64`` builds the high word of a 64 x 64-bit product from 32-bit halves."""

    edges = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1) | edges, st.integers(0, 2**64 - 1) | edges), min_size=1))
    def test_equals_python_ints(self, pairs):
        x, y = (np.array(column, dtype=np.uint64) for column in zip(*pairs))
        assert rng._mulhi64(x, y).tolist() == [a * b >> 64 for a, b in pairs]

    @pytest.mark.filterwarnings("error")
    def test_edges_without_warnings(self):
        values = [0, 2**32 - 1, 2**32, 2**64 - 1]
        x, y = (np.array(column, dtype=np.uint64) for column in zip(*[(a, b) for a in values for b in values]))
        assert rng._mulhi64(x, y).tolist() == [a * b >> 64 for a in values for b in values]


class TestStreamWords:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(BOUNDARY_SEEDS) | st.integers(0, 2**70),
        st.integers(1, 4).flatmap(
            lambda parts: st.lists(st.tuples(*[key_parts] * parts), min_size=1, max_size=6)
        ),
        st.integers(1, 9),
    )
    def test_random_keys(self, master_seed, keys, words):
        block = np.array(keys, dtype=np.uint64)
        assert stream_words(master_seed, *block.T, words=words).tolist() == numpy_words(
            master_seed, keys, words
        )

    @pytest.mark.parametrize("master_seed", BOUNDARY_SEEDS)
    @pytest.mark.parametrize(
        "rows, words",
        [
            (1, WORD_BLOCK + 3),  # WORD_BLOCK lanes: one leap, then a short last step
            (3, WORD_BLOCK // 2 + 1),  # 1,365 lanes: one leap, then a partial step
            (600, 50),  # 6 lanes, which do not divide the words
            (WORD_BLOCK + 3, 1),  # rows cross a seed block: one lane, no leap
            (1000, 73),  # the scenario sweep's shape: 4 lanes that do not divide the words
            (WORD_BLOCK + 3, 2),  # one lane in the first seed block, two in the short last
        ],
        ids=[
            "words-cross-a-pass",
            "one-row-a-pass",
            "passes-in-a-seed-block",
            "rows-cross-a-seed-block",
            "lanes-do-not-divide-words",
            "lanes-change-between-seed-blocks",
        ],
    )
    def test_across_block_boundaries(self, master_seed, rows, words):
        trials = np.arange(2**32 - 2, 2**32 - 2 + rows, dtype=np.uint64)
        got = stream_words(master_seed, trials, 3, words=words)
        assert got.shape == (rows, words) and got.dtype == np.uint64
        assert got.tolist() == numpy_words(master_seed, [(t, 3) for t in trials.tolist()], words)

    def test_rows_in_c_order(self):
        trials, ids = np.arange(5), [0, 1, 3]
        keys = [(t, s) for t in trials.tolist() for s in ids]
        assert stream_words(8, trials[:, None], ids, words=2).tolist() == numpy_words(8, keys, 2)

    def test_no_key_parts_and_no_words(self):
        assert stream_words(9, words=3).tolist() == numpy_words(9, [()], 3)
        assert stream_words(9, np.arange(4), words=0).shape == (4, 0)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="master seed"):
            stream_words(-1, 0, words=1)
        with pytest.raises(ValueError, match="key parts"):
            stream_words(0, np.array([0, -1]), words=1)


#: ``random()``, ``integers(1)`` (which takes nothing), small bounds, a power of
#: two, the largest exact bound 2**21 and the first one past it
PLAN_BOUNDS = [0, 1, 2, 3, 7, 48, 1000, 2**21, 2**21 + 1]


class TestDraws:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(st.sampled_from(PLAN_BOUNDS), max_size=12),
        st.sampled_from(BOUNDARY_SEEDS) | st.integers(0, 2**70),
        st.lists(st.tuples(key_parts, key_parts), min_size=1, max_size=5),
    )
    def test_equal_scalar_draws(self, bounds, master_seed, keys):
        # a bound above 2**21 is drawn again on the row's substream, so every row is exact
        plan = draw_plan(bounds)
        values = draws(plan, master_seed, *np.array(keys, dtype=np.uint64).T)
        assert values.shape == (len(bounds), len(keys))
        for column, key in enumerate(keys):
            replay = substream(master_seed, *key)
            expected = [replay.random() if bound == 0 else int(replay.integers(bound)) for bound in bounds]
            assert values[:, column].tolist() == expected
            # the draws took exactly the planned words
            next_word = substream(master_seed, *key).bit_generator.random_raw(plan.words + 1)[-1]
            assert replay.bit_generator.random_raw() == next_word

    def test_bounds_past_exact_products_are_drawn_again(self, replays):
        # above 2**21 Lemire's product may not be exact in a double, and past 2**32 NumPy
        # takes a 64-bit draw: every key row is drawn again, one call at a time
        bounds = [2**21 + 1, 0, 2**40, 3, 2**53]
        values = draws(draw_plan(bounds), 7, np.arange(4), 1)
        assert replays == [(7, row, 1) for row in range(4)]
        for row in range(4):
            scalar = substream(7, row, 1)
            expected = [scalar.random() if bound == 0 else int(scalar.integers(bound)) for bound in bounds]
            assert values[:, row].tolist() == expected

    def test_plan_without_words(self, replays):
        plan = draw_plan([1, 1])
        assert plan.words == 0
        assert draws(plan, 4, np.arange(3), 0).tolist() == [[0.0] * 3] * 2 and not replays

    def test_cached_half_outlives_doubles(self):
        # a double between two 32-bit draws takes its own word; the second 32-bit draw
        # reads the high half of the first one's word
        plan = draw_plan([5, 0, 0, 5, 5])
        assert plan.word.tolist() == [0, 1, 2, 0, 3] and plan.half.tolist() == [0, 0, 0, 1, 0]
        assert plan.words == 4
