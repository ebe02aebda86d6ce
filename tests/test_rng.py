"""``rng.substreams`` and ``rng.stream_words`` reimplement SeedSequence mixing, PCG64
seeding and PCG64's output; NumPy is the reference.

If a NumPy release changes any of these internals, these tests fail.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diversity_lab import rng
from diversity_lab.rng import KEY_BLOCK, WORD_BLOCK, stream_words, substream, substreams

#: 0 and the edges of one and two uint32 words; 2**200 is seven words,
#: longer than SeedSequence's four-word pool, so it takes the extra mixing loop
BOUNDARY_SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**200]

key_parts = st.integers(0, 2**64 - 1) | st.integers(0, 2**32 + 2)


def numpy_states(master_seed, keys):
    seqs = [np.random.SeedSequence((master_seed, *key)) for key in keys]
    return [seq.generate_state(4, np.uint64).tolist() for seq in seqs], [
        np.random.PCG64(seq).state for seq in seqs
    ]


def bulk_states(master_seed, keys):
    """The mixed words of each key, and its generator state, from one block of ``substreams``."""
    block = np.array(keys, dtype=np.uint64)
    entropy, lengths = rng._entropy(rng._uint32_words(master_seed), block)
    words = rng._generate_state(entropy, lengths).tolist()
    states = [g.bit_generator.state for g in substreams(master_seed, *block.T)]
    return words, states


class TestDerivationMatchesNumpy:
    @pytest.mark.parametrize("master_seed", BOUNDARY_SEEDS)
    def test_boundary_seeds(self, master_seed):
        keys = [(trial, stream) for trial in (0, 1, 2**32 - 1, 2**32, 2**64 - 1) for stream in (0, 3)]
        assert bulk_states(master_seed, keys) == numpy_states(master_seed, keys)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**70) | st.sampled_from(BOUNDARY_SEEDS),
        st.integers(1, 4).flatmap(
            lambda parts: st.lists(st.tuples(*[key_parts] * parts), min_size=1, max_size=6)
        ),
    )
    def test_random_keys(self, master_seed, keys):
        # key paths of 1-4 parts, each part one or two words: up to 11 entropy words
        assert bulk_states(master_seed, keys) == numpy_states(master_seed, keys)

    @pytest.mark.parametrize("master_seed", [5, 2**64])
    def test_block_whose_keys_change_word_count(self, master_seed):
        # trial indices crossing 2**32 go from one entropy word to two within one
        # block; after the three words of 2**64 that is five or six, past the pool
        trials = np.arange(2**32 - 3, 2**32 + 3, dtype=np.uint64)
        states = [g.bit_generator.state for g in substreams(master_seed, trials[:, None], [0, 2])]
        expected = [
            substream(master_seed, t, s).bit_generator.state for t in trials.tolist() for s in (0, 2)
        ]
        assert states == expected

    def test_no_key_parts(self):
        assert [g.bit_generator.state for g in substreams(9)] == [substream(9).bit_generator.state]


class TestSubstreams:
    def test_rows_in_c_order_across_blocks(self):
        trials, ids = np.arange(KEY_BLOCK // 2 + 1), [0, 1, 3]
        keys = [(t, s) for t in trials.tolist() for s in ids]
        assert len(keys) > KEY_BLOCK
        draws = [g.bit_generator.random_raw() for g in substreams(2**32, trials[:, None], ids)]
        assert draws == [substream(2**32, *key).bit_generator.random_raw() for key in keys]

    @pytest.mark.parametrize("draws", [1, 3, 7])
    def test_no_cached_half_carries_over(self, draws):
        # an odd number of 32-bit draws leaves the high half of a word cached
        streams = substreams(4, 8, np.arange(3))
        first = next(streams)
        first.integers(1000, size=draws, dtype=np.uint32)
        assert first.bit_generator.state["has_uint32"] == 1
        for sample in (1, 2):
            reused, fresh = next(streams), substream(4, 8, sample)
            assert reused.integers(1000, size=5, dtype=np.uint32).tolist() == fresh.integers(
                1000, size=5, dtype=np.uint32
            ).tolist()
            assert reused.random(4).tolist() == fresh.random(4).tolist()
            assert reused.integers(7, size=draws).tolist() == fresh.integers(7, size=draws).tolist()

    def test_one_generator_is_reused(self):
        generators = list(substreams(0, np.arange(4)))
        assert all(g is generators[0] for g in generators)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="master seed"):
            next(substreams(-1, 0))
        with pytest.raises(ValueError, match="key parts"):
            next(substreams(0, np.array([0, -1])))


def numpy_words(master_seed, keys, words):
    return [substream(master_seed, *key).bit_generator.random_raw(words).tolist() for key in keys]


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
            (1, WORD_BLOCK + 3),  # one row's words span two passes
            (3, WORD_BLOCK // 2 + 1),  # one row a pass
            (600, 50),  # 81 rows a pass, 7 passes a seed block, and a short last block
            (WORD_BLOCK + 3, 1),  # rows cross a seed block
        ],
        ids=["words-cross-a-pass", "one-row-a-pass", "passes-in-a-seed-block", "rows-cross-a-seed-block"],
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
