"""``rng._word_pieces`` reimplements SeedSequence mixing, PCG64 seeding, PCG64's
128-bit arithmetic and its output, and ``rng.draws`` the ``Generator`` draws made
from those words; NumPy and Python ints are the reference.

If a NumPy release changes any of these internals, these tests fail.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diversity_lab import rng
from diversity_lab.rng import WORD_BLOCK, draw_plan, draws, substream

#: 0 and the edges of one and two uint32 words; 2**64 is three words, and with two
#: key parts five, and 2**200 seven: longer than SeedSequence's four-word pool,
#: so they take the extra mixing loop
BOUNDARY_SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**200]

#: a key part is one SeedSequence word
key_parts = st.integers(0, 2**32 - 1) | st.sampled_from([0, 2**32 - 1])


def stream_words(master_seed, *key, words):
    """The first ``words`` raw words of each key row's stream, one row each, from ``rng._word_pieces``."""
    pieces = [raw for raw, _ in rng._word_pieces(master_seed, key, [words])]
    return np.concatenate([np.empty((words, 0), dtype=np.uint64), *pieces], axis=1).T


def numpy_words(master_seed, keys, words):
    return [substream(master_seed, *key).bit_generator.random_raw(words).tolist() for key in keys]


def mixed_words(master_seed, keys):
    """``generate_state(4, uint64)`` of each key, from one array pass of the bulk mixing."""
    seed_words, parts = rng._key_parts(master_seed, np.array(keys, dtype=np.uint64).reshape(len(keys), -1).T)
    return rng._generate_state(seed_words + parts).reshape(4, len(keys)).T.tolist()


def numpy_mixed_words(master_seed, keys):
    return [
        np.random.SeedSequence((master_seed, *key)).generate_state(4, np.uint64).tolist()
        for key in keys
    ]


class TestDerivationMatchesNumpy:
    @pytest.mark.parametrize("master_seed", BOUNDARY_SEEDS)
    def test_boundary_seeds(self, master_seed):
        keys = [(trial, stream) for trial in (0, 1, 2**32 - 2, 2**32 - 1) for stream in (0, 3)]
        assert mixed_words(master_seed, keys) == numpy_mixed_words(master_seed, keys)

    @pytest.mark.parametrize("master_seed", [2**64, 2**200, 10**400], ids=["2**64", "2**200", "10**400"])
    def test_entropy_longer_than_the_pool(self, master_seed):
        # master seeds are unbounded: 10**400 is 42 words, and every length gets its own hash constants
        keys = [(trial, stream) for trial in (0, 2**32 - 1) for stream in (0, 3)]
        assert mixed_words(master_seed, keys) == numpy_mixed_words(master_seed, keys)
        assert mixed_words(master_seed, [()]) == numpy_mixed_words(master_seed, [()])
        trials = np.array([0, 2**32 - 1])
        assert stream_words(master_seed, trials[:, None], [0, 3], words=3).tolist() == numpy_words(
            master_seed, keys, 3
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**70) | st.sampled_from(BOUNDARY_SEEDS),
        st.integers(1, 4).flatmap(
            lambda parts: st.lists(st.tuples(*[key_parts] * parts), min_size=1, max_size=6)
        ),
    )
    def test_random_keys(self, master_seed, keys):
        # key paths of 1-4 parts, each part one word: up to 7 entropy words
        assert mixed_words(master_seed, keys) == numpy_mixed_words(master_seed, keys)

    @pytest.mark.parametrize("master_seed", [5, 2**64])
    def test_block_whose_keys_change_word_count(self, master_seed):
        # trial indices crossing 2**32 would go from one entropy word to two within one
        # call; every key row of a call has one layout, so such a call is refused
        trials = np.arange(2**32 - 3, 2**32 + 3, dtype=np.uint64)
        with pytest.raises(ValueError, match=r"key parts must be in \[0, 2\*\*32\), got 4294967298$"):
            stream_words(master_seed, trials[:, None], [0, 2], words=2)
        with pytest.raises(ValueError, match="key parts"):
            draws([draw_plan([0, 5])], master_seed, trials, 2)
        # up to its last one-word trial, the call is derived as NumPy derives it
        trials = trials[:3]
        keys = [(t, s) for t in trials.tolist() for s in (0, 2)]
        assert mixed_words(master_seed, keys) == numpy_mixed_words(master_seed, keys)
        words = stream_words(master_seed, trials[:, None], [0, 2], words=2)
        assert words.tolist() == numpy_words(master_seed, keys, 2)

    def test_no_key_parts(self):
        assert mixed_words(9, [()]) == [np.random.SeedSequence(9).generate_state(4, np.uint64).tolist()]


class TestOneSeedingPass:
    """``_generate_state`` seeds every key row of a call at once, hashing each entropy word at the
    broadcast shape of the key parts mixed into it so far; ``generate_state`` is the reference."""

    SEEDS = [0, 2**32, 2**64, 10**400]
    SEED_IDS = ["0", "2**32", "2**64", "10**400"]

    @staticmethod
    def seeded(master_seed, *key):
        seed_words, parts = rng._key_parts(master_seed, key)
        return rng._generate_state(seed_words + parts)

    @pytest.mark.parametrize("master_seed", SEEDS, ids=SEED_IDS)
    def test_trials_by_streams(self, master_seed):
        # (T,) trials and (S, 1) streams, as a Monte Carlo chunk keys its streams
        trials, streams = [0, 1, 2**32 - 1], [0, 3]
        state = self.seeded(master_seed, np.array(trials), np.array(streams)[:, None])
        assert state.shape == (4, 2, 3)
        keys = [(t, s) for s in streams for t in trials]
        assert state.reshape(4, -1).T.tolist() == numpy_mixed_words(master_seed, keys)

    @pytest.mark.parametrize("master_seed", SEEDS, ids=SEED_IDS)
    def test_scalar_by_rows(self, master_seed):
        # a scalar N and (R,) samples, as the scenario sweep keys a chunk
        state = self.seeded(master_seed, 5, np.arange(4))
        assert state.shape == (4, 4)
        assert state.T.tolist() == numpy_mixed_words(master_seed, [(5, row) for row in range(4)])

    @pytest.mark.parametrize("master_seed", SEEDS, ids=SEED_IDS)
    def test_no_key_parts(self, master_seed):
        state = self.seeded(master_seed)
        assert state.shape == (4, 1) and state.T.tolist() == numpy_mixed_words(master_seed, [()])

    @pytest.mark.parametrize("master_seed", SEEDS, ids=SEED_IDS)
    def test_no_key_rows(self, master_seed, replays):
        trials, streams = np.arange(0), np.array([0, 1])[:, None]
        assert self.seeded(master_seed, trials, streams).shape == (4, 2, 0)
        assert list(rng._word_pieces(master_seed, (trials, streams), [2, 3])) == []
        values = draws([draw_plan([5, 0]), draw_plan([0])], master_seed, trials, streams)
        assert [array.shape for array in values] == [(2, 0), (1, 0)] and not replays


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


class TestMultiplyAdd:
    """``_add(_mul(a, x), b)``, the one multiply-add of the jump and the leap, is ``a·x + b mod 2**128``."""

    edges = st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**128 - 1])
    values = st.integers(0, 2**128 - 1) | edges

    @staticmethod
    def pairs(values):
        """An array of 128-bit Python ints as a (high, low) pair of uint64 arrays."""
        return (values >> 64).astype(np.uint64), (values & 2**64 - 1).astype(np.uint64)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.data())
    def test_equals_python_ints(self, lanes, rows, jump, data):
        # (a, x, b) shapes as the stepper has them: the jump multiplies (lanes, 1) constants into (1, rows)
        # seeded states and adds a (lanes, rows) product, the leap a (1, 1) constant into (lanes, rows)
        # states and adds a (1, rows) advance
        shapes = ((lanes, 1), (1, rows), (lanes, rows)) if jump else ((1, 1), (lanes, rows), (1, rows))
        a, x, b = (
            np.array(data.draw(st.lists(self.values, min_size=size, max_size=size)), dtype=object).reshape(shape)
            for shape in shapes
            for size in [math.prod(shape)]
        )
        high, low = rng._add(rng._mul(self.pairs(a), self.pairs(x)), self.pairs(b))
        assert (high.astype(object) << 64 | low.astype(object)).tolist() == ((a * x + b) % 2**128).tolist()


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
            (WORD_BLOCK + 3, 1),  # more rows than WORD_BLOCK: one lane, no leap
            (1000, 73),  # the scenario sweep's shape: 4 lanes that do not divide the words
            (WORD_BLOCK + 3, 2),  # more rows than WORD_BLOCK and two words: one lane, one step each
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
        # the last trial is the largest key part, 2**32 - 1
        trials = np.arange(2**32 - rows, 2**32, dtype=np.uint64)
        got = stream_words(master_seed, trials, 3, words=words)
        assert got.shape == (rows, words) and got.dtype == np.uint64
        assert got.tolist() == numpy_words(master_seed, [(t, 3) for t in trials.tolist()], words)

    def test_three_dimensional_keys_cross_a_seed_block(self):
        # the key rows are copied from the broadcast parts, whatever their shape: 4,400 rows,
        # more than WORD_BLOCK, with WORD_BLOCK inside the last row of the leading axis
        first, second, third = np.arange(2)[:, None, None], np.array([7, 2**32 - 1])[:, None], np.arange(1100)
        keys = [(i, j, k) for i in range(2) for j in (7, 2**32 - 1) for k in range(1100)]
        assert stream_words(5, first, second, third, words=1).tolist() == numpy_words(5, keys, 1)

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

    @pytest.mark.parametrize(
        "part",
        [2**32, np.array([5, 2**32], dtype=np.uint64), 2**64, 10**400],
        ids=["2**32", "uint64-array", "2**64", "10**400"],
    )
    def test_key_parts_of_two_words_refused(self, part):
        # a key part is one SeedSequence word: the part past it is named
        largest = int(np.max(part))
        with pytest.raises(ValueError, match=rf"key parts must be in \[0, 2\*\*32\), got {largest}$"):
            stream_words(3, np.arange(2), part, words=1)
        with pytest.raises(ValueError, match="key parts"):
            draws([draw_plan([0])], 3, part, np.arange(2))


#: ``random()``, ``integers(1)`` (which takes nothing), small bounds, a power of
#: two, and 2**21 and the bound past it, once the largest exact in a double
PLAN_BOUNDS = [0, 1, 2, 3, 7, 48, 1000, 2**21, 2**21 + 1]


class TestDraws:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(st.sampled_from(PLAN_BOUNDS), max_size=12),
        st.sampled_from(BOUNDARY_SEEDS) | st.integers(0, 2**70),
        st.lists(st.tuples(key_parts, key_parts), min_size=1, max_size=5),
    )
    def test_equal_scalar_draws(self, bounds, master_seed, keys):
        # a row with a draw NumPy redraws is drawn again on its substream, so every row is exact
        plan = draw_plan(bounds)
        (values,) = draws([plan], master_seed, *np.array(keys, dtype=np.uint64).T)
        assert values.shape == (len(bounds), len(keys))
        for column, key in enumerate(keys):
            replay = substream(master_seed, *key)
            expected = [replay.random() if bound == 0 else int(replay.integers(bound)) for bound in bounds]
            assert values[:, column].tolist() == expected
            # the draws took exactly the planned words
            next_word = substream(master_seed, *key).bit_generator.random_raw(plan.words + 1)[-1]
            assert replay.bit_generator.random_raw() == next_word

    def test_bounds_past_32_bits_are_refused(self):
        # past 2**32 NumPy takes a 64-bit draw, which no plan lays out; the largest bound is named
        with pytest.raises(ValueError, match=r"m up to 2\*\*32, got 9007199254740992$"):
            draw_plan([2**21 + 1, 0, 2**40, 3, 2**53])

    @pytest.mark.parametrize("bound", [2**21, 2**21 + 1, 2**31 + 5, 2**32 - 1, 2**32, 2**32 + 1, 2**40])
    def test_large_bounds_equal_scalar_draws(self, bound, replays):
        # Lemire's product of a 32-bit draw is exact in uint64 for every bound up to 2**32,
        # so a row is drawn again only for a draw NumPy redraws; a larger bound is refused
        bounds = [bound, 0, bound, bound]
        if bound > 2**32:
            with pytest.raises(ValueError, match=rf"m up to 2\*\*32, got {bound}$"):
                draw_plan(bounds)
            return
        (values,) = draws([draw_plan(bounds)], 7, np.arange(40), 1)
        for row in range(40):
            scalar = substream(7, row, 1)
            expected = [scalar.random() if m == 0 else int(scalar.integers(m)) for m in bounds]
            assert values[:, row].tolist() == expected
        replayed = [key[1] for key in replays]
        assert replayed == sorted(set(replayed)) and set(replayed) <= set(range(40))
        if bound & (bound - 1) == 0:  # 2**32 % bound == 0: NumPy never redraws
            assert replayed == []
        elif bound == 2**31 + 5:  # NumPy redraws almost half of the draws, not all
            assert 0 < len(replayed) < 40

    def test_plan_without_words(self, replays):
        plan = draw_plan([1, 1])
        assert plan.words == 0
        assert draws([plan], 4, np.arange(3), 0)[0].tolist() == [[0.0] * 3] * 2 and not replays

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.lists(st.sampled_from(PLAN_BOUNDS + [2**31 + 5]), max_size=8), min_size=1, max_size=4),
        st.sampled_from(BOUNDARY_SEEDS) | st.integers(0, 2**70),
        st.lists(key_parts, min_size=1, max_size=5),
        st.lists(key_parts, min_size=4, max_size=4, unique=True),
    )
    def test_plans_equal_one_call_each(self, plan_bounds, master_seed, trials, ids):
        # one run of key rows per plan, stream-major, as a Monte Carlo chunk draws its streams;
        # 2**31 + 5 makes NumPy redraw about half its draws
        plans = [draw_plan(bounds) for bounds in plan_bounds]
        trials, ids = np.array(trials, dtype=np.uint64), np.array(ids[: len(plans)], dtype=np.uint64)
        self.assert_joint_equals_single(plans, master_seed, trials, ids)

    @pytest.mark.parametrize("master_seed", [0, 2**64])
    def test_plan_runs_cross_seed_blocks(self, master_seed):
        # three runs of 3,000 rows, one seeding: the second and third runs cross multiples of
        # WORD_BLOCK, at their rows 1,096 and 2,192
        plans = [draw_plan(bounds) for bounds in ([5, 0, 2**31 + 5], [0, 7, 0, 1000, 1], [2**32, 3, 0])]
        trials, ids = np.arange(3000, dtype=np.uint64), np.array([4, 0, 2**32 - 1], dtype=np.uint64)
        assert 2 * WORD_BLOCK < 3 * len(trials) <= 3 * WORD_BLOCK
        joint, replays = self.assert_joint_equals_single(plans, master_seed, trials, ids)
        # about half the rows of the 2**31 + 5 plan
        assert 1000 < len(replays) < 2000
        for plan, stream, values in zip(plans, ids.tolist(), joint):
            for row in (0, 1095, 1096, 2191, 2192, 2999):
                scalar = substream(master_seed, row, stream)
                expected = [scalar.random() if m == 0 else int(scalar.integers(m)) for m in plan.bounds.tolist()]
                assert values[:, row].tolist() == expected

    def test_no_key_rows(self, replays):
        plans = [draw_plan([5, 0]), draw_plan([])]
        values = draws(plans, 3, np.arange(0), np.array([0, 1])[:, None])
        assert [array.shape for array in values] == [(2, 0), (0, 0)] and not replays
        assert stream_words(3, np.arange(0), words=2).shape == (0, 2)

    @staticmethod
    def assert_joint_equals_single(plans, master_seed, trials, ids):
        """``draws`` of every plan in one call equals one call per plan, in values and replayed keys."""
        replays = []

        def counted(seed, *key):
            replays.append(key)
            return substream(seed, *key)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng, "substream", counted)
            joint = draws(plans, master_seed, trials, ids[:, None])
            joint_replays = replays.copy()
            replays.clear()
            single = [draws([plan], master_seed, trials, stream)[0] for plan, stream in zip(plans, ids.tolist())]
        assert [values.tolist() for values in joint] == [values.tolist() for values in single]
        assert joint_replays == replays
        return joint, replays

    def test_out_holds_each_plan_in_its_columns(self, replays):
        # plans of one length, as a scenario pass draws its N values: each run is decoded straight
        # into its block of columns; integers(1) takes no word and leaves its zero, and 2**31 + 5
        # makes NumPy redraw about half its draws
        plans = [draw_plan(bounds) for bounds in ([0, 2, 0, 1], [0, 3, 0, 2], [0, 2**31 + 5, 0, 2**31 + 4])]
        ns, samples = np.array([2, 3, 7])[:, None], np.arange(50)
        out = np.zeros((4, 150))
        blocks = draws(plans, 5, ns, samples, out=out)
        assert all(np.shares_memory(block, out) for block in blocks) and replays
        for run, (plan, n) in enumerate(zip(plans, ns.ravel().tolist())):
            (single,) = draws([plan], 5, n, samples)
            assert out[:, run * 50 : (run + 1) * 50].tolist() == single.tolist()
        for shape in [(3, 150), (5, 150), (4, 149)]:
            with pytest.raises(ValueError, match="does not hold 3 plans of 150 key rows"):
                draws(plans, 5, ns, samples, out=np.zeros(shape))
        with pytest.raises(ValueError, match="does not hold"):
            draws([plans[0], draw_plan([0, 2])], 5, ns[:2], samples, out=np.zeros((4, 100)))

    def test_key_rows_split_evenly_between_plans(self):
        with pytest.raises(ValueError, match="equal runs"):
            draws([draw_plan([3])] * 2, 0, np.arange(3))

    def test_cached_half_outlives_doubles(self):
        # a double between two 32-bit draws takes its own word; the second 32-bit draw
        # reads the high half of the first one's word
        plan = draw_plan([5, 0, 0, 5, 5])
        assert plan.word.tolist() == [0, 1, 2, 0, 3] and plan.half.tolist() == [0, 0, 0, 1, 0]
        assert plan.words == 4
