import numpy as np
import pytest

from diversity_lab import (
    McConfig,
    SimilarityMatrix,
    bundled_similarity_path,
    load_similarity_matrix,
    run_mc_study,
)
from diversity_lab.rng import draw_plan, draws, substream
from diversity_lab.scheduler import walk_bounds, walks


@pytest.fixture(scope="session")
def five_platform_sim() -> SimilarityMatrix:
    """The bundled five-platform similarity fixture."""
    return load_similarity_matrix(bundled_similarity_path())


@pytest.fixture(scope="session")
def default_study(five_platform_sim):
    """The full default study (500 trials, 100 intervals, k=3, seed 0)."""
    return run_mc_study(McConfig(), five_platform_sim)


@pytest.fixture
def replays(monkeypatch):
    """The keys of the streams that ``rng.draws`` draws again, one call at a time."""
    keys = []

    def counted(master_seed, *key):
        keys.append((master_seed, *key))
        return substream(master_seed, *key)

    monkeypatch.setattr("diversity_lab.rng.substream", counted)
    return keys


def make_similarity(scores) -> SimilarityMatrix:
    scores = np.asarray(scores, dtype=float)
    names = tuple(f"p{i}" for i in range(scores.shape[0]))
    return SimilarityMatrix(names, scores)


def seeded_walks(kind, sim, k, steps, starts, seed, *key) -> np.ndarray:
    """``kind`` walks of ``steps`` platforms from ``starts``, one row per key row of ``substream(seed, *key)``.

    With no key parts there is one row, drawn as the ``schedule`` command draws it.
    """
    (values,) = draws([draw_plan(walk_bounds(kind, sim.count, k, steps))], seed, *key)
    return walks(kind, sim.distances(), k, steps, values, starts)[0]


@pytest.fixture
def identity_sim() -> SimilarityMatrix:
    """Five entirely distinct platforms (zero off-diagonal similarity)."""
    return make_similarity(np.eye(5))


@pytest.fixture
def clone_sim() -> SimilarityMatrix:
    """Five platforms with identical code (all similarities 1)."""
    return make_similarity(np.ones((5, 5)))


def wide_similarity_csv(seed: int, platforms: int = 48, families: int = 8) -> str:
    """CSV text of a seeded similarity matrix whose platforms fall into families.

    Scores within a family are drawn from [0.55, 0.95), across families
    from [0, 0.35), rounded to four decimals; the matrix is symmetric with
    a unit diagonal.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, platforms)))
    family = rng.permutation(np.repeat(np.arange(families), platforms // families))
    same = family[:, None] == family[None, :]
    draws = np.where(
        same, rng.uniform(0.55, 0.95, (platforms, platforms)), rng.uniform(0.0, 0.35, (platforms, platforms))
    )
    upper = np.triu(np.round(draws, 4), k=1)
    scores = upper + upper.T
    np.fill_diagonal(scores, 1.0)
    names = [f"w{i:02d}" for i in range(platforms)]
    rows = [",".join(names)]
    rows += [name + "," + ",".join(f"{value:.4f}" for value in row) for name, row in zip(names, scores)]
    return "\n".join(rows) + "\n"
