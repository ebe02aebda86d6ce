import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diversity_lab
from diversity_lab import (
    PlatformSet,
    load_similarity_matrix,
    save_similarity_matrix,
)
from conftest import make_similarity


def write_csv(tmp_path, text, name="sim.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestPlatformSet:
    def test_basic(self):
        ps = PlatformSet(("a", "b", "c"))
        assert len(ps) == 3
        assert ps.index("b") == 1
        assert ps[2] == "c"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            PlatformSet(("a", "a"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            PlatformSet(("a", ""))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            PlatformSet(())

    def test_unknown_platform(self):
        with pytest.raises(ValueError, match="unknown platform"):
            PlatformSet(("a",)).index("z")


class TestSimilarityMatrix:
    def test_bundled_fixture(self, five_platform_sim):
        sim = five_platform_sim
        assert sim.count == 5
        assert sim.platforms.names == ("CentOS", "Fedora", "Debian", "Gentoo", "FreeBSD")
        assert sim.similarity(0, 1) == 0.6645
        assert sim.similarity(sim.platforms.index("CentOS"), sim.platforms.index("FreeBSD")) == 0.0368

    def test_one_by_one_bare_row(self, tmp_path):
        path = write_csv(tmp_path, "A\n1.0\n")
        sim = load_similarity_matrix(path)
        assert sim.count == 1
        assert sim.scores[0, 0] == 1.0

    def test_labeled_rows(self, tmp_path):
        path = write_csv(tmp_path, "A,B\nA,1.0,0.25\nB,0.25,1.0\n")
        sim = load_similarity_matrix(path)
        assert sim.similarity(0, 1) == 0.25

    def test_asymmetry_rejected(self, tmp_path):
        path = write_csv(tmp_path, "A,B\nA,1.0,0.5\nB,0.6,1.0\n")
        with pytest.raises(ValueError, match="symmetric"):
            load_similarity_matrix(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = write_csv(tmp_path, "A,B\nA,1.0,1.5\nB,1.5,1.0\n")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            load_similarity_matrix(path)

    def test_bad_diagonal_rejected(self, tmp_path):
        path = write_csv(tmp_path, "A,B\nA,0.9,0.5\nB,0.5,1.0\n")
        with pytest.raises(ValueError, match="diagonal"):
            load_similarity_matrix(path)

    def test_wrong_label_rejected(self, tmp_path):
        path = write_csv(tmp_path, "A,B\nB,1.0,0.5\nA,0.5,1.0\n")
        with pytest.raises(ValueError, match="labeled"):
            load_similarity_matrix(path)

    def test_ragged_row_rejected(self, tmp_path):
        # a short row is rejected either as a cell-count problem or, when it
        # is mistakable for a bare row, as an unparseable score
        path = write_csv(tmp_path, "A,B\nA,1.0\nB,0.5,1.0\n")
        with pytest.raises(ValueError):
            load_similarity_matrix(path)
        path = write_csv(tmp_path, "A,B\nA,1.0,0.5,9.9,9.9\nB,0.5,1.0\n", name="long.csv")
        with pytest.raises(ValueError, match="cells"):
            load_similarity_matrix(path)

    def test_garbage_rejected(self, tmp_path):
        path = write_csv(tmp_path, "A,B\nA,1.0,zap\nB,zap,1.0\n")
        with pytest.raises(ValueError):
            load_similarity_matrix(path)

    def test_missing_rows_rejected(self, tmp_path):
        path = write_csv(tmp_path, "A,B\nA,1.0,0.5\n")
        with pytest.raises(ValueError, match="data rows"):
            load_similarity_matrix(path)

    def test_scores_read_only(self, five_platform_sim):
        with pytest.raises(ValueError):
            five_platform_sim.scores[0, 1] = 0.0

    def test_canonical_symmetry_within_tolerance(self):
        scores = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
        sim = make_similarity(scores)
        assert sim.scores[0, 1] == sim.scores[1, 0]


upper_triangles = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=15
)


@st.composite
def similarity_matrices(draw):
    values = draw(upper_triangles)
    # smallest count whose strict upper triangle holds len(values) entries
    count = 2
    while count * (count - 1) // 2 < len(values):
        count += 1
    scores = np.eye(count)
    it = iter(values)
    for i in range(count):
        for j in range(i + 1, count):
            v = next(it, 0.0)
            scores[i, j] = scores[j, i] = v
    return make_similarity(scores)


@given(similarity_matrices())
def test_distance_properties(sim):
    d = sim.distances()
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all((d >= 0.0) & (d <= 1.0))


@given(sim=similarity_matrices())
@settings(max_examples=50)
def test_save_load_round_trip(tmp_path_factory, sim):
    path = tmp_path_factory.mktemp("roundtrip") / "sim.csv"
    save_similarity_matrix(sim, path)
    loaded = load_similarity_matrix(path)
    assert loaded.platforms == sim.platforms
    assert np.array_equal(loaded.scores, sim.scores)


def test_public_names_resolve():
    assert len(set(diversity_lab.__all__)) == len(diversity_lab.__all__)
    for name in diversity_lab.__all__:
        assert getattr(diversity_lab, name) is not None, name


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from diversity_lab import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(diversity_lab.__all__)
