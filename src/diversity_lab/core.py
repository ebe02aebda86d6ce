"""Domain types shared across the library.

Platforms and their pairwise code-similarity scores, and the migration
policy kinds; a labeling of vulnerable platforms is a plain bool array,
one flag per platform. All types here are immutable after construction and
safe to share between concurrent workers. ``manifest_value`` reads one
type-checked key of a run manifest.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np

#: Tolerance used when checking that a similarity matrix is symmetric.
SYMMETRY_TOLERANCE = 1e-12

BUNDLED_SIMILARITY_NAME = "moss_5platform.csv"


@dataclass(frozen=True)
class PlatformSet:
    """Ordered collection of platform identifiers.

    Identifiers must be unique and non-empty; their order fixes the row
    and column order of every similarity matrix built on top of them.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.names) < 1:
            raise ValueError("platform set must contain at least one platform")
        for name in self.names:
            if not name or not name.strip():
                raise ValueError("platform identifiers must be non-empty")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"platform identifiers must be unique: {self.names!r}")

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index: int) -> str:
        return self.names[index]

    def index(self, name: str) -> int:
        """Position of ``name`` in the platform order."""
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown platform {name!r}; known: {self.names!r}") from None


@dataclass(frozen=True)
class SimilarityMatrix:
    """Pairwise code-similarity scores between platforms.

    Scores live in [0, 1] with 1.0 meaning identical code. The matrix is
    validated to be symmetric within ``SYMMETRY_TOLERANCE`` and is stored
    canonically: the upper triangle mirrored onto the lower one, so that
    downstream arithmetic is exactly symmetric.
    """

    platforms: PlatformSet
    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        count = len(self.platforms)
        if scores.shape != (count, count):
            raise ValueError(
                f"similarity matrix shape {scores.shape} does not match "
                f"{count} platforms"
            )
        if not np.all(np.isfinite(scores)):
            raise ValueError("similarity scores must be finite")
        if np.any(scores < 0.0) or np.any(scores > 1.0):
            raise ValueError("similarity scores must lie in [0, 1]")
        diag = np.diag(scores)
        if np.any(np.abs(diag - 1.0) > SYMMETRY_TOLERANCE):
            raise ValueError("similarity matrix diagonal must be 1.0")
        if np.any(np.abs(scores - scores.T) > SYMMETRY_TOLERANCE):
            raise ValueError(
                f"similarity matrix must be symmetric within {SYMMETRY_TOLERANCE}"
            )
        canonical = np.triu(scores) + np.triu(scores, k=1).T
        np.fill_diagonal(canonical, 1.0)
        canonical.flags.writeable = False
        object.__setattr__(self, "scores", canonical)

    @property
    def count(self) -> int:
        return len(self.platforms)

    def similarity(self, i: int, j: int) -> float:
        return float(self.scores[i, j])

    def distances(self) -> np.ndarray:
        """Full distance matrix (1 - scores), read-only."""
        d = 1.0 - self.scores
        d.flags.writeable = False
        return d


def load_similarity_matrix(path: str | Path) -> SimilarityMatrix:
    """Load and validate a similarity matrix from its CSV format.

    The first row holds the comma-separated platform names; row ``k``
    holds the name of platform ``k`` followed by one score per platform.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if not lines:
        raise ValueError(f"{path}: empty similarity file")
    names = tuple(cell.strip() for cell in lines[0].split(","))
    platforms = PlatformSet(names)
    count = len(platforms)
    if len(lines) != count + 1:
        raise ValueError(
            f"{path}: expected {count} data rows after the header, "
            f"found {len(lines) - 1}"
        )
    scores = np.zeros((count, count), dtype=float)
    for k, line in enumerate(lines[1:]):
        # cells keep their blanks: float() ignores them, and only a label is compared
        cells = line.split(",")
        if len(cells) == count + 1:
            # labeled row: platform name followed by one score per platform
            label = cells.pop(0).strip()
            if label != names[k]:
                raise ValueError(
                    f"{path}: row {k + 2} is labeled {label!r}, expected {names[k]!r}"
                )
        elif len(cells) != count:
            raise ValueError(
                f"{path}: row {k + 2} has {len(cells)} cells, expected "
                f"{count} scores (optionally preceded by the platform name)"
            )
        try:
            scores[k] = list(map(float, cells))
        except ValueError as exc:
            raise ValueError(f"{path}: row {k + 2}: {exc}") from None
    return SimilarityMatrix(platforms, scores)


def save_similarity_matrix(matrix: SimilarityMatrix, path: str | Path) -> None:
    """Write ``matrix`` in the CSV format understood by the loader."""
    path = Path(path)
    lines = [",".join(matrix.platforms.names)]
    for k, name in enumerate(matrix.platforms.names):
        row = ",".join(repr(float(v)) for v in matrix.scores[k])
        lines.append(f"{name},{row}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def bundled_similarity_path() -> Path:
    """Filesystem path of the five-platform similarity fixture shipped with the package."""
    return Path(resources.files("diversity_lab.data") / BUNDLED_SIMILARITY_NAME)


def load_bundled_similarity() -> SimilarityMatrix:
    """Load the bundled five-platform (CentOS/Fedora/Debian/Gentoo/FreeBSD) fixture."""
    return load_similarity_matrix(bundled_similarity_path())


class PolicyKind(Enum):
    """Migration strategy families; a policy is its kind and the persistence horizon ``k``.

    The diversity policy spreads each choice away from the previous ``k - 1``
    platforms, the random-k policy rotates over ``k`` drawn platforms, and the
    uniform policy ignores ``k``.
    """

    DIVERSITY = "diversity"
    UNIFORM = "uniform"
    RANDOM_K = "random_k"


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A float, or an int that converts to one: an int past the float range does not."""
    return isinstance(value, float) or is_int(value) and abs(value) <= sys.float_info.max


def is_number_list(value) -> bool:
    """``list_of(is_number)``, decided for a list of exact floats by one type-set test."""
    return isinstance(value, list) and (set(map(type, value)) <= {float} or all(map(is_number, value)))


def list_of(check, length: int | None = None):
    """A check accepting a list (of ``length`` items, if given) whose every item passes ``check``."""
    return lambda value: (
        isinstance(value, list)
        and (length is None or len(value) == length)
        and all(check(item) for item in value)
    )


def manifest_value(entry: dict, key: str, check, name: str | None = None):
    """``entry[key]``, or a ValueError naming the key when it is missing or fails ``check``.

    ``name`` is the key as the message gives it, ``outer.inner`` for a nested key.
    """
    if key not in entry or not check(entry[key]):
        raise ValueError(f"missing/invalid key {name or key!r}")
    return entry[key]
