"""Domain types shared across the library.

A ``SimilarityMatrix`` holds the platform names and their pairwise
code-similarity scores; a platform is its index in ``names``, and a
labeling of vulnerable platforms is a plain bool array, one flag per
platform. ``PolicyKind`` names the migration policy kinds. All types here
are immutable after construction and safe to share between concurrent
workers. ``manifest_value`` reads one type-checked key of a run manifest.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

#: Tolerance used when checking that a similarity matrix is symmetric.
SYMMETRY_TOLERANCE = 1e-12

BUNDLED_SIMILARITY_NAME = "moss_5platform.csv"
#: The most platforms a pool may hold: up to 10,000, ``Generator.choice(N, k, replace=False)``
#: draws by Floyd's algorithm, which ``rng._random_k_subsets`` decodes, and above it by a tail
#: shuffle in an order no draw plan states. So every engine decodes every pool with no scalar path.
MAX_PLATFORMS = 10_000
#: Most intervals one report or study may hold: a ``schedule``'s steps, an ``analytic`` run length or an ``mc`` horizon.
MAX_STEPS = 1_000_000


def check_platform_count(count: int) -> None:
    """Raise ValueError unless a pool of ``count`` platforms is between 1 and ``MAX_PLATFORMS``."""
    if not 1 <= count <= MAX_PLATFORMS:
        raise ValueError(f"platform counts must be between 1 and {MAX_PLATFORMS}, got {count}")


def check_platform_names(names: tuple[str, ...]) -> None:
    """Raise ValueError unless ``names`` are a valid platform count of unique, non-blank identifiers."""
    check_platform_count(len(names))
    for name in names:
        if not name or not name.strip():
            raise ValueError("platform identifiers must be non-empty")
    if len(set(names)) != len(names):
        raise ValueError(f"platform identifiers must be unique: {names!r}")


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Pairwise code-similarity scores between named platforms.

    ``names`` are unique and non-blank, and fix the row and column order of
    ``scores``. Scores live in [0, 1] with 1.0 meaning identical code. The
    matrix is validated to be symmetric within ``SYMMETRY_TOLERANCE`` and is
    stored canonically: the upper triangle mirrored onto the lower one, so
    that downstream arithmetic is exactly symmetric. It compares by identity:
    compare ``names``, and ``scores`` with ``np.array_equal``.
    """

    names: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self) -> None:
        # a tuple, so that the caller's list cannot change the names after they are checked
        object.__setattr__(self, "names", tuple(self.names))
        check_platform_names(self.names)
        scores = np.asarray(self.scores, dtype=float)
        count = len(self.names)
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
        return len(self.names)

    def index(self, name: str) -> int:
        """Position of ``name`` in the platform order."""
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown platform {name!r}; known: {self.names!r}") from None

    def distances(self) -> np.ndarray:
        """Full distance matrix (1 - scores), read-only."""
        d = 1.0 - self.scores
        d.flags.writeable = False
        return d


def load_similarity_matrix(path: str | Path) -> SimilarityMatrix:
    """Load and validate a similarity matrix from its CSV format.

    The first row holds the comma-separated platform names; row ``k``
    holds the name of platform ``k`` followed by one score per platform.
    A UTF-8 byte-order mark, as spreadsheets write one, is skipped.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig")
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if not lines:
        raise ValueError(f"{path}: empty similarity file")
    names = tuple(cell.strip() for cell in lines[0].split(","))
    try:
        check_platform_names(names)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    count = len(names)
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
    try:
        return SimilarityMatrix(names, scores)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def bundled_similarity_path() -> Path:
    """Filesystem path of the five-platform similarity fixture shipped with the package."""
    return Path(__file__).parent / "data" / BUNDLED_SIMILARITY_NAME


class PolicyKind(Enum):
    """Migration strategy families; a policy is its kind and the persistence horizon ``k``.

    The diversity policy spreads each choice away from the previous ``k - 1``
    platforms, the random-k policy rotates over ``k`` drawn platforms, and the
    uniform policy ignores ``k``.
    """

    DIVERSITY = "diversity"
    UNIFORM = "uniform"
    RANDOM_K = "random_k"


#: Each policy kind by its name, in ``PolicyKind`` order: diversity, uniform, random_k.
POLICY_BY_NAME = {kind.value: kind for kind in PolicyKind}


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
