"""Domain types shared across the library.

Platforms and their pairwise code-similarity scores, per-platform
vulnerability flags, and migration policies. All types here are
immutable after construction and safe to share between concurrent
workers.
"""

from __future__ import annotations

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
    lines = [line.strip() for line in text.splitlines() if line.strip()]
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
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) == count + 1:
            # labeled row: platform name followed by one score per platform
            if cells[0] != names[k]:
                raise ValueError(
                    f"{path}: row {k + 2} is labeled {cells[0]!r}, expected {names[k]!r}"
                )
            cells = cells[1:]
        elif len(cells) != count:
            raise ValueError(
                f"{path}: row {k + 2} has {len(cells)} cells, expected "
                f"{count} scores (optionally preceded by the platform name)"
            )
        try:
            scores[k] = [float(cell) for cell in cells]
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


@dataclass(frozen=True)
class VulnerabilityLabeling:
    """Boolean vulnerability flag per platform (True = attacker holds an exploit)."""

    flags: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.flags) < 1:
            raise ValueError("labeling must cover at least one platform")
        object.__setattr__(self, "flags", tuple(bool(f) for f in self.flags))

    @classmethod
    def from_vulnerable_indices(cls, count: int, vulnerable: set[int] | frozenset[int]) -> VulnerabilityLabeling:
        bad = [i for i in vulnerable if not 0 <= i < count]
        if bad:
            raise ValueError(f"vulnerable indices out of range: {bad}")
        return cls(tuple(i in vulnerable for i in range(count)))

    @property
    def m(self) -> int:
        """Number of vulnerable platforms."""
        return sum(self.flags)

    @property
    def n(self) -> int:
        """Number of invulnerable platforms."""
        return len(self.flags) - self.m

    def __len__(self) -> int:
        return len(self.flags)


class PolicyKind(Enum):
    """Migration strategy families."""

    DIVERSITY = "diversity"
    UNIFORM = "uniform"
    RANDOM_K = "random_k"
    FIXED_PERIODIC = "fixed_periodic"


@dataclass(frozen=True)
class MigrationPolicy:
    """Platform selection strategy plus its parameters.

    ``k`` is the persistence horizon: the diversity policy spreads each
    choice away from the previous ``k - 1`` platforms, and the random-k
    policy rotates over ``k`` pre-drawn platforms. ``sequence`` is only
    used by fixed periodic rotations.
    """

    kind: PolicyKind
    k: int | None = None
    sequence: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind in (PolicyKind.DIVERSITY, PolicyKind.RANDOM_K):
            if self.k is None or self.k < 2:
                raise ValueError(f"{self.kind.value} policy requires k >= 2")
        if self.kind is PolicyKind.FIXED_PERIODIC:
            seq = self.sequence
            if not seq:
                raise ValueError("fixed periodic policy requires a non-empty sequence")
            for i, platform in enumerate(seq):
                nxt = seq[(i + 1) % len(seq)]
                if platform == nxt:
                    raise ValueError(
                        "fixed periodic sequence must not repeat a platform in "
                        f"adjacent positions (including wraparound): {seq!r}"
                    )
            object.__setattr__(self, "sequence", tuple(int(p) for p in seq))

    @classmethod
    def diversity(cls, k: int = 3) -> MigrationPolicy:
        return cls(PolicyKind.DIVERSITY, k=k)

    @classmethod
    def uniform(cls) -> MigrationPolicy:
        return cls(PolicyKind.UNIFORM)

    @classmethod
    def random_k(cls, k: int = 3) -> MigrationPolicy:
        return cls(PolicyKind.RANDOM_K, k=k)

    @classmethod
    def fixed_periodic(cls, sequence: tuple[int, ...]) -> MigrationPolicy:
        return cls(PolicyKind.FIXED_PERIODIC, sequence=tuple(sequence))
