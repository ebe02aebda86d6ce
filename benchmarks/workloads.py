"""Benchmark workloads: fixed CLI study shapes and the generated inputs they need.

Each workload is one ``diversity-lab`` study, repeated in a closed loop by
``run.py``. Study sizes are scaled so that one study takes about a second
on a 2-CPU x86-64 machine, which leaves room for a dozen studies in a run.
Why each workload exists:

- ``mc-default``: the paper's study with every CLI default. Per-step
  diversity scheduling dominates it.
- ``mc-short``: 8 intervals, so per-trial set-up (stream derivation,
  labeling, the random-k draw) dominates and the per-step loop is small.
- ``mc-wide``: a generated 48-platform matrix with k=4, so per-step cost
  grows with the pool size that the five-platform fixture hides.
- ``scenario-sweep``: the continuous-time engine only. It runs no
  simulator or scheduler code, so it is the no-change control for every
  ``mc`` optimisation, and the ``mc`` workloads are the control for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDE_PLATFORMS = 48
WIDE_FAMILIES = 8
#: Platform counts swept by ``scenario-sweep``; the traced run labels
#: ``max_control_run`` spans by them.
SCENARIO_N = (1, 3, 5, 8)


@dataclass(frozen=True)
class Workload:
    """One CLI study shape; ``wide_input`` adds a generated ``--similarity`` CSV."""

    name: str
    args: tuple[str, ...]
    wide_input: bool = False

    @property
    def command(self) -> str:
        return self.args[0]

    def argv(self, seed: int, similarity: Path | None) -> list[str]:
        """Study argv for workload seed ``seed``, without ``--outdir``."""
        argv = list(self.args) + ["--seed", str(seed)]
        if similarity is not None:
            argv += ["--similarity", str(similarity)]
        return argv


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("mc-default", ("mc",)),
        Workload("mc-short", ("mc", "--intervals", "8", "--trials", "3000")),
        Workload(
            "mc-wide", ("mc", "--K", "4", "--intervals", "200", "--trials", "50"), wide_input=True
        ),
        Workload(
            "scenario-sweep",
            (
                "scenario",
                "--N", ",".join(str(n) for n in SCENARIO_N),
                "--T-sweep", "0:900:15",
                "--samples", "1000",
            ),
        ),
    )
}


def wide_similarity_csv(seed: int) -> str:
    """CSV text of a 48-platform similarity matrix generated from ``seed``.

    Platforms fall into eight families of six, like distributions of one
    code base: scores within a family are drawn from [0.55, 0.95), scores
    across families from [0, 0.35). Scores are rounded to four decimals,
    so the matrix is symmetric with a unit diagonal and off-diagonal
    scores in [0, 1).
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, WIDE_PLATFORMS)))
    family = rng.permutation(np.repeat(np.arange(WIDE_FAMILIES), WIDE_PLATFORMS // WIDE_FAMILIES))
    same = family[:, None] == family[None, :]
    draws = np.where(
        same,
        rng.uniform(0.55, 0.95, (WIDE_PLATFORMS, WIDE_PLATFORMS)),
        rng.uniform(0.0, 0.35, (WIDE_PLATFORMS, WIDE_PLATFORMS)),
    )
    upper = np.triu(np.round(draws, 4), k=1)
    scores = upper + upper.T
    np.fill_diagonal(scores, 1.0)
    names = [f"w{i:02d}" for i in range(WIDE_PLATFORMS)]
    lines = [",".join(names)]
    for name, row in zip(names, scores):
        lines.append(name + "," + ",".join(f"{value:.4f}" for value in row))
    return "\n".join(lines) + "\n"

