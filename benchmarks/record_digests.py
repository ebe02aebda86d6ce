#!/usr/bin/env python3
"""Pin the artifact digests of every workload at the default seed.

Run from the repository root on the commit whose outputs are the
reference::

    python3 benchmarks/record_digests.py

It runs each workload's study once and writes ``reference_digests.json``
beside this script. Re-record only when a change to the program is meant
to change its artifacts, and say so in the change.
"""

from __future__ import annotations

import json
import shutil

import gate
from run import WORK_ROOT, load_program, run_study, similarity_input
from workloads import WORKLOADS


def main() -> int:
    cli = load_program()
    pinned = {}
    for workload in WORKLOADS.values():
        workdir = WORK_ROOT / f"record-{workload.name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            _, argument = similarity_input(cli, workload, gate.DEFAULT_SEED, workdir)
            code, _ = run_study(cli, workload.argv(gate.DEFAULT_SEED, argument), workdir / "out")
            if code != 0:
                raise SystemExit(f"{workload.name}: study exited {code}")
            problems = gate.check(workdir / "out", workload.command, None)
            if problems:
                raise SystemExit(f"{workload.name}: {problems}")
            pinned[workload.name] = {
                "args": list(workload.args),
                "sha256": gate.digests(workdir / "out", workload.command),
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    gate.REFERENCE_PATH.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    print(gate.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
