"""Command-line front end.

Subcommands: ``analytic`` (closed-form reports), ``schedule`` (inspect a
migration schedule), ``mc`` (interval Monte Carlo study), ``scenario``
(continuous-time sweep). Scalar reports are JSON; curves and grids are
CSV. Every experiment writes a ``run_manifest.json`` sufficient to
reproduce it bit-exactly via ``--from-manifest``.

Importing this module loads only ``core``. Each command imports its engine
when it runs, so the engines' names resolve on first use: ``analytic``
imports ``analytic``, ``schedule`` imports ``rng`` and ``scheduler``, ``mc``
imports ``simulator`` and ``scenario`` imports ``scenario``.

Exit codes: 0 success, 2 validation error, 3 runtime/IO error. The
environment variable ``DIVERSITY_LAB_SEED`` supplies the master seed
when ``--seed`` is not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .core import (
    MAX_STEPS,
    POLICY_BY_NAME,
    PolicyKind,
    SimilarityMatrix,
    bundled_similarity_path,
    check_platform_count,
    load_similarity_matrix,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
SEED_ENV_VAR = "DIVERSITY_LAB_SEED"
#: Most attacker goals one ``--T-sweep`` may give.
MAX_SWEEP_POINTS = 100_000
#: Items of a list of only strs, ints or finite floats that ``_json_pieces`` joins into one piece
_JSON_ITEMS = 4096


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return _convert(int, [env], f"{SEED_ENV_VAR} must be an integer, got {env!r}")[0]
    return 0


def _convert(convert, parts, error: str) -> tuple:
    """``convert`` of each of ``parts``; a part it refuses raises ValueError(``error``), which names its source."""
    try:
        return tuple(map(convert, parts))
    except (ValueError, ZeroDivisionError):
        raise ValueError(error) from None


class _JsonTexts(list):
    """A non-empty matrix row whose items are already JSON text: ``_json_pieces`` joins a list of them row by row."""


def _mirror_texts(rows: list[list[float]]) -> list[_JsonTexts]:
    """``SimilarityMatrix.scores`` rows as ``_JsonTexts``, from one ``repr`` per upper-triangle score.

    The matrix stores S[j, i] as the same double as S[i, j], so a score below the diagonal has its mirror's text:
    row i is column i of the upper triangle's texts above the diagonal, then row i's own texts from it.
    """
    upper = [(None,) * i + tuple(map(repr, row[i:])) for i, row in enumerate(rows)]
    return [_JsonTexts(column[:i] + upper[i][i:]) for i, column in enumerate(zip(*upper))]


def _json_pieces(value, indent: str = "\n") -> Iterator[str]:
    """``json.dumps(value, indent=2, sort_keys=True)`` in pieces, with ±inf as ``"Infinity"`` and str dict keys.

    A list of only strs, only ints or only finite floats (exact types) is joined ``_JSON_ITEMS`` items to a piece,
    so that the strings of a long list are never all alive at once, and a list of ``_JsonTexts`` a row to a piece.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        ends = "{}"
        items = (chain([encode_basestring_ascii(key) + ": "], _json_pieces(value[key], inner)) for key in sorted(value))
    elif isinstance(value, (list, tuple)):
        ends, types = "[]", set(map(type, value))
        if types == {_JsonTexts}:
            join = ("," + inner + "  ").join
            items = ([f"[{inner}  {join(row)}{inner}]"] for row in value)
        elif types == {str} or types == {int} or types == {float} and all(map(math.isfinite, value)):
            text, join = encode_basestring_ascii if types == {str} else repr, ("," + inner).join
            items = ([join(map(text, value[at : at + _JSON_ITEMS]))] for at in range(0, len(value), _JSON_ITEMS))
        else:
            items = (_json_pieces(item, inner) for item in value)
    else:
        yield '"Infinity"' if isinstance(value, float) and math.isinf(value) else json.dumps(value)
        return
    yield ends[0]
    for at, pieces in enumerate(items):
        yield ("," if at else "") + inner
        yield from pieces
    yield (indent if value else "") + ends[1]


def _write_json(path: Path, payload) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.writelines(_json_pieces(payload))
        handle.write("\n")


def _outdir(args) -> Path:
    directory = Path(args.outdir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _load_similarity(args) -> SimilarityMatrix:
    return load_similarity_matrix(args.similarity or bundled_similarity_path())


def cmd_analytic(args) -> int:
    from fractions import Fraction

    from .analytic import (
        MarkovParams,
        RepeatMode,
        expected_control_fraction,
        expected_time_to_compromise,
        p_success_aggregate,
        p_success_finite_window,
        steady_state,
    )

    k = args.K
    if k > MAX_STEPS:
        raise ValueError(f"--K must be at most {MAX_STEPS}")
    if (args.j is None) != (args.p is None):
        raise ValueError("--j and --p must be given together")
    if args.p is not None:
        _convert(Fraction, [args.p], f"--p {args.p!r}: must be a fraction or a decimal, e.g. 1/2 or 0.5")
    params = MarkovParams(
        m=args.m,
        n=args.n,
        repeat_mode=RepeatMode.WITH_REPEAT if args.repeat == "with" else RepeatMode.WITHOUT_REPEAT,
    )
    report = {
        "m": params.m,
        "n": params.n,
        "repeat": params.repeat_mode.value,
        "p_vulnerable": params.p_vulnerable,
        "p_vv": params.p_vv,
        "p_ii": params.p_ii,
        "k": k,
        "steady_state": steady_state(params, k).tolist(),
        "expected_control_fraction": expected_control_fraction(params, k),
        "expected_time_to_compromise": expected_time_to_compromise(params, k),
    }
    if args.j is not None:
        report["aggregate"] = {
            "j": args.j,
            "p": args.p,
            "strict": bool(args.strict),
            "p_success": p_success_aggregate(args.m, args.n, args.j, args.p, strict=args.strict),
        }
    if args.a is not None:
        span = args.s if args.s is not None else args.d
        report["finite_window"] = {
            "d": args.d,
            "a": args.a,
            "s": span,
            "p_success": p_success_finite_window(args.d, args.a, span),
        }
    out = _outdir(args) / "analytic.json"
    _write_json(out, report)
    print(out)
    return EXIT_OK


def cmd_schedule(args) -> int:
    from .rng import draw_plan, draws
    from .scheduler import search_length, walk_bounds, walks

    if args.steps < 2:  # a schedule of one interval makes no move
        raise ValueError("steps must be >= 2")
    if args.steps > MAX_STEPS:
        raise ValueError(f"steps must be at most {MAX_STEPS}")
    sim = _load_similarity(args)
    seed = _resolve_seed(args.seed)
    start = sim.index(args.start) if args.start is not None else 0
    kind = POLICY_BY_NAME[args.policy]
    length = search_length(kind, sim.count, args.K, args.steps)
    (values,) = draws([draw_plan(walk_bounds(kind, sim.count, args.K, length))], seed)
    (walk,), (period,) = walks(kind, sim.distances(), args.K, length, values, [start])
    # from the transient on, each platform recurs a period later; a period is shown when the steps after
    # the transient repeat it twice, over at least the k - 1 platforms that a diversity step depends on
    late = (walk[: length - period] != walk[period:]).nonzero()[0]
    transient = int(late[-1]) + 1 if late.size else 0
    shown = period > 0 and args.steps - transient >= period + max(period, args.K - 1)
    report = {
        "platforms": list(sim.names),
        "policy": args.policy,
        "k": args.K,
        "seed": seed,
        "start": sim.names[walk[0]],
        "steps": args.steps,
        "trace": [sim.names[i] for i in walk[: args.steps].tolist()],
        "periodicity": {"period": int(period), "transient": transient} if shown else None,
    }
    out = _outdir(args) / "schedule.json"
    _write_json(out, report)
    print(out)
    return EXIT_OK


def _parse_policies(spec: str) -> tuple[PolicyKind, ...]:
    kinds = []
    for name in spec.split(","):
        name = name.strip()
        if name not in POLICY_BY_NAME:
            raise ValueError(f"unknown policy {name!r}; choose from {sorted(POLICY_BY_NAME)}")
        kinds.append(POLICY_BY_NAME[name])
    return tuple(kinds)


def _load_manifest(path: Path, command: str, config_type):
    """Read a ``command`` run manifest with ``config_type.from_manifest``.

    Every validation error names the file.
    """
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("command") != command:
        raise ValueError(f"{path} is not a {command!r} run manifest")
    try:
        return config_type.from_manifest(manifest)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_mc(args) -> int:
    from .simulator import McConfig, run_mc_study

    if args.from_manifest:
        config, sim = _load_manifest(Path(args.from_manifest), "mc", McConfig)
    else:
        sim = _load_similarity(args)
        config = McConfig(
            trials=args.trials,
            intervals=args.intervals,
            k=args.K,
            policy_kinds=_parse_policies(args.policies),
            master_seed=_resolve_seed(args.seed),
        )
    study = run_mc_study(config, sim)
    outdir = _outdir(args)

    manifest = {"command": "mc", "version": __version__, **config.to_manifest(sim)}
    similarity = manifest["similarity"] | {"scores": _mirror_texts(manifest["similarity"]["scores"])}
    _write_json(outdir / "run_manifest.json", manifest | {"similarity": similarity})

    metrics = {}
    for name, policy_metrics in study.items():
        metrics[name] = {
            "trials": policy_metrics.trials,
            "intervals": policy_metrics.intervals,
            "k": policy_metrics.k,
            "mean_vulnerable_fraction": policy_metrics.mean_vulnerable_fraction,
            "mean_compromised_fraction": policy_metrics.mean_compromised_fraction,
            "compromise_incidence": policy_metrics.compromise_incidence,
            "mean_time_to_first_compromise": policy_metrics.mean_time_to_first_compromise,
        }
    _write_json(outdir / "metrics.json", metrics)

    curves = {
        "cdf_vulnerable.csv": lambda pm: pm.cdf_vulnerable_fraction(),
        "cdf_ttc.csv": lambda pm: pm.cdf_time_to_first_compromise(),
        "cdf_compromised.csv": lambda pm: pm.cdf_compromised_fraction(),
    }
    for filename, extract in curves.items():
        # the bytes csv.writer writes: CRLF after each row, and no field that needs quotes
        lines = ["policy,value,cumulative_probability"]
        for name, policy_metrics in study.items():
            cdf = extract(policy_metrics)
            lines += (f"{name},{value!r},{prob!r}" for value, prob in zip(cdf.values, cdf.probs))
        (outdir / filename).write_text("\r\n".join([*lines, ""]), encoding="utf-8", newline="")
    print(outdir)
    return EXIT_OK


def _parse_t_values(args) -> tuple[float, ...]:
    if (args.T is None) == (args.T_sweep is None):
        raise ValueError("exactly one of --T and --T-sweep is required")
    if args.T is not None:
        return (args.T,)
    try:
        lo, hi, step = (float(part) for part in args.T_sweep.split(":"))
    except ValueError:
        raise ValueError(f"--T-sweep must look like lo:hi:step, got {args.T_sweep!r}") from None
    if not all(math.isfinite(part) for part in (lo, hi, step)):
        raise ValueError(f"--T-sweep bounds and step must be finite, got {args.T_sweep!r}")
    if step <= 0 or hi < lo:
        raise ValueError("--T-sweep requires lo <= hi and step > 0")
    too_many = f"--T-sweep {args.T_sweep!r} gives more than {MAX_SWEEP_POINTS} goals"
    # floor(span) + 1 points, counted before any is made; the loop keeps its own
    # count, since a step too small to change a large running sum never ends it
    if not (hi + 1e-9 - lo) / step < MAX_SWEEP_POINTS:
        raise ValueError(too_many)
    values = []
    current = lo
    while current <= hi + 1e-9:
        if len(values) == MAX_SWEEP_POINTS:
            raise ValueError(too_many)
        values.append(round(current, 9))
        current += step
    return tuple(values)


def _parse_exploit(spec: str, max_n: int) -> ExploitSpec:
    """One ``--exploit PLATFORMS[@ARRIVAL]`` spec; a malformed part is named with the spec."""
    from .scenario import ExploitSpec

    platforms_part, _, arrival_part = spec.partition("@")
    if platforms_part.strip() == "all":
        check_platform_count(max_n)
        platforms = frozenset(range(max_n))
    else:
        error = f"--exploit {spec!r}: platforms must be 'all' or comma-separated integers"
        platforms = frozenset(_convert(int, platforms_part.split(","), error))
    arrival_part = arrival_part.strip()
    if not arrival_part or arrival_part == "uniform":
        arrival = None
    else:
        error = f"--exploit {spec!r}: arrival must be 'uniform' or a number of seconds"
        (arrival,) = _convert(float, [arrival_part], error)
    return ExploitSpec(platforms, arrival)


def _check_exploit_platforms(config: ScenarioConfig) -> None:
    """Reject exploit platforms outside ``[0, max(N))``: no grid point could reach them.

    The default exploit pair is exempt: it names platforms 0-2 for every
    N, and each grid point ignores the platforms it does not have.
    """
    from .scenario import DEFAULT_EXPLOITS

    if config.exploits == DEFAULT_EXPLOITS:
        return
    max_n = max(config.n_values)
    for spec in config.exploits:
        outside = sorted(p for p in spec.platforms if not 0 <= p < max_n)
        if outside:
            raise ValueError(
                f"exploit platforms {outside} are outside 0..{max_n - 1} (largest N is {max_n})"
            )


def cmd_scenario(args) -> int:
    from .scenario import DEFAULT_EXPLOITS, ScenarioConfig, run_scenario_study

    if args.from_manifest:
        config = _load_manifest(Path(args.from_manifest), "scenario", ScenarioConfig)
    else:
        n_values = _convert(int, args.N.split(","), f"--N {args.N!r}: platform counts must be comma-separated integers")
        t_values = _parse_t_values(args)
        delay = _convert(float, args.delay.split(","), f"--delay {args.delay!r}: bounds must be numbers of seconds")
        if len(delay) != 2:
            raise ValueError("--delay must look like lo,hi")
        specs = args.exploit or ()
        exploits = tuple(_parse_exploit(spec, max(n_values)) for spec in specs) or DEFAULT_EXPLOITS
        config = ScenarioConfig(
            t_values=t_values,
            n_values=n_values,
            duration=args.d,
            delay=delay,
            samples=args.samples,
            exploits=exploits,
            master_seed=_resolve_seed(args.seed),
        )
    _check_exploit_platforms(config)
    grid = run_scenario_study(config)
    outdir = _outdir(args)
    manifest = {"command": "scenario", "version": __version__, **config.to_manifest()}
    _write_json(outdir / "run_manifest.json", manifest)
    lines = [f"{point.n},{float(point.t)!r},{point.success_fraction!r},{point.samples}" for point in grid]
    text = "\r\n".join(["N,T_seconds,success_fraction,samples", *lines, ""])
    (outdir / "success_fraction.csv").write_text(text, encoding="utf-8", newline="")
    print(outdir)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing keeps no state in it, so each ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="diversity-lab",
        description="Temporal platform rotation analytics, scheduling, and simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    analytic = sub.add_parser("analytic", help="closed-form attacker metrics report")
    analytic.add_argument("--m", type=int, required=True, help="vulnerable platform count")
    analytic.add_argument("--n", type=int, required=True, help="invulnerable platform count")
    analytic.add_argument("--repeat", choices=["with", "without"], default="without")
    analytic.add_argument("--K", type=int, default=3, help="required vulnerable run length")
    analytic.add_argument("--j", type=int, default=None, help="subselection size")
    analytic.add_argument("--p", default=None, help="required control fraction, e.g. 0.5")
    analytic.add_argument("--strict", action="store_true", help="require strictly more than p")
    analytic.add_argument("--d", type=float, default=900.0, help="trial duration (s)")
    analytic.add_argument("--a", type=float, default=None, help="required attacker duration (s)")
    analytic.add_argument("--s", type=float, default=None, help="start window span (default: d)")
    analytic.add_argument("--outdir", default=".", help="report directory")
    analytic.set_defaults(func=cmd_analytic)

    schedule = sub.add_parser("schedule", help="generate and inspect a migration schedule")
    schedule.add_argument("--similarity", default=None, help="similarity CSV (default: bundled)")
    schedule.add_argument("--policy", choices=list(POLICY_BY_NAME), default="diversity")
    schedule.add_argument("--K", type=int, default=3)
    schedule.add_argument("--start", default=None, help="starting platform name")
    schedule.add_argument("--steps", type=int, default=30)
    schedule.add_argument("--seed", type=int, default=None)
    schedule.add_argument("--outdir", default=".")
    schedule.set_defaults(func=cmd_schedule)

    mc = sub.add_parser("mc", help="interval Monte Carlo study")
    mc.add_argument("--similarity", default=None, help="similarity CSV (default: bundled)")
    mc.add_argument("--trials", type=int, default=500)
    mc.add_argument("--intervals", type=int, default=100)
    mc.add_argument("--K", type=int, default=3)
    mc.add_argument("--policies", default=",".join(POLICY_BY_NAME))
    mc.add_argument("--seed", type=int, default=None)
    mc.add_argument("--from-manifest", default=None, help="rerun a previous run_manifest.json")
    mc.add_argument("--outdir", default="mc_results")
    mc.set_defaults(func=cmd_mc)

    scenario = sub.add_parser("scenario", help="continuous-time scenario sweep")
    scenario.add_argument("--N", default="3", help="platform counts, e.g. 3 or 1,3,5")
    scenario.add_argument("--T", type=float, default=None, help="attacker goal (s)")
    scenario.add_argument("--T-sweep", dest="T_sweep", default=None, help="lo:hi:step sweep (s)")
    scenario.add_argument("--d", type=float, default=900.0, help="trial duration (s)")
    scenario.add_argument("--delay", default="20,30", help="inter-migration delay range lo,hi (s)")
    scenario.add_argument("--samples", type=int, default=300)
    scenario.add_argument(
        "--exploit",
        action="append",
        default=None,
        help="exploit spec PLATFORMS[@ARRIVAL], e.g. 0, 1,2@uniform, all@0 (repeatable)",
    )
    scenario.add_argument("--seed", type=int, default=None)
    scenario.add_argument("--from-manifest", default=None)
    scenario.add_argument("--outdir", default="scenario_results")
    scenario.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
