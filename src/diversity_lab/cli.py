"""Command-line front end.

Subcommands: ``analytic`` (closed-form reports), ``schedule`` (inspect a
migration schedule), ``mc`` (interval Monte Carlo study), ``scenario``
(continuous-time sweep). Scalar reports are JSON; curves and grids are
CSV. Every experiment writes a ``run_manifest.json`` sufficient to
reproduce it bit-exactly via ``--from-manifest``.

Exit codes: 0 success, 2 validation error, 3 runtime/IO error. The
environment variable ``DIVERSITY_LAB_SEED`` supplies the master seed
when ``--seed`` is not given.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .analytic import (
    MarkovParams,
    RepeatMode,
    expected_control_fraction,
    expected_time_to_compromise,
    p_success_aggregate,
    p_success_finite_window,
    run_length_chain,
    steady_state,
)
from .core import PolicyKind, SimilarityMatrix, bundled_similarity_path, load_similarity_matrix
from .rng import substream
from .scenario import DEFAULT_EXPLOITS, MAX_TARGETED, ExploitSpec, ScenarioConfig, run_scenario_study
from .scheduler import check_pool, detect_periodicity, schedule
from .simulator import POLICY_BY_NAME, McConfig, run_mc_study

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
SEED_ENV_VAR = "DIVERSITY_LAB_SEED"
#: Most attacker goals one ``--T-sweep`` may give.
MAX_SWEEP_POINTS = 100_000


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return 0


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, with ±inf as ``"Infinity"`` and str dict keys.

    A list of only strs, only ints or only finite floats (exact types) is joined in one pass.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        ends = "{}"
        items = (encode_basestring_ascii(key) + ": " + _json_text(value[key], inner) for key in sorted(value))
    elif isinstance(value, (list, tuple)):
        ends, types = "[]", set(map(type, value))
        if types == {str}:
            items = map(encode_basestring_ascii, value)
        elif types == {int} or types == {float} and all(map(math.isfinite, value)):
            items = map(repr, value)
        else:
            items = (_json_text(item, inner) for item in value)
    else:
        return '"Infinity"' if isinstance(value, float) and math.isinf(value) else json.dumps(value)
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if value else ends


def _write_json(path: Path, payload) -> None:
    path.write_text(_json_text(payload) + "\n", encoding="utf-8")


def _outdir(args) -> Path:
    directory = Path(args.outdir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _load_similarity(args) -> SimilarityMatrix:
    return load_similarity_matrix(args.similarity or bundled_similarity_path())


def cmd_analytic(args) -> int:
    params = MarkovParams(
        m=args.m,
        n=args.n,
        repeat_mode=RepeatMode.WITH_REPEAT if args.repeat == "with" else RepeatMode.WITHOUT_REPEAT,
    )
    k = args.K
    chain = run_length_chain(params, k)
    report = {
        "m": params.m,
        "n": params.n,
        "repeat": params.repeat_mode.value,
        "p_vulnerable": params.p_vulnerable,
        "p_vv": params.p_vv,
        "p_ii": params.p_ii,
        "k": k,
        "steady_state": [float(x) for x in steady_state(chain)],
        "expected_control_fraction": expected_control_fraction(params, k),
        "expected_time_to_compromise": expected_time_to_compromise(params, k),
    }
    if (args.j is None) != (args.p is None):
        raise ValueError("--j and --p must be given together")
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
    if args.steps < 2:  # detect_periodicity needs two entries
        raise ValueError("steps must be >= 2")
    sim = _load_similarity(args)
    seed = _resolve_seed(args.seed)
    start = sim.platforms.index(args.start if args.start else sim.platforms[0])
    rng = substream(seed)
    kind = POLICY_BY_NAME[args.policy]
    check_pool(kind, args.K, sim.count)
    chosen = schedule(kind, sim, args.K, start, args.steps, rng).tolist()
    # a uniform schedule is a random walk: a repeated window in it is no period
    periodicity = None if kind is PolicyKind.UNIFORM else detect_periodicity(chosen)
    report = {
        "platforms": list(sim.platforms.names),
        "policy": args.policy,
        "k": args.K,
        "seed": seed,
        "start": sim.platforms[chosen[0]],
        "steps": args.steps,
        "trace": [sim.platforms[i] for i in chosen],
        "periodicity": None
        if periodicity is None
        else {"period": periodicity.period, "transient": periodicity.transient},
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
    _write_json(outdir / "run_manifest.json", manifest)

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
        with open(outdir / filename, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["policy", "value", "cumulative_probability"])
            for name, policy_metrics in study.items():
                cdf = extract(policy_metrics)
                for value, prob in zip(cdf.values, cdf.probs):
                    writer.writerow([name, repr(float(value)), repr(float(prob))])
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
    platforms_part, _, arrival_part = spec.partition("@")
    if platforms_part.strip() == "all":
        if max_n > MAX_TARGETED:
            raise ValueError(f"exploits may target at most {MAX_TARGETED} platforms below the largest N")
        platforms = frozenset(range(max_n))
    else:
        platforms = frozenset(int(p) for p in platforms_part.split(","))
    arrival_part = arrival_part.strip()
    if not arrival_part or arrival_part == "uniform":
        arrival = None
    else:
        arrival = float(arrival_part)
    return ExploitSpec(platforms, arrival)


def _check_exploit_platforms(config: ScenarioConfig) -> None:
    """Reject exploit platforms outside ``[0, max(N))``: no grid point could reach them.

    The default exploit pair is exempt: it names platforms 0-2 for every
    N, and each grid point ignores the platforms it does not have.
    """
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
    if args.from_manifest:
        config = _load_manifest(Path(args.from_manifest), "scenario", ScenarioConfig)
    else:
        n_values = tuple(int(part) for part in args.N.split(","))
        t_values = _parse_t_values(args)
        delay = tuple(float(part) for part in args.delay.split(","))
        if len(delay) != 2:
            raise ValueError("--delay must look like lo,hi")
        max_n = max(n_values)
        exploit_specs = args.exploit if args.exploit else ["0", "1,2"]
        exploits = tuple(_parse_exploit(spec, max_n) for spec in exploit_specs)
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
    with open(outdir / "success_fraction.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["N", "T_seconds", "success_fraction", "samples"])
        for point in grid:
            writer.writerow(
                [point.n, repr(float(point.t)), repr(point.success_fraction), point.samples]
            )
    print(outdir)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    mc.add_argument("--policies", default="diversity,uniform,random_k")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing keeps no state in it, so each ``main`` call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
