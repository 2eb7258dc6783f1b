"""Command-line harness: risk sweeps, bound tables, verifier suites.

Subcommands
-----------
simulate   Monte Carlo risk over a (k, rho) grid from a JSON config.
bounds     Closed-form benchmark table over (k, rho) grids.
verify     Randomized inequality suites; exit 1 on any violation.
maxnormal  Quadrature table for the maximum of N unit normals.

Output is CSV (9 significant digits, LF endings) or JSON
({meta: {seed, version, schema: 1}, rows: [...]}); identical inputs and
seeds produce identical bytes. Progress and warnings go to stderr only.
Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .contraction import (
    CHECKS,
    FiniteJoint,
    InteractiveSpec,
    SweepOutcome,
    replay_violation,
    sweep,
    verify_interactive_chain,
)
from .infotheory import BoundSet, risk_bounds
from .rng import check_seed

# `schemes` is imported inside the two commands that run the schemes, so
# `bounds` and `verify` start without it (about 15 ms and 1 MiB).

# k, rho, then the five risk levels of BoundSet.as_dict, in field order
BOUNDS_COLUMNS = tuple(f.name for f in fields(BoundSet))
SIMULATE_COLUMNS = (
    "scheme",
    "k",
    "rho",
    "mse",
    "bias",
    "variance",
    "ci95",
    *BOUNDS_COLUMNS[2:],
)
VERIFY_COLUMNS = ("suite", "checks", "violations", "worst_margin")
MAXNORMAL_COLUMNS = ("n", "mean", "variance", "asymptote", "ratio")

# suite name -> check kind, for every check with CLI defaults, in table order
SUITES = {c.suite: kind for kind, c in CHECKS.items() if c.draws is not None}
# the suites whose source correlation --rho sets
RHO_SUITES = tuple(name for name, kind in SUITES.items() if "rho" in CHECKS[kind].args)


class ConfigError(Exception):
    """Invalid configuration or arguments; maps to exit code 2."""


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    return value


def _write(columns, rows, seed, fmt: str | None, out: str | None) -> None:
    """Write rows as CSV (the default) or the JSON report, to stdout or out."""
    if fmt == "json":
        doc = {
            "meta": {"seed": seed, "version": __version__, "schema": 1},
            "rows": _jsonable(rows),
        }
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _as_grid(value, name: str, cast) -> list:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(f"empty grid: {name}")
    try:
        return [cast(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in {name}: {exc}") from exc


def _integer(value) -> int:
    # JSON true/false are Python bools, and bool is a subclass of int
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def cmd_simulate(args) -> int:
    from .schemes import SchemeConfig, check_preconditions, estimate_risk

    cfg = _load_config(args.config)
    known = ("scheme", "k_grid", "rho_grid", "params", "trials", "seed", "format",
             "out", "use_batches")
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; known keys are {known}")
    scheme = cfg.get("scheme")
    params = cfg.get("params", {})
    k_grid = _as_grid(cfg.get("k_grid"), "k_grid", _integer)
    rho_grid = _as_grid(cfg.get("rho_grid"), "rho_grid", _number)
    trials = args.trials if args.trials is not None else cfg.get("trials")
    if not isinstance(trials, int) or trials < 100:
        raise ConfigError(f"trials must be an integer >= 100, got {trials!r}")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    check_seed(seed)
    fmt = args.format or cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    out = args.out if args.out is not None else cfg.get("out")
    use_batches = cfg.get("use_batches", False)

    # Every cell must pass preconditions before the first trial runs.
    cells = []
    for k in sorted(set(k_grid)):
        for rho in sorted(set(rho_grid)):
            sc = SchemeConfig(scheme, k, params, use_batches=use_batches)
            try:
                check_preconditions(sc, rho)
            except ValueError as exc:
                raise ConfigError(f"cell (k={k}, rho={rho}): {exc}") from exc
            cells.append((sc, k, rho))

    rows = []
    for sc, k, rho in cells:
        report = estimate_risk(sc, rho, trials, seed)
        rows.append(
            {
                "scheme": scheme,
                "k": k,
                "rho": rho,
                "mse": report.mse,
                "bias": report.bias,
                "variance": report.variance,
                "ci95": report.ci95_halfwidth,
                **risk_bounds(k, rho).as_dict(),
            }
        )
        _note(f"simulate: k={k} rho={_fmt(rho)} mse={report.mse:.6g}")
    _write(SIMULATE_COLUMNS, rows, seed, fmt, out)
    return 0


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def _split_grid(text: str, name: str, cast) -> list:
    return _as_grid([t.strip() for t in text.split(",") if t.strip()], name, cast)


def cmd_bounds(args) -> int:
    ks = _split_grid(args.k, "k", int)
    rhos = _split_grid(args.rho, "rho", float)
    rows = [
        {"k": k, "rho": rho, **risk_bounds(k, rho).as_dict()}
        for k in sorted(set(ks))
        for rho in sorted(set(rhos))
    ]
    _write(BOUNDS_COLUMNS, rows, None, args.format, args.out)
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _run_suite(name: str, draws: int | None, seed: int, rho: float | None) -> SweepOutcome:
    kind = SUITES[name]
    check = CHECKS[kind]
    args = dict(check.args)
    if rho is not None and "rho" in args:
        args["rho"] = rho
    return sweep(kind, check.draws if draws is None else draws, seed, **args)


def _row(suite: str, checks: int, records: list, margin: float, stats: dict) -> dict:
    """One verify row: a suite's check count, its violation records and margin."""
    return {
        "suite": suite,
        "checks": checks,
        "violations": len(records),
        "worst_margin": margin,
        "stats": stats,
        "records": records,
    }


def _replay_rows(path: str) -> list:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read replay file: {exc}") from exc
    if isinstance(data, dict) and "rows" in data:
        report = data["rows"]
        if not isinstance(report, list) or not all(
            isinstance(row, dict) and isinstance(row.get("records", []), list)
            for row in report
        ):
            raise ConfigError("report rows must be a list of objects with records lists")
        records = [r for row in report for r in row.get("records", [])]
    elif isinstance(data, dict) and "check" in data:
        records = [data]
    elif isinstance(data, list):
        records = data
    else:
        raise ConfigError("replay file carries no violation records")
    rows = []
    for record in records:
        if not isinstance(record, dict):
            raise ConfigError(f"violation record must be a JSON object, got {record!r}")
        try:
            result = replay_violation(record)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad violation record: {exc}") from exc
        suite = f"replay:{record.get('check', '?')}"
        rows.append(_row(suite, 1, [] if result.ok else [record], result.margin, {}))
    return rows


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    check_seed(seed)

    # the selftest and a replay run no suite, so no suite flag applies to them
    replay = args.replay is not None
    if replay and args.selftest:
        raise ConfigError("--selftest cannot be combined with --replay")
    if replay or args.selftest:
        mode = "--replay" if replay else "--selftest"
        for flag in ("suite", "draws", "rho"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"{mode} cannot be combined with --{flag}")
    if replay:
        rows = _replay_rows(args.replay)
    elif args.selftest:
        # Deliberately corrupted instance: claim correlation 0.1 for a source
        # whose true correlation is 0.5 and reveal X outright. The chain bound
        # must flag it; a harness that stays silent here is broken.
        spec = InteractiveSpec(
            source=FiniteJoint.binary_symmetric(0.5),
            channels=(np.eye(2),),
        )
        result = verify_interactive_chain(spec, rho=0.1)
        records = [] if result.ok else [result.instance]
        stats = {"worst_margin": result.margin}
        rows = [_row("selftest", 1, records, result.margin, stats)]
    else:
        if args.draws == 0:
            _note("warning: 0 draws requested; suites pass vacuously")
        suite = args.suite or "all"
        names = SUITES if suite == "all" else (suite,)
        if args.rho is not None and suite != "all" and suite not in RHO_SUITES:
            raise ConfigError(
                f"--rho applies to the {'/'.join(RHO_SUITES)} suites, not {suite}"
            )
        rows = []
        for name in names:
            o = _run_suite(name, args.draws, seed, args.rho)
            rows.append(
                _row(o.suite, o.checks, o.violations, o.stats["worst_margin"], o.stats)
            )
            _note(
                f"verify: suite={o.suite} checks={o.checks} "
                f"violations={len(o.violations)}"
            )
    _write(VERIFY_COLUMNS, rows, seed, args.format, args.out)
    return 1 if any(row["violations"] for row in rows) else 0


# ----------------------------------------------------------------------
# maxnormal
# ----------------------------------------------------------------------

def cmd_maxnormal(args) -> int:
    from .schemes import expected_max_normal, var_max_normal

    ns = _split_grid(args.n, "n", int)
    rows = []
    for n in sorted(set(ns)):
        mean = expected_max_normal(n)
        asym = math.sqrt(2.0 * math.log(n)) if n > 1 else 0.0
        rows.append(
            {
                "n": n,
                "mean": mean,
                "variance": var_max_normal(n),
                "asymptote": asym,
                "ratio": mean / asym if asym > 0 else math.nan,
            }
        )
    _write(MAXNORMAL_COLUMNS, rows, None, args.format, args.out)
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrcomm",
        description="Correlation estimation under a k-bit budget: "
        "simulations, bounds, and inequality verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=None, help="master seed (u64)")
        p.add_argument(
            "--format", choices=("csv", "json"), default=None, help="output format"
        )
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_sim = sub.add_parser("simulate", help="Monte Carlo risk over a (k, rho) grid")
    p_sim.add_argument("--config", required=True, help="JSON experiment config")
    p_sim.add_argument("--trials", type=int, default=None, help="override trials")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_bounds = sub.add_parser("bounds", help="closed-form benchmark table")
    p_bounds.add_argument("--k", required=True, help="comma-separated bit budgets")
    p_bounds.add_argument("--rho", required=True, help="comma-separated correlations")
    common(p_bounds, seed=False)
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="randomized inequality suites")
    p_verify.add_argument(
        "--suite", choices=(*SUITES, "all"), default=None,
        help="which suite (default all)",
    )
    p_verify.add_argument("--draws", type=int, default=None, help="instances per suite")
    p_verify.add_argument(
        "--rho", type=float, default=None, help="source correlation (sdpi/tilted)"
    )
    p_verify.add_argument(
        "--selftest",
        action="store_true",
        help="run the injected-violation fixture (expects exit 1)",
    )
    p_verify.add_argument(
        "--replay", default=None, help="re-run violation records from a JSON report"
    )
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_max = sub.add_parser("maxnormal", help="moments of the max of n unit normals")
    p_max.add_argument(
        "--n",
        default="16,256,4096,65536,1048576",
        help="comma-separated pool sizes",
    )
    common(p_max, seed=False)
    p_max.set_defaults(func=cmd_maxnormal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OverflowError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
