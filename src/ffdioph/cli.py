"""Command line interface.

Subcommands:
    estimate    profile + exponent estimate for the configured matrix
    dirichlet   randomized solvability audit with exact re-verification
    audit-tset  index-tuple enumeration and exact grid inequalities
    verify      run a named suite (or "all") with pass/fail exit semantics
    gen         generate the configured matrix/shift and write literals

The three suite subcommands are `verify` with their own suite name.

Exit codes: 0 all checks pass, 1 hard invariant violated, 2 precision
exhausted, 3 invalid input.
"""

from __future__ import annotations

import argparse
import sys

from .config import SUITES, ExperimentConfig
from .errors import ConfigError, FFDiophError, ParseError, PrecisionExhaustedError
from .generators import generate_matrix, generate_theta
from .runner import jsonable, report_json, run_config, write_file, write_outputs

_VERIFY_ALIASES = {"tset": "audit-tset"}


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="path to a JSON config file")
    sp.add_argument("--seed", type=int, help="override the master seed")
    sp.add_argument("--out", help="output directory for report files")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--tmax", type=int, help="override the profile horizon")
    sp.add_argument("--tol", help="override the transpose-bound tolerance (rational)")
    sp.add_argument("--workers", type=int, help="worker process count")
    sp.add_argument("--instances", type=int, help="override the instance count")


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json_file(args.config)
    else:
        cfg = ExperimentConfig.from_dict({})
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tmax is not None:
        overrides["T_max"] = args.tmax
        if cfg.floor > -2 * args.tmax:
            overrides["floor"] = -2 * args.tmax
    if args.tol is not None:
        overrides["tol_bz"] = args.tol
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.instances is not None:
        overrides["instances"] = args.instances
    return cfg.replace(**overrides) if overrides else cfg


def _emit(report: dict, exit_code: int, args) -> int:
    if args.out:
        paths = write_outputs(report, args.out, args.format)
        for p in paths:
            print(f"wrote {p}")
    else:
        sys.stdout.write(report_json(report))
    summary = report.get("summary", {})
    if summary:
        print(
            f"summary: {summary.get('instances', 0)} instance(s), "
            f"{summary.get('hard_failures', 0)} hard failure(s), "
            f"{summary.get('precision_exhausted', 0)} precision-exhausted",
            file=sys.stderr,
        )
    return exit_code


def _cmd_verify(args) -> int:
    name = _VERIFY_ALIASES.get(args.suite_name, args.suite_name)
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ConfigError(
            f"unknown suite {args.suite_name!r}; pick from {sorted(SUITES + ('all',))}"
        )
    cfg = _load_config(args)
    # every suite's config is checked before any suite runs
    sub_cfgs = [cfg.replace(suite=suite) for suite in names]
    sub_reports = []
    worst = 0
    severity = {0: 0, 2: 1, 1: 2, 3: 3}
    for suite, sub_cfg in zip(names, sub_cfgs):
        report, code = run_config(sub_cfg)
        sub_reports.append(report)
        if severity[code] > severity[worst]:
            worst = code
        status = "PASS" if code == 0 else ("PRECISION" if code == 2 else "FAIL")
        print(f"[{status}] suite {suite}", file=sys.stderr)
    combined = sub_reports[0] if len(sub_reports) == 1 else {
        "suites": sub_reports,
        "seed": cfg.seed,
        "timing_s": None,
    }
    return _emit(combined, worst, args)


def _cmd_gen(args) -> int:
    cfg = _load_config(args)
    F = cfg.fq()
    Y = generate_matrix(cfg.Y, F, cfg.m, cfg.n, cfg.floor, cfg.seed, "gen/Y")
    theta = generate_theta(cfg.theta, F, cfg.m, cfg.floor, cfg.seed)
    payload = {
        "field": cfg.field,
        "dims": [cfg.m, cfg.n],
        "floor": cfg.floor,
        "Y": jsonable(Y),
        "theta": jsonable(list(theta)),
        "seed": cfg.seed,
    }
    out = report_json(payload)
    if args.out:
        path = write_file(args.out, "generated.json", out.encode("ascii"))
        print(f"wrote {path}")
    else:
        sys.stdout.write(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffdioph",
        description="exact Diophantine approximation experiments over F_q((1/X))",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("estimate", "dirichlet", "audit-tset"):
        sp = sub.add_parser(name, help=f"run the {name} suite")
        sp.set_defaults(suite_name=name)
        _add_common_flags(sp)
    sp = sub.add_parser("verify", help="run a named suite with exit semantics")
    sp.add_argument("suite_name", help="|".join(sorted(SUITES + ("all",))))
    _add_common_flags(sp)
    sp = sub.add_parser("gen", help="generate the configured instance")
    _add_common_flags(sp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_verify(args)
    except (ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PrecisionExhaustedError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 2
    except FFDiophError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
