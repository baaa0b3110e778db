"""Command-line front end: solve, verify, sweep, oracle-compare, welfare, audit.

All commands read market parameters from a JSON file and write JSON or CSV
artifacts.  Outputs are byte-stable across runs: dictionaries are emitted
with sorted keys and CSV numbers carry 12 significant digits.

Exit codes: 0 ok; 1 a verification failed, the oracle disagreed, or a
profitable deviation was found; 2 the input was malformed (the diagnostic
names the offending field); 3 a numerical routine failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError, NumericError, ResourceError, SigMarketError
from .market import MarketParams, check_decreasing_differences
from .monitoring import PolicyProfile
from .outer import (
    CSV_COLUMNS,
    CreditFamily,
    EquilibriumOutcome,
    credit_monopoly_rpbe,
    deviation_audit,
    is_fierce,
    mild_fee_set,
    monopoly_rpbe,
    outcome_csv_row,
    riley_rpbe,
    semipooling_family,
    welfare,
)
from .refinement import (
    DeviationGrid,
    brute_force_equilibria,
    check_minimality,
    outcome_equivalent,
    verify_extended_d1,
    verify_pbe,
)
from .subgame import SubgameEquilibrium, construct_epbe

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


@dataclass(frozen=True)
class RunConfig:
    command: str
    params_path: str
    profile_path: str | None = None
    grid_points: int = 21
    tol: float = 1e-9
    out: str | None = None
    fmt: str = "json"
    pessimistic: bool = False
    sweep_param: str = "lambda"
    sweep_range: str = "0.05:0.95:19"


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file {path} is not valid JSON: {exc}") from None


def _regular(params: MarketParams) -> MarketParams:
    """Reject a cost family without strict decreasing differences.

    The check is exact on two points for linear and power costs, whose gap
    c(L, e) - c(H, e) is (kappa_L - kappa_H) * e**p, and on the knots for
    tabulated costs, whose gap is linear between knots.
    """
    cf = params.cost
    report = check_decreasing_differences(cf, cf.efforts if cf.kind == "tabulated" else (0.0, 1.0))
    if not report.passed:
        v = report.violations[0]
        raise InputError(
            f"cost family breaks strict decreasing differences ({v.reason}): the gap "
            f"c(L, e) - c(H, e) goes from {v.gap_lo} at effort {v.effort_lo} to {v.gap_hi} at {v.effort_hi}"
        )
    return params


def _load_params(path: str) -> MarketParams:
    return _regular(MarketParams.from_dict(_load_json(path, "params")))


def _dump(payload, config: RunConfig) -> str:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or infinity: bare tokens are not JSON
        raise NumericError(f"result is not finite: {exc}") from None
    if config.out:
        Path(config.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return text


def _write_csv(rows: list[list[str]], header, config: RunConfig, suffix: str = "") -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if config.out:
        path = Path(config.out)
        if suffix:
            path = path.with_name(path.stem + suffix + ".csv")
        path.write_text(buf.getvalue(), encoding="utf-8")
    else:
        sys.stdout.write(buf.getvalue())


def _monopoly(params: MarketParams, tol: float) -> EquilibriumOutcome | CreditFamily:
    """Monopoly solution at a one-school point, fee cap or not.

    credit_monopoly_rpbe itself falls back to the unconstrained outcome when
    the cap is slack.
    """
    if params.credit_cap is None:
        return monopoly_rpbe(params, tol)
    return credit_monopoly_rpbe(params, tol)


def _solve_outcomes(params: MarketParams, tol: float):
    """Outcome bundle for one parameter point, per market structure."""
    if params.n_schools == 1:
        result = _monopoly(params, tol)
        return result.sample(4) if isinstance(result, CreditFamily) else [result]
    n = params.n_schools
    outcomes = [riley_rpbe(params, n, tol)]
    for q_h in (0.25, 0.5, 0.75):
        outcomes.extend(semipooling_family(params, n, "zero_fee", q_h=q_h, tol=tol))
    if not is_fierce(params, n).fierce:
        fee_set = mild_fee_set(params, n)
        for iv in fee_set.intervals:
            fee = 0.5 * (iv.lo + iv.hi)
            if fee <= 0.0:
                continue
            for q_h in (0.5, 0.8):
                outcomes.extend(semipooling_family(params, n, "with_fee", q_h=q_h, fee=fee, tol=tol))
    return outcomes


def cmd_solve(config: RunConfig) -> int:
    params = _load_params(config.params_path)
    outcomes = _solve_outcomes(params, config.tol)
    if config.fmt == "csv":
        rows = [outcome_csv_row(o, params) for o in outcomes]
        _write_csv(rows, CSV_COLUMNS, config)
    else:
        _dump([o.to_dict() for o in outcomes], config)
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    params = _load_params(config.params_path)
    if not config.profile_path:
        raise InputError("verify needs --profile pointing at an equilibrium bundle")
    eq = SubgameEquilibrium.from_dict(_load_json(config.profile_path, "equilibrium bundle"))
    profile = eq.profile
    grid = DeviationGrid.for_profile(profile, params, n_points=config.grid_points)
    reports = {
        "pbe": verify_pbe(profile, eq, params, grid, config.tol),
        "extended_d1": verify_extended_d1(profile, eq, params, grid, config.tol),
        "minimality": check_minimality(profile, eq, params, grid, config.tol),
    }
    # minimality is a property of the posted policies, reported but not fatal
    passed = reports["pbe"].passed and reports["extended_d1"].passed
    _dump({"passed": passed, "reports": {k: r.to_dict() for k, r in reports.items()}}, config)
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_audit(config: RunConfig) -> int:
    params = _load_params(config.params_path)
    if params.n_schools >= 2:
        outcome = riley_rpbe(params, params.n_schools, config.tol)
    else:
        outcome = _monopoly(params, config.tol)
        if isinstance(outcome, CreditFamily):
            outcome = outcome.zero_effort_member()
    grid = DeviationGrid.for_profile(outcome.profile, params, n_points=config.grid_points)
    report = deviation_audit(outcome, params, grid, config.tol, pessimistic=config.pessimistic)
    payload = {
        "label": outcome.label,
        "max_gain": report.max_gain,
        "certified": report.max_gain <= config.tol,
        "best": None if report.best is None else report.best.to_dict(),
    }
    _dump(payload, config)
    return EXIT_OK if report.max_gain <= config.tol else EXIT_VERIFICATION


def cmd_oracle_compare(config: RunConfig) -> int:
    params = _load_params(config.params_path)
    if not config.profile_path:
        raise InputError("oracle-compare needs --profile pointing at a policy profile")
    profile = PolicyProfile.from_list(_load_json(config.profile_path, "profile"))
    grid = DeviationGrid.for_profile(profile, params, n_points=config.grid_points)
    constructed = construct_epbe(profile, params, config.tol)
    oracle = brute_force_equilibria(profile, params, grid, support_cap=2, tol=config.tol)
    match_index = next(
        (k for k, eq in enumerate(oracle) if outcome_equivalent(constructed, eq, profile)), None
    )
    _dump(
        {
            "match": match_index is not None,
            "matched_index": match_index,
            "oracle_count": len(oracle),
            "constructed": constructed.to_dict(),
        },
        config,
    )
    return EXIT_OK if match_index is not None else EXIT_VERIFICATION


def _sweep_points(spec: dict) -> list[MarketParams]:
    if "points" in spec:
        return [_regular(MarketParams.from_dict(p)) for p in spec["points"]]
    if "base" not in spec:
        raise InputError("sweep file needs either 'points' or 'base' (+ optional 'vary')")
    base = spec["base"]
    vary: dict = spec.get("vary", {})
    points = [dict(base)]
    for key, values in vary.items():
        points = [dict(p, **{key: v}) for p in points for v in values]
    return [_regular(MarketParams.from_dict(p)) for p in points]


def cmd_sweep(config: RunConfig) -> int:
    spec = _load_json(config.params_path, "sweep")
    points = _sweep_points(spec)

    rows = [outcome_csv_row(o, p) for p in points for o in _solve_outcomes(p, config.tol)]
    _write_csv(rows, CSV_COLUMNS, config)
    return EXIT_OK


def _parse_range(text: str) -> list[float]:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise InputError(f"sweep range must look like lo:hi:count, got {text!r}") from None
    if count < 2 or hi <= lo:
        raise InputError(f"sweep range needs hi > lo and count >= 2, got {text!r}")
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


_SWEEP_TOP_LEVEL = ("theta_L", "theta_H", "lambda", "n_schools", "credit_cap")
_SWEEP_COST = ("kappa_L", "kappa_H", "exponent")


def _sweep_slot(data: dict, key: str) -> dict:
    """The part of a params dict holding a swept field: the top level, or the
    cost family for its scalars (kappa_L, kappa_H, and exponent for power)."""
    if key in _SWEEP_TOP_LEVEL:
        return data
    if key in _SWEEP_COST and key in data["cost"]:
        return data["cost"]
    raise InputError(f"--sweep-param {key!r} is not a numeric field of these params")


def cmd_welfare(config: RunConfig) -> int:
    params = _load_params(config.params_path)
    key = config.sweep_param
    _sweep_slot(params.to_dict(), key)  # reject the name before writing anything
    values = _parse_range(config.sweep_range)
    outcomes = _solve_outcomes(params, config.tol)
    reports = [
        {"label": o.label, "welfare": welfare(o, params).to_dict()} for o in outcomes
    ]
    _dump(reports, config)
    header = [key, "monopoly_welfare", "competition_welfare", "max_welfare"]
    rows = []
    for value in values:
        d = params.to_dict()
        _sweep_slot(d, key)[key] = value
        try:
            p = _regular(MarketParams.from_dict(d))
        except InputError:
            continue  # the value leaves the valid parameter range
        p1 = p.with_(n_schools=1)
        mono_out = _monopoly(p1, config.tol)
        if isinstance(mono_out, CreditFamily):
            mono_out = mono_out.zero_effort_member()
        mono = welfare(mono_out, p1)
        comp_n = p.n_schools if p.n_schools >= 2 else 2
        comp = welfare(riley_rpbe(p, comp_n, config.tol), p)
        rows.append(
            [format(value, ".12g")]
            + [format(x, ".12g") for x in (mono.total, comp.total, mono.max_welfare)]
        )
    _write_csv(rows, header, config, suffix="_plot")
    return EXIT_OK


COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "oracle-compare": cmd_oracle_compare,
    "welfare": cmd_welfare,
    "audit": cmd_audit,
}


@functools.cache  # parse_args never mutates the parser, so one build serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmarket",
        description="Solve and verify equilibria of the school signaling-design game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve the design game at one parameter point"),
        ("verify", "check an equilibrium bundle (PBE, extended D1, minimality)"),
        ("sweep", "iterate a parameter grid file and emit the outcome CSV"),
        ("oracle-compare", "construct an equilibrium and match it against brute force"),
        ("welfare", "welfare report plus plot-data CSV over a parameter range"),
        ("audit", "replay school deviations against the solved outcome"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--params", required=True, help="market parameters JSON file")
        p.add_argument("--profile", default=None, help="policy profile / equilibrium bundle JSON")
        p.add_argument("--grid-points", type=int, default=21)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
        p.add_argument("--pessimistic", action="store_true")
        p.add_argument("--sweep-param", default="lambda")
        p.add_argument("--sweep-range", default="0.05:0.95:19")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.tol <= 0:
        raise InputError(f"tol must be positive, got {args.tol}")
    return RunConfig(
        command=args.command,
        params_path=args.params,
        profile_path=args.profile,
        grid_points=args.grid_points,
        tol=args.tol,
        out=args.out,
        fmt=args.fmt,
        pessimistic=args.pessimistic,
        sweep_param=args.sweep_param,
        sweep_range=args.sweep_range,
    )


def run(config: RunConfig) -> int:
    try:
        return COMMANDS[config.command](config)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericError, ResourceError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SigMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
