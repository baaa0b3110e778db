"""Command-line front end: solve, verify, sweep, oracle-compare, welfare, audit.

All commands read market parameters from a JSON file and write JSON or CSV
artifacts.  Outputs are byte-stable across runs: dictionaries are emitted
with sorted keys and CSV numbers carry 12 significant digits.

Exit codes: 0 ok; 1 a verification failed, the oracle disagreed, or a
profitable deviation was found; 2 the input was malformed (the diagnostic
names the offending field) or too large for the oracle; 3 a numerical
routine failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

from .errors import InputError, NumericError, SigMarketError, read_field, require_object
from .market import MAX_GRID_POINTS, MAX_SWEEP_VALUES, MarketParams
from .monitoring import PolicyProfile
from .outer import (
    CSV_COLUMNS,
    CreditFamily,
    DeviationGrid,
    EquilibriumOutcome,
    credit_monopoly_rpbe,
    deviation_audit,
    mild_fee_set,
    outcome_csv_row,
    riley_rpbe,
    semipooling_family,
    welfare,
)
from .refinement import (
    MAX_ORACLE_ACTIONS,
    MAX_VERIFY_PAIRS,
    brute_force_equilibria,
    check_minimality,
    oracle_actions,
    outcome_equivalent,
    verify_extended_d1,
    verify_pbe,
)
from .subgame import SubgameEquilibrium, construct_epbe

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file {path} is not valid JSON: {exc}") from None


def _load_params(path: str) -> MarketParams:
    return MarketParams.from_dict(_load_json(path, "params"))


def _dump(payload, out: str | None) -> str:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or infinity: bare tokens are not JSON
        raise NumericError(f"result is not finite: {exc}") from None
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return text


def _write_csv(rows: list[list[str]], header, out: str | None, suffix: str = "") -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if out:
        path = Path(out)
        if suffix:
            path = path.with_name(path.stem + suffix + ".csv")
        path.write_text(buf.getvalue(), encoding="utf-8")
    else:
        sys.stdout.write(buf.getvalue())


def _monopoly_outcome(params: MarketParams) -> EquilibriumOutcome:
    """The single monopoly outcome: a credit family gives its zero-effort member."""
    result = credit_monopoly_rpbe(params)
    return result.pooling_member(0.0) if isinstance(result, CreditFamily) else result


def _solve_outcomes(params: MarketParams, tol: float):
    """Outcome bundle for one parameter point, per market structure."""
    if params.n_schools == 1:
        result = credit_monopoly_rpbe(params)
        return result.sample(4, tol) if isinstance(result, CreditFamily) else [result]
    outcomes = [riley_rpbe(params)]
    for q_h in (0.25, 0.5, 0.75):
        outcomes.extend(semipooling_family(params, "zero_fee", q_h=q_h, tol=tol))
    for iv in mild_fee_set(params).intervals:  # none under fierce competition; each has hi > lo >= 0
        fee = 0.5 * (iv.lo + iv.hi)
        for q_h in (0.5, 0.8):
            outcomes.extend(semipooling_family(params, "with_fee", q_h=q_h, fee=fee, tol=tol))
    return outcomes


def cmd_solve(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    outcomes = _solve_outcomes(params, args.tol)
    if args.format == "csv":
        _write_csv([outcome_csv_row(o, params) for o in outcomes], CSV_COLUMNS, args.out)
    else:
        _dump([o.to_dict() for o in outcomes], args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    eq = SubgameEquilibrium.from_dict(_load_json(args.profile, "equilibrium bundle"))
    n, n_signals = eq.profile.n, len(eq.profile.signals())
    if n * n_signals > MAX_VERIFY_PAIRS:  # refused before any verifier runs
        raise InputError(f"bundle has {n} schools x {n_signals} signals = {n * n_signals}; verify takes at most {MAX_VERIFY_PAIRS}")
    DeviationGrid.for_profile(eq.profile, params, n_points=args.grid_points)  # unused; the bench traces its inverse call (ROADMAP item 1)
    reports = {
        "pbe": verify_pbe(eq, params, args.tol),
        "extended_d1": verify_extended_d1(eq, params, args.tol),
        "minimality": check_minimality(eq, params, args.tol),
    }
    # minimality is a property of the posted policies, reported but not fatal
    passed = reports["pbe"].passed and reports["extended_d1"].passed
    _dump({"passed": passed, "reports": {k: r.to_dict() for k, r in reports.items()}}, args.out)
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_audit(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    if params.n_schools >= 2:
        outcome = riley_rpbe(params)
    else:
        outcome = _monopoly_outcome(params)
    grid = DeviationGrid.for_profile(outcome.profile, params, n_points=args.grid_points)
    report = deviation_audit(outcome, params, grid, args.tol, pessimistic=args.pessimistic)
    payload = {
        "label": outcome.label,
        "max_gain": report.max_gain,
        "certified": report.max_gain <= args.tol,
        "best": None if report.best is None else report.best.to_dict(),
    }
    _dump(payload, args.out)
    return EXIT_OK if report.max_gain <= args.tol else EXIT_VERIFICATION


def cmd_oracle_compare(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    profile = PolicyProfile.from_list(_load_json(args.profile, "profile"))
    DeviationGrid.for_profile(profile, params, n_points=args.grid_points)  # unused; the bench traces its inverse call (ROADMAP item 1)
    n_actions = oracle_actions(profile)
    if n_actions > MAX_ORACLE_ACTIONS:  # refused before anything is solved
        raise InputError(f"profile has {n_actions} candidate actions; oracle-compare takes at most {MAX_ORACLE_ACTIONS}")
    constructed = construct_epbe(profile, params, args.tol)
    oracle = brute_force_equilibria(profile, params, args.tol)
    match_index = next((k for k, eq in enumerate(oracle) if outcome_equivalent(constructed, eq)), None)
    _dump(
        {
            "match": match_index is not None,
            "matched_index": match_index,
            "oracle_count": len(oracle),
            "constructed": constructed.to_dict(),
        },
        args.out,
    )
    return EXIT_OK if match_index is not None else EXIT_VERIFICATION


_SWEEP_TOP_LEVEL = ("theta_L", "theta_H", "lambda", "n_schools", "credit_cap")
_SWEEP_COST = ("kappa_L", "kappa_H", "exponent")


def _sweep_slot(data: dict, key: str) -> dict:
    """The part of a params dict holding a swept field: the top level, or the
    cost family for its scalars (kappa_L, kappa_H, and exponent for power)."""
    if key in _SWEEP_TOP_LEVEL:
        return data
    if key in _SWEEP_COST:
        cost = read_field(data, "cost", lambda v: v, "params")
        require_object(cost, "params field 'cost'")
        if key in cost:
            return cost
    raise InputError(f"cannot sweep {key!r}: not a numeric field of these params")


def _with_field(data: dict, key: str, value) -> dict:
    """A copy of a params dict, cost object included, with one swept field set."""
    copy = dict(data)
    if isinstance(copy.get("cost"), dict):
        copy["cost"] = dict(copy["cost"])
    _sweep_slot(copy, key)[key] = value
    return copy


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{where} must be a JSON array, got {type(value).__name__}")
    return value


def _sweep_points(spec: dict) -> list[MarketParams]:
    if "points" in spec:
        points = _array(spec["points"], "sweep file field 'points'")
        if len(points) > MAX_SWEEP_VALUES:  # before any point is parsed
            raise InputError(f"sweep file field 'points' lists {len(points)} points; a sweep takes at most {MAX_SWEEP_VALUES}")
        return [MarketParams.from_dict(p) for p in points]
    if "base" not in spec:
        raise InputError("sweep file needs either 'points' or 'base' (+ optional 'vary')")
    base, vary = spec["base"], spec.get("vary", {})
    require_object(base, "sweep file field 'base'")
    require_object(vary, "sweep file field 'vary'")
    lists = []
    for key, values in vary.items():
        _sweep_slot(base, key)  # reject the name even when a value list is empty
        lists.append((key, _array(values, f"sweep file 'vary' entry {key!r}")))
    if (count := math.prod(len(values) for _, values in lists)) > MAX_SWEEP_VALUES:  # before any point is built
        raise InputError(f"sweep file 'vary' lists make {count} points; a sweep takes at most {MAX_SWEEP_VALUES}")
    points = [base]
    for key, values in lists:
        points = [_with_field(p, key, v) for p in points for v in values]
    return [MarketParams.from_dict(p) for p in points]


def cmd_sweep(args: argparse.Namespace) -> int:
    points = _sweep_points(_load_json(args.params, "sweep"))
    rows = [outcome_csv_row(o, p) for p in points for o in _solve_outcomes(p, args.tol)]
    _write_csv(rows, CSV_COLUMNS, args.out)
    return EXIT_OK


def _parse_range(text: str) -> list[float]:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise InputError(f"sweep range must look like lo:hi:count, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo and 2 <= count <= MAX_SWEEP_VALUES):
        raise InputError(f"sweep range needs finite hi > lo and a count from 2 to {MAX_SWEEP_VALUES}, got {text!r}")
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def cmd_welfare(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    key = args.sweep_param
    _sweep_slot(params.to_dict(), key)  # reject the name before writing anything
    values = _parse_range(args.sweep_range)
    outcomes = _solve_outcomes(params, args.tol)
    reports = [
        {"label": o.label, "welfare": welfare(o, params).to_dict()} for o in outcomes
    ]
    _dump(reports, args.out)
    header = [key, "monopoly_welfare", "competition_welfare", "max_welfare"]
    rows = []
    for value in values:
        try:
            p = MarketParams.from_dict(_with_field(params.to_dict(), key, value))
        except InputError:
            continue  # the value leaves the valid parameter range
        p1 = p.with_(n_schools=1)
        mono = welfare(_monopoly_outcome(p1), p1)
        pn = p.with_(n_schools=max(p.n_schools, 2))
        comp = welfare(riley_rpbe(pn), pn)
        rows.append(
            [format(value, ".12g")]
            + [format(x, ".12g") for x in (mono.total, comp.total, mono.max_welfare)]
        )
    _write_csv(rows, header, args.out, suffix="_plot")
    return EXIT_OK


def _positive(text: str) -> float:
    """argparse type for --tol: a finite number > 0 (NaN is not)."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _grid_points(text: str) -> int:
    """argparse type for --grid-points: an integer from 2 to MAX_GRID_POINTS."""
    if not 2 <= (value := int(text)) <= MAX_GRID_POINTS:  # argparse reports a ValueError too
        raise argparse.ArgumentTypeError(f"must be an integer from 2 to {MAX_GRID_POINTS}, got {text!r}")
    return value


# Options beyond --params, --tol and --out, each taken only by the commands naming it below.
_FLAGS = {
    "--profile": {"required": True, "help": "policy profile / equilibrium bundle JSON"},
    "--grid-points": {"type": _grid_points, "default": 21, "help": "efforts in the audit's deviation grid (verify, oracle-compare: validated only)"},
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--pessimistic": {"action": "store_true"},
    "--sweep-param": {"default": "lambda"},
    "--sweep-range": {"default": "0.05:0.95:19"},
}

# command -> (handler, help text, the _FLAGS it reads)
COMMANDS = {
    "solve": (cmd_solve, "solve the design game at one parameter point", ("--format",)),
    "verify": (cmd_verify, "check an equilibrium bundle (PBE, extended D1, minimality)", ("--profile", "--grid-points")),
    "sweep": (cmd_sweep, "iterate a parameter grid file and emit the outcome CSV", ()),
    "oracle-compare": (
        cmd_oracle_compare, "construct an equilibrium and match it against brute force", ("--profile", "--grid-points")
    ),
    "welfare": (cmd_welfare, "welfare report plus plot-data CSV over a parameter range", ("--sweep-param", "--sweep-range")),
    "audit": (cmd_audit, "replay school deviations against the solved outcome", ("--grid-points", "--pessimistic")),
}


@functools.cache  # parse_args never mutates the parser, so one build serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmarket",
        description="Solve and verify equilibria of the school signaling-design game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--params", required=True, help="market parameters JSON file")
        p.add_argument("--tol", type=_positive, default=1e-9)
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)  # a malformed command line exits 2 here
    try:
        return COMMANDS[args.command][0](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SigMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
