"""Seeded inputs, operations and answer checks for the three workloads.

Input generation uses only the standard library, so a set-up probe can start
timing in a process that has loaded nothing of sigmarket.  Every input is a
JSON file in the run's work directory; the operations read them through the
CLI (or, where the CLI has no entry, through the public library function)
and write their artifacts next to them.

Each workload is a fixed *pool* of operations.  A run cycles through the pool
in order; a pass is one trip through it.  The pool's composition (market
sizes, cost kinds, draw types) is the same for every seed and only the drawn
numbers change, so the latency distribution of a pass barely moves between
seeds.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import random
from pathlib import Path

WORKLOADS = ("sweep", "audit", "oracle")
COST_KINDS = ("linear", "power", "tabulated")

# Oracle deviation grid: 15 evenly spaced efforts plus at most 3 schools x 2
# thresholds stays below the brute-force oracle's 25-point cap.
ORACLE_GRID_POINTS = 15
PLANTED_MIN_GAIN = 0.1

# Outcome of one operation: OK, MISMATCH (the constructed equilibrium passes
# both verifiers, but the brute-force oracle, which is incomplete at ties,
# found no member equal to it; counted apart from wrong answers), or any other
# string, which describes a wrong answer.
OK = "ok"
MISMATCH = "mismatch"


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _table(k_l: float, k_h: float, p: float, theta_h: float, knots: int = 9) -> dict:
    """Piecewise-linear k*e**p whose range covers every cost an instance needs.

    The top knot is at least twice the effort where the high type's cost hits
    2.5*theta_H, and at least 3, which covers the separating effort, every
    drawn threshold and the 1.25x head-room of the deviation grids.
    """
    top = 2.0 * max((2.5 * theta_h / k_h) ** (1.0 / p), 1.5)
    efforts = [top * j / (knots - 1) for j in range(knots)]
    return {
        "kind": "tabulated",
        "efforts": efforts,
        "cost_L": [k_l * e**p for e in efforts],
        "cost_H": [k_h * e**p for e in efforts],
    }


def _cost(rng: random.Random, kind: str, theta_h: float) -> dict:
    k_h = rng.uniform(0.3, 1.8)
    k_l = k_h + rng.uniform(0.1, 1.6)
    p = rng.uniform(1.2, 2.5)
    if kind == "linear":
        return {"kind": "linear", "kappa_L": k_l, "kappa_H": k_h}
    if kind == "power":
        return {"kind": "power", "kappa_L": k_l, "kappa_H": k_h, "exponent": p}
    return _table(k_l, k_h, p, theta_h)


def _low_inverse(cost: dict, target: float) -> float:
    """Effort at which the low type's cost reaches target (generator-side)."""
    if cost["kind"] == "linear":
        return target / cost["kappa_L"]
    if cost["kind"] == "power":
        return (target / cost["kappa_L"]) ** (1.0 / cost["exponent"])
    eff, c = cost["efforts"], cost["cost_L"]
    j = next(j for j in range(1, len(c)) if c[j] >= target)
    return eff[j - 1] + (target - c[j - 1]) / (c[j] - c[j - 1]) * (eff[j] - eff[j - 1])


def _params(theta_l, theta_h, lam, cost, n, credit_cap=None) -> dict:
    return {
        "theta_L": theta_l,
        "theta_H": theta_h,
        "lambda": lam,
        "cost": cost,
        "n_schools": n,
        "credit_cap": credit_cap,
    }


def _policy(fee: float, thresholds) -> dict:
    ts = sorted(thresholds)
    return {"fee": fee, "monitoring": {"thresholds": ts, "messages": list(range(len(ts) + 1))}}


def _fmt(x) -> str:
    """CSV number format of the sweep artifact (12 significant digits)."""
    return "" if x is None else format(float(x), ".12g")


def _csv_key(p: dict) -> list[str]:
    """The nine leading CSV columns that identify a sweep point's rows."""
    c = p["cost"]
    tab = c["kind"] == "tabulated"
    return [
        _fmt(p["theta_L"]),
        _fmt(p["theta_H"]),
        _fmt(p["lambda"]),
        str(p["n_schools"]),
        _fmt(p["credit_cap"]),
        c["kind"],
        _fmt(None if tab else c["kappa_L"]),
        _fmt(None if tab else c["kappa_H"]),
        _fmt(c["exponent"] if c["kind"] == "power" else None),
    ]


def _sweep_points(rng: random.Random, file_index: int) -> list[dict]:
    """Twelve points: every (n_schools, cost kind) pair once, every
    (n_schools, sign of theta_L) pair once, and a credit cap on a third.

    The three monopoly points carry a tight (below mean productivity), a
    middle (between mean and theta_H) and a slack (above theta_H) cap, rotated
    across files; one competitive point carries a cap the solver ignores.
    """
    points = []
    for j in range(12):
        n = 1 + j % 4
        kind = COST_KINDS[j % 3]
        sign = j // 4  # 0: theta_L < 0, 1: theta_L == 0, 2: theta_L > 0
        th = rng.uniform(1.0, 3.0)
        tl = (rng.uniform(-1.5, -0.1), 0.0, rng.uniform(0.1, 0.8 * th))[sign]
        lam = rng.uniform(0.2, 0.8)
        mean = lam * th + (1.0 - lam) * tl
        cap = None
        if n == 1:
            band = (sign + file_index) % 3
            if band == 0 and mean > 0.05:
                cap = mean * rng.uniform(0.3, 0.9)
            elif band == 2:
                cap = th + rng.uniform(0.0, 1.0)
            else:
                floor = max(mean, 0.0)
                cap = floor + (th - floor) * rng.uniform(0.1, 0.9)
        elif j == 5:
            cap = th * rng.uniform(0.3, 1.0)
        points.append(_params(tl, th, lam, _cost(rng, kind, th), n, cap))
    return points


def _riley_params(rng: random.Random, n: int, market: str, kind: str) -> dict:
    th = rng.uniform(1.5, 3.0)
    tl = rng.uniform(0.2, 0.8 * th) if market == "sorting" else rng.uniform(-1.5, -0.2)
    return _params(tl, th, rng.uniform(0.25, 0.75), _cost(rng, kind, th), n)


def _planted(rng: random.Random, n: int, kind: str) -> tuple[dict, dict]:
    """Sorting market where n schools pool everybody at the monopoly fee.

    The shape of demo 02 and acceptance criterion 10: a monopoly-style
    profile posted by competitors, which an undercut always beats.
    """
    th = rng.uniform(1.5, 3.0)
    tl = rng.uniform(0.2, 0.8 * th)
    lam = rng.uniform(0.25, 0.75)
    params = _params(tl, th, lam, _cost(rng, kind, th), n)
    fee = lam * th + (1.0 - lam) * tl
    atoms = [{"school": i, "effort": 0.0, "prob": 1.0 / n} for i in range(n)]
    outcome = {
        "profile": [_policy(fee, []) for _ in range(n)],
        "on_path": {"L": atoms, "H": atoms},
        "wages": {f"{i}:0": fee for i in range(n)},
        "profits": [fee / n] * n,
        "enrollment": {"L": 1.0, "H": 1.0},
        "employment": {"L": 1.0, "H": 1.0},
        "payoffs": {"L": 0.0, "H": 0.0},
        "label": "planted_pooling",
    }
    return params, outcome


def _generic_profile(rng: random.Random, n: int, kind: str, counts) -> tuple[dict, list]:
    """Continuous draw shaped like acceptance criterion 08, for n <= 3."""
    th = rng.uniform(0.8, 3.5)
    tl = rng.uniform(-2.0, th - 0.3)
    cost = _cost(rng, kind, th)
    params = _params(tl, th, rng.uniform(0.15, 0.85), cost, n)
    e_r = _low_inverse(cost, th - max(tl, 0.0))
    policies = [
        _policy(rng.uniform(0.0, 0.9 * th), {round(rng.uniform(0.05 * e_r, 1.4 * e_r), 6) for _ in range(k)})
        for k in counts
    ]
    return params, policies


def _tie_profile(rng: random.Random, n: int, kind: str, counts) -> tuple[dict, list]:
    """Discrete draw shaped like the ROADMAP tie corpus: repeated fees and
    thresholds make identical schools and payoff ties common."""
    th, tl = rng.choice([(h, l) for h in (1.0, 2.0, 3.0) for l in (-1.0, 0.0, 0.5, 1.0) if l < h])
    if kind == "linear":
        cost = {"kind": "linear", "kappa_L": 2.0, "kappa_H": 1.0}
    elif kind == "power":
        cost = {"kind": "power", "kappa_L": 2.0, "kappa_H": 1.0, "exponent": 1.5}
    else:
        cost = _table(2.0, 1.0, 1.5, th)
    params = _params(tl, th, rng.choice((0.25, 0.5, 0.75)), cost, n)
    policies = [
        _policy(rng.choice((0.0, 0.25, 0.5, 1.0)), rng.sample((0.25, 0.5, 0.75, 1.0, 1.5), k)) for k in counts
    ]
    return params, policies


class Inputs:
    """Writes one workload's input files and lists its operations."""

    def __init__(self, work: Path):
        self.work = work
        self.ops: list[dict] = []

    def write(self, name: str, payload) -> str:
        path = self.work / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    def add(self, kind: str, **fields) -> None:
        op_id = len(self.ops)
        out = str(self.work / f"op{op_id:04d}.out")
        self.ops.append(dict(id=op_id, kind=kind, out=out, **fields))


def _build_sweep(rng: random.Random, inputs: Inputs) -> None:
    for f in range(48):
        points = _sweep_points(rng, f)
        path = inputs.write(f"sweep{f:03d}.json", {"points": points})
        inputs.add("sweep", params=path, keys=[_csv_key(p) for p in points])


# One audit round: 60% of operations at n = 2, 20% at n = 4 and 20% at n = 8,
# so latency_p50 falls inside the n = 2 class and latency_p90 inside the n = 8
# class instead of on a boundary between classes.  The last slot alternates
# between a riley and a planted n = 4 audit: planted n = 4 replays range from
# one to dozens of oracle calls, and fewer of them per pass keep throughput
# from swinging with how many heavy ones a seed draws.
_AUDIT_ROUND = (
    ("riley", 2), ("riley", 8), ("riley", 2), ("planted", 2), ("riley", 4),
    ("riley", 2), ("riley", 8), ("riley", 2), ("planted", 2),
)  # fmt: skip
_AUDIT_LAST = (("riley", 4), ("planted", 4))
_RILEY_CASES = list(itertools.product(("sorting", "screening"), ("linear", "power"), (False, True)))


def _build_audit(rng: random.Random, inputs: Inputs) -> None:
    seen: dict[tuple, int] = {}
    for r in range(8):  # 8 rounds cover every riley case at every size
        for what, n in _AUDIT_ROUND + (_AUDIT_LAST[r % 2],):
            k = seen.get((what, n), 0)
            seen[(what, n)] = k + 1
            name = f"{what}{n}_{k:02d}"
            if what == "riley":
                market, kind, pessimistic = _RILEY_CASES[k % len(_RILEY_CASES)]
                path = inputs.write(name + ".json", _riley_params(rng, n, market, kind))
                inputs.add("audit", params=path, pessimistic=pessimistic)
            else:
                params, outcome = _planted(rng, n, ("linear", "power")[k % 2])
                inputs.add(
                    "planted",
                    params=inputs.write(name + ".json", params),
                    outcome=inputs.write(name + "_outcome.json", outcome),
                )


# Oracle profiles per (draw, cost kind) block: 20% at n = 1, 50% at n = 2 and
# 30% at n = 3, so latency_p50 and latency_p90 sit inside the n = 2 and n = 3
# classes.  The oracle's cost grows steeply with the number of candidate
# actions, one per school band, so the threshold counts per school cycle
# through every combination in a fixed order instead of being drawn: every
# seed's pool then holds the same mix of action counts.  Twelve blocks of each
# (draw, cost kind) pair give a pool of 720 profiles, about one pass of a 30 s
# run, so the drawn numbers of many profiles average out.
_ORACLE_SIZES = (1, 1, 2, 2, 2, 2, 2, 3, 3, 3)


def _build_oracle(rng: random.Random, inputs: Inputs) -> None:
    combos = {n: itertools.cycle(itertools.product(range(3), repeat=n)) for n in (1, 2, 3)}
    cases = [
        (draw, kind, n, next(combos[n]))
        for _ in range(12)
        for draw in ("generic", "tie")
        for kind in COST_KINDS
        for n in _ORACLE_SIZES
    ]
    rng.shuffle(cases)
    for k, (draw, kind, n, counts) in enumerate(cases):
        params, policies = (_generic_profile if draw == "generic" else _tie_profile)(rng, n, kind, counts)
        inputs.add(
            "oracle",
            params=inputs.write(f"oracle{k:03d}.json", params),
            profile=inputs.write(f"oracle{k:03d}_profile.json", policies),
        )


_POOL_MAKERS = {"sweep": _build_sweep, "audit": _build_audit, "oracle": _build_oracle}


def build(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs for `seed` into `work`; return its manifest.

    The manifest lists the pool of operations, the warm-up operations and a
    digest of the pool's input files.  The warm-up is the first operation of
    each kind in a pool drawn from a fixed seed, so set-up time does not
    depend on `seed` (a planted audit's cost varies several-fold with its
    draw).
    """
    inputs = Inputs(work)
    _POOL_MAKERS[workload](random.Random(f"{workload}:{seed}"), inputs)
    digest = hashlib.sha256()
    for path in sorted(work.glob("*.json")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    warm = Inputs(work / "warmup")
    warm.work.mkdir()
    _POOL_MAKERS[workload](random.Random(f"{workload}:warmup"), warm)
    warmup, kinds = [], set()
    for op in warm.ops:
        if op["kind"] not in kinds:
            kinds.add(op["kind"])
            warmup.append(op)
    return {
        "workload": workload,
        "seed": seed,
        "ops": inputs.ops,
        "warmup": warmup,
        "inputs_digest": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class Runner:
    """Runs manifest operations against the imported sigmarket package.

    `run` is the timed part: CLI calls in-process (argument parsing, JSON
    loading and artifact writing included) or the public library call where
    the CLI has no entry.  `check` reads the artifacts back and judges them.
    """

    def __init__(self):
        import sigmarket
        import sigmarket.cli

        # Library functions are looked up at call time, so a traced run sees
        # the wrappers installed after this runner was made.
        self._lib = sigmarket
        self._columns = list(sigmarket.outer.CSV_COLUMNS)

    def run(self, op: dict) -> list:
        """Perform one operation; return its exit codes."""
        return getattr(self, "_run_" + op["kind"])(op)

    def _cli(self, *argv: str) -> int:
        try:
            return self._lib.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects with exit 2
            return exc.code if isinstance(exc.code, int) else 2

    def _run_sweep(self, op):
        return [self._cli("sweep", "--params", op["params"], "--out", op["out"])]

    def _run_audit(self, op):
        flags = ["--pessimistic"] if op["pessimistic"] else []
        return [self._cli("audit", "--params", op["params"], "--out", op["out"], *flags)]

    def _run_planted(self, op):
        lib = self._lib
        with open(op["params"], encoding="utf-8") as fh:
            params = lib.MarketParams.from_dict(json.load(fh))
        with open(op["outcome"], encoding="utf-8") as fh:
            outcome = lib.EquilibriumOutcome.from_dict(json.load(fh))
        grid = lib.DeviationGrid.for_profile(outcome.profile, params, n_points=21)
        report = lib.deviation_audit(outcome, params, grid, pessimistic=True)
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        Path(op["out"]).write_text(text, encoding="utf-8")
        return [0]

    def _run_oracle(self, op):
        grid = str(ORACLE_GRID_POINTS)
        compare = self._cli(
            "oracle-compare", "--params", op["params"], "--profile", op["profile"],
            "--grid-points", grid, "--out", op["out"],
        )  # fmt: skip
        if compare not in (0, 1):
            return [compare]
        with open(op["out"], encoding="utf-8") as fh:
            constructed = json.load(fh)["constructed"]
        bundle = op["out"] + ".bundle.json"
        Path(bundle).write_text(json.dumps(constructed, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        verify = self._cli(
            "verify", "--params", op["params"], "--profile", bundle,
            "--grid-points", grid, "--out", op["out"] + ".verify.json",
        )  # fmt: skip
        return [compare, verify]

    def artifacts(self, op: dict) -> list[str]:
        if op["kind"] == "oracle":
            return [op["out"], op["out"] + ".verify.json"]
        return [op["out"]]

    def check(self, op: dict, codes: list) -> str:
        """OK, MISMATCH, or a description of what is wrong with the answer."""
        if op["kind"] == "oracle":
            return self._check_oracle(op, codes)
        if codes != [0]:
            return f"exit {codes[0]}"
        if op["kind"] == "sweep":
            with open(op["out"], encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            if not rows or rows[0] != self._columns:
                return "CSV header differs from CSV_COLUMNS"
            found = {tuple(r[:9]) for r in rows[1:]}
            missing = sum(tuple(k) not in found for k in op["keys"])
            return f"{missing} sweep points without a row" if missing else OK
        with open(op["out"], encoding="utf-8") as fh:
            report = json.load(fh)
        if op["kind"] == "audit":
            return OK if report["certified"] is True else "riley outcome not certified"
        if report["max_gain"] >= PLANTED_MIN_GAIN:
            return OK
        return f"planted gain {report['max_gain']} below {PLANTED_MIN_GAIN}"

    def _check_oracle(self, op: dict, codes: list) -> str:
        if len(codes) != 2:
            return f"oracle-compare exit {codes[0]}"
        compare, verify = codes
        if verify != 0:
            return f"verify exit {verify} on the constructed bundle"
        with open(op["out"], encoding="utf-8") as fh:
            match = json.load(fh)["match"]
        if match != (compare == 0):
            return f"oracle-compare exit {compare} disagrees with match={match}"
        return OK if match else MISMATCH


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()
