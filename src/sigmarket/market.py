"""Market primitives: types, effort-cost families and their closed-form inverses.

A market is populated by a unit mass of students who are privately either
low- or high-productivity (theta_L may be negative, theta_H > 0), a fraction
``lam`` of them high.  Students can burn effort at a type-dependent cost; a
cost family that lacks the regularity the equilibrium analysis needs cannot
be constructed:

* c(type, 0) = 0, c strictly increasing and continuous in effort,
* strict decreasing differences: the low-minus-high cost gap strictly grows
  with effort (single crossing), so the high type is cheaper at every
  positive effort.

Two market regimes matter downstream: "sorting" (theta_L >= 0, every hire is
productive) and "screening" (theta_L < 0, hiring the low type destroys value).
The boundary theta_L = 0 counts as sorting.
"""

from __future__ import annotations

import bisect as _bisect
import dataclasses
import math
from dataclasses import dataclass, field
from typing import Literal

from .errors import InputError, RangeError, integer, read_field, real, require_count

TypeLabel = Literal["L", "H"]

LOW: TypeLabel = "L"
HIGH: TypeLabel = "H"

DEFAULT_TOL = 1e-9

# The most schools a params file may ask for.  Solving stays cheap at any
# size, but the deviation audit grows with it: on 2 shared vCPUs a screening
# audit with linear costs takes 0.03 s at 64 schools, 0.14 s at 256 and
# 0.6 s at 1024.  A larger count (a 400-digit one overflows outright)
# is refused as malformed input.  A bundle's schools are bounded instead by
# refinement.MAX_VERIFY_PAIRS (uncapped, 1024 cutoff schools took 34 s).
MAX_SCHOOLS = 1024
# The most points --grid-points may ask for.  The audit replays about 11
# deviations per point: an n = 2 screening audit takes 1.0 s at the cap.
MAX_GRID_POINTS = 4096
# The most points a welfare --sweep-range count or the product of a sweep
# file's `vary` list lengths may ask for: about 1 s of welfare solving, or 2 s
# of an n = 2 screening sweep.
MAX_SWEEP_VALUES = 10_000
# The most thresholds a parsed monitoring policy may list.  verify_pbe,
# verify_extended_d1 and check_minimality grow linearly in it: on one school,
# 0.007 s at 1024 thresholds and 0.015 s at 2000.
MAX_THRESHOLDS = 1024


@dataclass(frozen=True)
class CostFamily:
    """Parametric effort-cost function c(type, e).

    Kinds:
      linear    c(type, e) = kappa * e
      power     c(type, e) = kappa * e**exponent, exponent >= 1
      tabulated piecewise-linear interpolation between knots; efforts must
                start at 0 with cost 0 and be strictly increasing.

    The type label (not the productivity number) selects the slope, so
    negative theta_L never corrupts costs.  Construction validates finiteness,
    shape and monotonicity, and strict decreasing differences exactly: the
    gap c(L, e) - c(H, e) is (kappa_L - kappa_H) * e**exponent for linear and
    power costs, so kappa_L must exceed kappa_H, and it is linear between
    knots for tabulated costs, so it must rise strictly from knot to knot.
    """

    kind: Literal["linear", "power", "tabulated"]
    kappa_L: float = 0.0
    kappa_H: float = 0.0
    exponent: float = 1.0
    efforts: tuple[float, ...] = field(default=())
    cost_L: tuple[float, ...] = field(default=())
    cost_H: tuple[float, ...] = field(default=())

    def __post_init__(self):
        numbers = (self.kappa_L, self.kappa_H, self.exponent, *self.efforts, *self.cost_L, *self.cost_H)
        if not all(map(math.isfinite, numbers)):
            raise InputError("cost family parameters and knots must be finite")
        if self.kind in ("linear", "power"):
            if self.kappa_L <= 0 or self.kappa_H <= 0:
                raise InputError("cost slopes kappa_L, kappa_H must be positive")
            if self.kind == "power" and self.exponent < 1.0:
                raise InputError(f"power exponent must be >= 1, got {self.exponent}")
            gaps = ((0.0, 0.0), (1.0, self.kappa_L - self.kappa_H))  # (effort, gap) at two points
        elif self.kind == "tabulated":
            eff, cl, ch = self.efforts, self.cost_L, self.cost_H
            if len(eff) < 2 or len(cl) != len(eff) or len(ch) != len(eff):
                raise InputError("tabulated family needs matching effort/cost knots (>= 2)")
            if eff[0] != 0.0 or cl[0] != 0.0 or ch[0] != 0.0:
                raise InputError("tabulated family must start at (effort 0, cost 0)")
            if any(b <= a for a, b in zip(eff, eff[1:])):
                raise InputError("tabulated efforts must be strictly increasing")
            for name, col in (("cost_L", cl), ("cost_H", ch)):
                if any(b <= a for a, b in zip(col, col[1:])):
                    raise InputError(f"{name} must be strictly increasing in effort")
            gaps = tuple(zip(eff, (lo - hi for lo, hi in zip(cl, ch))))  # (effort, gap) at each knot
        else:
            raise InputError(f"unknown cost kind {self.kind!r}")
        for (e0, g0), (e1, g1) in zip(gaps, gaps[1:]):
            if g1 <= g0:
                raise InputError(
                    f"cost family breaks strict decreasing differences: the gap c(L, e) - c(H, e) "
                    f"goes from {g0} at effort {e0} to {g1} at {e1}"
                )

    @classmethod
    def linear(cls, kappa_L: float, kappa_H: float) -> "CostFamily":
        return cls(kind="linear", kappa_L=kappa_L, kappa_H=kappa_H)

    @classmethod
    def power(cls, kappa_L: float, kappa_H: float, exponent: float) -> "CostFamily":
        return cls(kind="power", kappa_L=kappa_L, kappa_H=kappa_H, exponent=exponent)

    @classmethod
    def tabulated(cls, efforts, cost_L, cost_H) -> "CostFamily":
        return cls(
            kind="tabulated",
            efforts=tuple(float(e) for e in efforts),
            cost_L=tuple(float(c) for c in cost_L),
            cost_H=tuple(float(c) for c in cost_H),
        )

    def _slope(self, type_label: TypeLabel) -> float:
        return self.kappa_H if type_label == HIGH else self.kappa_L

    def cost(self, type_label: TypeLabel, effort: float) -> float:
        """Effort cost c(type, e); exact for linear/power kinds.  A power cost
        too large for a float is math.inf, so no budget affords that effort."""
        if type_label not in (LOW, HIGH):
            raise InputError(f"type must be 'L' or 'H', got {type_label!r}")
        if effort < 0:
            raise InputError(f"effort must be nonnegative, got {effort}")
        if self.kind == "linear":
            return self._slope(type_label) * effort
        if self.kind == "power":
            try:
                return self._slope(type_label) * effort**self.exponent
            except OverflowError:
                return math.inf
        table, eff = self._table(type_label), self.efforts
        if effort > eff[-1]:
            raise RangeError(f"effort {effort} beyond tabulated range [0, {eff[-1]}]")
        j = _bisect.bisect_right(eff, effort) - 1
        if j >= len(eff) - 1:
            return table[-1]
        w = (effort - eff[j]) / (eff[j + 1] - eff[j])
        return table[j] + w * (table[j + 1] - table[j])

    def _table(self, type_label: TypeLabel) -> tuple[float, ...]:
        return self.cost_H if type_label == HIGH else self.cost_L

    def inverse(self, type_label: TypeLabel, target_cost: float) -> float:
        """Effort e with c(type, e) = target_cost, in closed form.

        linear: t / kappa; power: (t / kappa)**(1 / exponent); tabulated: the
        knot segment holding t is found by bisecting the cost table and then
        interpolated linearly, so a knot cost maps to its knot exactly.
        Returns 0 exactly when target_cost == 0.  A tabulated target above the
        type's last knot cost raises RangeError.
        """
        if type_label not in (LOW, HIGH):
            raise InputError(f"type must be 'L' or 'H', got {type_label!r}")
        if target_cost < 0:
            raise InputError(f"target cost must be nonnegative, got {target_cost}")
        if self.kind == "linear":
            return target_cost / self._slope(type_label)
        if self.kind == "power":
            return (target_cost / self._slope(type_label)) ** (1.0 / self.exponent)
        table, eff = self._table(type_label), self.efforts
        if target_cost > table[-1]:
            raise RangeError(f"target cost {target_cost} beyond tabulated range")
        j = _bisect.bisect_left(table, target_cost)
        if table[j] == target_cost:
            return eff[j]
        w = (target_cost - table[j - 1]) / (table[j] - table[j - 1])
        return eff[j - 1] + w * (eff[j] - eff[j - 1])

    def affordable_count(self, type_label: TypeLabel, efforts: tuple[float, ...], budget: float) -> int:
        """How many of the ascending `efforts` cost the type at most `budget`.

        Cost rises with effort, so these efforts are a prefix, found by
        bisection on exact cost comparisons.  A tabulated family is never
        extrapolated: a budget above the type's last knot cost raises
        RangeError, as inverse does, and otherwise an effort beyond the last
        knot is over budget without being priced.
        """
        if self.kind == "tabulated":
            if budget > self._table(type_label)[-1]:
                raise RangeError(f"budget {budget} beyond tabulated range")
            efforts = efforts[: _bisect.bisect_right(efforts, self.efforts[-1])]
        return _bisect.bisect_right(efforts, budget, key=lambda e: self.cost(type_label, e))

    def to_dict(self) -> dict:
        if self.kind == "linear":
            return {"kind": "linear", "kappa_L": self.kappa_L, "kappa_H": self.kappa_H}
        if self.kind == "power":
            return {
                "kind": "power",
                "kappa_L": self.kappa_L,
                "kappa_H": self.kappa_H,
                "exponent": self.exponent,
            }
        return {
            "kind": "tabulated",
            "efforts": list(self.efforts),
            "cost_L": list(self.cost_L),
            "cost_H": list(self.cost_H),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CostFamily":
        def number(key: str) -> float:
            return read_field(data, key, real, "cost family")

        def knots(key: str) -> tuple[float, ...]:
            return read_field(data, key, lambda v: tuple(real(x) for x in v), "cost family")

        kind = read_field(data, "kind", lambda v: v, "cost family")
        if kind == "linear":
            return cls.linear(number("kappa_L"), number("kappa_H"))
        if kind == "power":
            return cls.power(number("kappa_L"), number("kappa_H"), number("exponent"))
        if kind == "tabulated":
            return cls.tabulated(knots("efforts"), knots("cost_L"), knots("cost_H"))
        raise InputError(f"unknown cost kind {kind!r}")


def _school_count(value) -> int:
    """The read_field converter for n_schools: an integer of at most MAX_SCHOOLS."""
    n = integer(value)
    if n > MAX_SCHOOLS:
        raise ValueError(f"expected at most {MAX_SCHOOLS} schools")
    return n


@dataclass(frozen=True)
class MarketParams:
    """Primitives of one market instance.

    theta_L may be negative (screening); theta_H must be positive and exceed
    theta_L; lam is the population share of high types, strictly in (0, 1).
    credit_cap, when present, is the largest fee any student can pay.  Every
    number must be finite.
    """

    theta_L: float
    theta_H: float
    lam: float
    cost: CostFamily
    n_schools: int = 1
    credit_cap: float | None = None

    def __post_init__(self):
        for name in ("theta_L", "theta_H", "lam", "credit_cap"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        if self.theta_H <= 0:
            raise InputError(f"theta_H must be positive, got {self.theta_H}")
        if self.theta_H <= self.theta_L:
            raise InputError("theta_H must exceed theta_L")
        if not 0.0 < self.lam < 1.0:
            raise InputError(f"lam must lie strictly in (0, 1), got {self.lam}")
        require_count(self.n_schools, "n_schools", 1)
        if self.credit_cap is not None and self.credit_cap <= 0:
            raise InputError(f"credit_cap must be positive, got {self.credit_cap}")

    @property
    def is_sorting(self) -> bool:
        """Sorting regime: both types productive (boundary theta_L == 0 included)."""
        return self.theta_L >= 0.0

    def with_(self, **changes) -> "MarketParams":
        """A copy with the given fields changed, validated as a new instance."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "theta_L": self.theta_L,
            "theta_H": self.theta_H,
            "lambda": self.lam,
            "n_schools": self.n_schools,
            "credit_cap": self.credit_cap,
            "cost": self.cost.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MarketParams":
        where = "market params"
        return cls(
            theta_L=read_field(data, "theta_L", real, where),
            theta_H=read_field(data, "theta_H", real, where),
            lam=read_field(data, "lambda", real, where),
            cost=read_field(data, "cost", CostFamily.from_dict, where),
            n_schools=read_field(data, "n_schools", _school_count, where, default=1),
            credit_cap=read_field(
                data, "credit_cap", lambda v: None if v is None else real(v), where, default=None
            ),
        )


# The belief -> wage rule.  A competitive labor market pays a graduate the
# posterior expected productivity given the signal (Spence 1973).  Wages, their
# inverse, Bayes beliefs and pooling mixes are computed here and nowhere else,
# except outer._mixed_wage, which keeps its own arithmetic (see there).


def posterior_mean(mu: float, params: MarketParams) -> float:
    """Expected productivity mu*theta_H + (1-mu)*theta_L under belief mu."""
    return mu * params.theta_H + (1.0 - mu) * params.theta_L


def wage_offer(mu: float, params: MarketParams) -> float | None:
    """Competitive wage response to a belief: posterior mean, or no offer."""
    w = posterior_mean(mu, params)
    return w if w >= 0.0 else None


def wage_belief(w: float | None, params: MarketParams) -> float:
    """wage_offer inverted: the belief an offer reveals, clipped to [0, 1]; 0 for no offer."""
    if w is None:
        return 0.0
    return min(max((w - params.theta_L) / (params.theta_H - params.theta_L), 0.0), 1.0)


def bayes_high(mass_high: float, mass_low: float, params: MarketParams) -> float:
    """Bayes posterior that the sender is high, from each type's share at a signal."""
    r = params.lam * mass_high
    q = (1.0 - params.lam) * mass_low
    return r / (r + q)


def low_per_high(w: float, params: MarketParams) -> float:
    """Low-type share per unit of high-type share whose pooled posterior mean is w.

    Inverts the rule above: lam*theta_H + x*(1-lam)*theta_L = w*(lam + x*(1-lam)).
    Meaningful for theta_L < w < theta_H.
    """
    return params.lam * (params.theta_H - w) / ((1.0 - params.lam) * (w - params.theta_L))


def expected_type(params: MarketParams) -> float:
    """Population-average productivity: the posterior mean at the prior lam."""
    return posterior_mean(params.lam, params)


def max_welfare(params: MarketParams) -> float:
    """Best attainable surplus: everyone productive works, nobody burns effort.

    Under sorting that is the full expected productivity; under screening only
    high types should be employed.
    """
    return expected_type(params) if params.is_sorting else params.lam * params.theta_H


def riley_effort(params: MarketParams) -> float:
    """Cheapest fully separating effort.

    The unique e with c(L, e) = theta_H - max(theta_L, 0): the smallest effort
    a low type would never pay for even against the top wage, net of their
    fallback of being hired at their own productivity (or staying out).
    Positive because theta_H > max(theta_L, 0).
    """
    target = params.theta_H - max(params.theta_L, 0.0)
    return params.cost.inverse(LOW, target)
