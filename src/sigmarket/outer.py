"""Full-game solvers: who designs what signal, at what fee, and who gains.

Closed-form solutions for the policy-design game on top of the subgame
machinery:

* a monopolist extracts the whole surplus with an uninformative policy
  (fee = mean productivity under sorting, fee = theta_H under screening);
* under competition the focal outcome is the cheapest separating one: zero
  fees, a single cutoff at the separating effort, high types earn the top
  wage; alongside it live semi-pooling outcomes where part of the high types
  hide in the crowd at a mixed wage;
* fee caps / credit constraints drag the monopolist into pooling with a
  calculable fraction of low types, and into whole families of equilibria
  when the cap is tight;
* a deviation audit replays school deviations (grid policies plus the
  undercut / surplus-extraction / reveal templates) against the canonical
  continuation play and certifies the absence of profitable ones.

Welfare is expected productivity of the employed minus effort burned; fees
and wages are transfers and cancel out of the total.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Literal, NamedTuple

from .errors import InputError, finite, read_field, require_count, require_tolerance
from .market import (
    HIGH,
    LOW,
    DEFAULT_TOL,
    MarketParams,
    TypeLabel,
    expected_type,
    low_per_high,
    max_welfare,
    riley_effort,
    wage_belief,
    wage_offer,
)
from .monitoring import Policy, PolicyProfile, Signal, StepMonitoringPolicy
from .refinement import brute_force_equilibria
from .subgame import (
    OUTSIDE,
    BeliefSystem,
    PopulationStrategy,
    StrategyAtom,
    SubgameEquilibrium,
    WageSchedule,
    construct_epbe,
    pooling_tag,
    read_strategy,
    refuse_stray_signals,
)

OutcomeLabel = Literal[
    "monopoly_sorting",
    "monopoly_screening",
    "monopoly_credit",
    "riley",
    "semipooling_zero_fee",
    "semipooling_with_fee",
    "credit_family",
]


@dataclass(frozen=True)
class EquilibriumOutcome:
    """An equilibrium of the full game, reduced to its observable outcome.

    Enrollment and employment are read off the strategy on each access.
    """

    profile: PolicyProfile
    on_path: PopulationStrategy
    wages: WageSchedule
    profits: tuple[float, ...]
    payoffs: tuple[float, float]  # (U_L, U_H)
    label: str
    boundary: bool = False  # member sits on a weak-inequality family edge

    def __post_init__(self):
        if len(self.profits) != self.profile.n:
            raise InputError(f"outcome field 'profits' lists {len(self.profits)} profits for {self.profile.n} schools")

    @property
    def fee(self) -> float:
        return self.profile[0].fee

    @property
    def enrollment(self) -> tuple[float, float]:
        """Enrolled mass of each type, (low, high)."""
        return self.on_path.enrollment_total(LOW), self.on_path.enrollment_total(HIGH)

    @property
    def employment(self) -> tuple[float, float]:
        """Mass of each type, (low, high), enrolled at a signal that draws a wage offer."""

        def employed(atoms: tuple[StrategyAtom, ...]) -> float:
            mass = 0.0
            for a in atoms:
                if a.school is not OUTSIDE and self.wages.offer(self.profile.signal_of(a.school, a.effort)) is not None:
                    mass += a.prob
            return mass

        return employed(self.on_path.low), employed(self.on_path.high)

    def to_subgame(self, params: MarketParams) -> SubgameEquilibrium:
        """View the outcome as a subgame bundle (beliefs recovered from wages,
        construction tag from the strategy)."""
        beliefs = {s: wage_belief(w, params) for s, w in self.wages.offers.items()}
        strategy, profile = self.on_path, self.profile
        return SubgameEquilibrium(
            profile=profile,
            strategy=strategy,
            wages=self.wages,
            beliefs=BeliefSystem(mu_high=beliefs),
            payoff_L=self.payoffs[0],
            payoff_H=self.payoffs[1],
            construction_tag=pooling_tag(strategy.signal_mass(profile, HIGH), strategy.signal_mass(profile, LOW)),
        )

    def to_dict(self) -> dict:
        enrollment, employment = self.enrollment, self.employment
        return {
            "profile": self.profile.to_list(),
            "on_path": self.on_path.to_dict(),
            "wages": self.wages.to_dict(),
            "profits": list(self.profits),
            "enrollment": {"L": enrollment[0], "H": enrollment[1]},
            "employment": {"L": employment[0], "H": employment[1]},
            "payoffs": {"L": self.payoffs[0], "H": self.payoffs[1]},
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EquilibriumOutcome":
        """Parse a to_dict record; its derived enrollment and employment keys are ignored."""
        where = "outcome"

        def payoffs(v) -> tuple[float, float]:
            return read_field(v, LOW, finite, f"{where} payoffs"), read_field(v, HIGH, finite, f"{where} payoffs")

        profile = read_field(data, "profile", PolicyProfile.from_list, where)
        on_path = read_strategy(data, "on_path", profile, where)
        wages = read_field(data, "wages", WageSchedule.from_dict, where)
        refuse_stray_signals(wages.offers, profile, "wages", where)
        return cls(
            profile=profile,
            on_path=on_path,
            wages=wages,
            profits=read_field(data, "profits", lambda v: tuple(finite(x) for x in v), where),
            payoffs=read_field(data, "payoffs", payoffs, where),
            label=read_field(data, "label", str, where),
        )


def _school_profits(profile: PolicyProfile, params: MarketParams, strategy: PopulationStrategy) -> list[float]:
    """Fee times the enrolled population mass, at every school.  One pass
    over each type's atoms sums every school's mass in atom order, as
    PopulationStrategy.enrollment does."""
    high, low = [0] * profile.n, [0] * profile.n
    for masses, atoms in ((high, strategy.high), (low, strategy.low)):
        for school, _, prob in atoms:
            if school is not OUTSIDE:
                masses[school] += prob
    return [p.fee * (params.lam * h + (1.0 - params.lam) * l) for p, h, l in zip(profile.policies, high, low)]


def _school_profit(fee: float, school: int, params: MarketParams, strategy: PopulationStrategy) -> float:
    """_school_profits(...)[school] alone: the school's enrolled mass of each
    type summed in atom order from 0, then priced by the same expression."""
    high = low = 0
    for s, _, prob in strategy.high:
        if s == school:
            high += prob
    for s, _, prob in strategy.low:
        if s == school:
            low += prob
    return fee * (params.lam * high + (1.0 - params.lam) * low)


def _symmetric_outcome(
    params: MarketParams,
    fee: float,
    thresholds: tuple[float, ...],
    band_wages: tuple[float | None, ...],
    low: list[tuple[float | None, float]],
    high: list[tuple[float | None, float]],
    label: str,
    boundary: bool = False,
) -> EquilibriumOutcome:
    """params.n_schools identical schools post (fee, thresholds) with messages
    0..k and pay band_wages[j] for band j.

    `low` and `high` list each type's (effort, prob) entries per school: an
    entry is split evenly over the schools, in school order; effort None
    stays out with its whole prob, after the school atoms.  A type is
    indifferent across its entries, so its payoff is what its last entry
    earns: its band's wage (0 without an offer) minus the fee and the effort
    cost, or 0 outside.
    """
    n = params.n_schools
    mon = StepMonitoringPolicy.informative_on_grid((0.0, *thresholds))
    profile = PolicyProfile.symmetric(Policy(fee=fee, monitoring=mon), n)
    share = 1.0 / n

    def atoms(entries: list[tuple[float | None, float]]) -> tuple[StrategyAtom, ...]:
        enrolled = [StrategyAtom(i, e, p * share) for i in range(n) for e, p in entries if e is not None]
        return tuple(enrolled + [StrategyAtom(OUTSIDE, 0.0, p) for e, p in entries if e is None])

    def payoff(type_label: TypeLabel, entries: list[tuple[float | None, float]]) -> float:
        effort = entries[-1][0]
        if effort is None:
            return 0.0
        wage = band_wages[bisect.bisect_right(thresholds, effort)]  # messages are 0..k
        return (0.0 if wage is None else wage) - fee - params.cost.cost(type_label, effort)

    offers = {Signal(i, m): w for i in range(n) for m, w in enumerate(band_wages)}
    strategy = PopulationStrategy(low=atoms(low), high=atoms(high))
    return EquilibriumOutcome(
        profile=profile,
        on_path=strategy,
        wages=WageSchedule(offers=offers),
        profits=tuple(_school_profits(profile, params, strategy)),
        payoffs=(payoff(LOW, low), payoff(HIGH, high)),
        label=label,
        boundary=boundary,
    )


# ---------------------------------------------------------------------------
# Monopoly
# ---------------------------------------------------------------------------


def monopoly_rpbe(params: MarketParams) -> EquilibriumOutcome:
    """Unconstrained monopoly: uninformative policy, full surplus extraction.

    Sorting: fee = mean productivity, everyone enrolls at zero effort.
    Screening: fee = theta_H, only high types enroll.  Welfare is maximal in
    both cases and the school keeps all of it.
    """
    if params.n_schools != 1:
        raise InputError(f"monopoly solver needs n_schools == 1, got {params.n_schools}")
    if params.is_sorting:
        fee, low, label = expected_type(params), [(0.0, 1.0)], "monopoly_sorting"
    else:
        fee, low, label = params.theta_H, [(None, 1.0)], "monopoly_screening"
    if params.credit_cap is not None and params.credit_cap < fee:
        raise InputError(f"credit_cap {params.credit_cap} is below the monopoly fee {fee}; use credit_monopoly_rpbe")
    return _symmetric_outcome(params, fee, (), (fee,), low, [(0.0, 1.0)], label)


@dataclass(frozen=True)
class CreditFamily:
    """Equilibrium family under a binding fee cap K < mean productivity.

    Every member charges fee K, enrolls everybody, and earns profit K.  The
    members differ in how much effort gets burned:

    * the full-pooling branch pins all students at a cutoff effort
      e_l in [0, e_prime], paid the mean-productivity wage;
    * the partial-pooling branch lets high types split between the pooled
      effort and a higher threshold paid the top wage, with the pooled wage
      set by the mixing weight.

    e_prime solves K + c(L, e_prime) = mean productivity (the largest cutoff
    leaving low types willing to enroll); e_limit additionally respects the
    low types' option to drop to the below-cutoff wage, and coincides with
    e_prime whenever theta_L <= K.
    """

    params: MarketParams
    e_prime: float
    e_limit: float

    @property
    def fee(self) -> float:
        """The cap K, which every member charges."""
        return self.params.credit_cap

    def pooling_member(self, e_l: float, tol: float = DEFAULT_TOL) -> EquilibriumOutcome:
        """All students exert e_l for the mean wage; e_l in [0, e_limit]."""
        if e_l < -tol or e_l > self.e_limit + tol:
            raise InputError(f"pooling cutoff {e_l} outside family range [0, {self.e_limit}]")
        e_l = max(e_l, 0.0)
        boundary = abs(e_l - self.e_limit) <= tol
        return _pooled_outcome(self.params, self.fee, e_l, None, 1.0, expected_type(self.params), "credit_family", boundary)

    def partial_member(self, e_l: float, q_h: float, tol: float = DEFAULT_TOL) -> EquilibriumOutcome | None:
        """High types mix between the pooled effort e_l and a top threshold.

        Pooled wage w_l follows from the mix; the top threshold e_h makes
        high types exactly indifferent.  Returns None when the member fails
        feasibility (low types must clear the fee-plus-effort outlay weakly).
        """
        params = self.params
        if not 0.0 < q_h < 1.0:
            raise InputError(f"q_h must lie strictly in (0, 1), got {q_h}")
        if e_l < 0:
            raise InputError(f"pooled effort must be nonnegative, got {e_l}")
        cf = params.cost
        w_l = _mixed_wage(q_h, params)
        slack = w_l - (self.fee + cf.cost(LOW, e_l))
        if slack < -tol:
            return None
        if params.is_sorting and w_l - cf.cost(LOW, e_l) < params.theta_L - tol:
            return None
        e_h = cf.inverse(HIGH, params.theta_H - w_l + cf.cost(HIGH, e_l))
        if e_h <= e_l + tol:
            return None
        return _pooled_outcome(params, self.fee, e_l, e_h, q_h, w_l, "credit_family", boundary=abs(slack) <= tol)

    def sample(self, num: int = 5, tol: float = DEFAULT_TOL) -> list[EquilibriumOutcome]:
        """Deterministic spread of members across both branches, each built at `tol`."""
        require_count(num, "num", 1)
        members = [self.pooling_member(self.e_limit * k / num, tol) for k in range(num + 1)]
        for k in range(1, num):
            m = self.partial_member(0.0, k / num, tol)
            if m is not None:
                members.append(m)
        return members


def credit_monopoly_rpbe(params: MarketParams) -> EquilibriumOutcome | CreditFamily:
    """Monopoly under a fee cap K, any one-school market.

    No cap, or a slack one (K >= theta_H, or sorting with K >= mean), gives
    the unconstrained outcome.  Screening with K in [mean, theta_H) gives the
    unique capped-pooling outcome: fee K, every high type plus the fraction
    of low types that drags the pooled wage down to exactly K.  A tight cap
    (K < mean) yields the :class:`CreditFamily` continuum.
    """
    if params.n_schools != 1:
        raise InputError(f"credit monopoly solver needs n_schools == 1, got {params.n_schools}")
    cap, mean = params.credit_cap, expected_type(params)
    if cap is None or cap >= params.theta_H or (params.is_sorting and cap >= mean):
        return monopoly_rpbe(params.with_(credit_cap=None))
    if cap >= mean:
        alpha = min(low_per_high(cap, params), 1.0)  # at cap == mean it may round above 1
        low = [(0.0, alpha), (None, 1.0 - alpha)]
        return _symmetric_outcome(params, cap, (), (cap,), low, [(0.0, 1.0)], "monopoly_credit")
    cf = params.cost
    e_prime = cf.inverse(LOW, mean - cap)
    cap_eff = max(cap, params.theta_L, 0.0)
    e_limit = e_prime if cap_eff == cap else cf.inverse(LOW, mean - cap_eff)
    return CreditFamily(params=params, e_prime=e_prime, e_limit=e_limit)


# ---------------------------------------------------------------------------
# Competition
# ---------------------------------------------------------------------------

FierceReason = Literal["n_exceeds_inv_lambda", "n_thetaL_exceeds_mean", "losses_dominate"]


@dataclass(frozen=True)
class FierceVerdict:
    fierce: bool
    reasons: tuple[str, ...]


def is_fierce(params: MarketParams) -> FierceVerdict:
    """Competition intensity test at params.n_schools; any single condition suffices.

    (i) enough schools that grabbing all high types beats an equal split,
    (ii) low types alone are worth more than the pooled pie (sorting),
    (iii) low types are so destructive that pooled fees cannot stay positive
    (screening).  Conditions are evaluated literally regardless of regime.
    """
    n = params.n_schools
    if n < 2:
        raise InputError(f"fierceness is defined for n >= 2 schools, got {n}")
    reasons = []
    if n > 1.0 / params.lam:
        reasons.append("n_exceeds_inv_lambda")
    if n * params.theta_L > expected_type(params):
        reasons.append("n_thetaL_exceeds_mean")
    if -(n - 1) * params.theta_L >= params.theta_H:
        reasons.append("losses_dominate")
    return FierceVerdict(fierce=bool(reasons), reasons=tuple(reasons))


def riley_rpbe(params: MarketParams) -> EquilibriumOutcome:
    """Cheapest separating outcome under competition: zero fees everywhere.

    Each of params.n_schools schools posts a two-message cutoff at the
    separating effort; high types split evenly and earn theta_H; low types
    exert nothing (enrolled under sorting, outside under screening) and
    schools earn nothing.
    """
    if params.n_schools < 2:
        raise InputError(f"competition solver needs n >= 2 schools, got {params.n_schools}")
    e_r = riley_effort(params)
    low = [(0.0, 1.0)] if params.is_sorting else [(None, 1.0)]
    band_wages = (wage_offer(0.0, params), params.theta_H)
    return _symmetric_outcome(params, 0.0, (e_r,), band_wages, low, [(e_r, 1.0)], "riley")


def _mixed_wage(q_h: float, params: MarketParams) -> float:
    """Wage of the pooled message when a fraction q_h of high types hides in it."""
    # = posterior_mean(bayes_high(q_h, 1.0, params), params), inline since that route moves emitted wages' last bits
    num = params.lam * q_h * params.theta_H + (1.0 - params.lam) * params.theta_L
    return num / (params.lam * q_h + 1.0 - params.lam)


@dataclass(frozen=True)
class BoundCertificate:
    """Why a requested family is empty, with the binding bound spelled out."""

    reason: str
    sup_pooled_wage: float
    required_pooled_wage: float


@dataclass(frozen=True)
class FamilyResult:
    """List-like container of family members plus an emptiness certificate."""

    members: tuple[EquilibriumOutcome, ...]
    certificate: BoundCertificate | None = None

    def __iter__(self) -> Iterator[EquilibriumOutcome]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, k: int) -> EquilibriumOutcome:
        return self.members[k]


def _pooled_outcome(
    params: MarketParams,
    fee: float,
    e_l: float,
    e_h: float | None,
    q_h: float,
    w_l: float,
    label: str,
    boundary: bool = False,
) -> EquilibriumOutcome:
    """Low types and a share q_h of high types pool at effort e_l for wage
    w_l; the other high types take the top threshold e_h for theta_H (e_h
    None with q_h = 1: full pooling).  Below a positive e_l sits a floor band
    paid the zero-belief wage."""
    thresholds, band_wages, high = (), (w_l,), [(e_l, q_h)]
    if e_h is not None:
        thresholds, band_wages = (e_h,), (w_l, params.theta_H)
        high.append((e_h, 1.0 - q_h))
    if e_l > 0:
        thresholds, band_wages = (e_l, *thresholds), (wage_offer(0.0, params), *band_wages)
    return _symmetric_outcome(params, fee, thresholds, band_wages, [(e_l, 1.0)], high, label, boundary)


def semipooling_family(
    params: MarketParams,
    variant: Literal["zero_fee", "with_fee"],
    e_l: float | None = None,
    q_h: float | None = None,
    fee: float | None = None,
    tol: float = DEFAULT_TOL,
) -> FamilyResult:
    """Symmetric semi-pooling outcome at params.n_schools for one value of the free parameter.

    zero_fee: the top threshold is pinned at the separating effort; given
    q_h the pooled wage follows from the mix and the pooled effort from the
    high types' indifference (or the inverse map, given e_l).  with_fee:
    additionally requires the posted fee to lie in the mild-competition fee
    set and low types to be squeezed to exactly their outside payoff.

    Returns an empty result (with a bound certificate when the emptiness is
    structural) if no member satisfies the feasibility filters: pooled wage
    strictly between max(theta_L, 0) and theta_H, mixing weight strictly
    interior, pooled effort below the top threshold, and full enrollment
    worthwhile for low types.
    """
    if params.n_schools < 2:
        raise InputError(f"competition family needs n >= 2 schools, got {params.n_schools}")
    if (e_l is None) == (q_h is None):
        raise InputError("provide exactly one of e_l, q_h as the free parameter")
    cf = params.cost
    floor = max(params.theta_L, 0.0)

    # The pooled wage is base + c(anchor, e_l): net of the pooled effort, the
    # anchor type earns exactly base (high types: their separating payoff, so
    # they are indifferent; low types: the fee, so they end at zero payoff).
    if variant == "zero_fee":
        if fee not in (None, 0.0):
            raise InputError("zero_fee variant does not take a fee")
        e_r = riley_effort(params)
        fee_val, anchor, e_l_cap = 0.0, HIGH, e_r
        base = params.theta_H - cf.cost(HIGH, e_r)  # the high types' separating payoff
        sup_w = expected_type(params)
        if base >= sup_w - tol:
            return FamilyResult(
                members=(),
                certificate=BoundCertificate(
                    reason="pooled wage is capped by mean productivity below the "
                    "high types' separating payoff",
                    sup_pooled_wage=sup_w,
                    required_pooled_wage=base,
                ),
            )
        label = "semipooling_zero_fee"
    elif variant == "with_fee":
        if fee is None or fee <= 0:
            raise InputError("with_fee variant needs a positive fee")
        verdict = is_fierce(params)
        if verdict.fierce:
            return FamilyResult(
                members=(),
                certificate=BoundCertificate(
                    reason="fierce competition forces zero fees; no positive-fee member exists",
                    sup_pooled_wage=expected_type(params),
                    required_pooled_wage=float("inf"),
                ),
            )
        if not mild_fee_set(params).contains(fee):
            return FamilyResult(members=())
        fee_val = base = fee
        anchor, e_l_cap = LOW, float("inf")
        label = "semipooling_with_fee"
    else:
        raise InputError(f"unknown variant {variant!r}")

    if q_h is not None:
        if not 0.0 < q_h < 1.0:
            raise InputError(f"q_h must lie strictly in (0, 1), got {q_h}")
        w_l = _mixed_wage(q_h, params)
        budget = w_l - base
        if budget < -tol:
            return FamilyResult(members=())
        e_l_val = cf.inverse(anchor, max(budget, 0.0)) if budget > tol else 0.0
        q_val = q_h
    else:
        if not 0.0 <= e_l < e_l_cap:
            raise InputError(f"e_l must lie in [0, {e_l_cap}), got {e_l}")
        e_l_val = e_l
        w_l = base + cf.cost(anchor, e_l_val)
        if not params.theta_L < w_l < params.theta_H:
            return FamilyResult(members=())
        q_val = 1.0 / low_per_high(w_l, params)
    e_h_val = e_r if anchor == HIGH else cf.inverse(HIGH, params.theta_H - w_l + cf.cost(HIGH, e_l_val))

    low_payoff = w_l - fee_val - cf.cost(LOW, e_l_val)
    checks = (
        floor + tol < w_l < params.theta_H - tol,
        tol < q_val < 1.0 - tol,
        0.0 <= e_l_val < e_h_val - tol,
        low_payoff >= max(0.0, params.theta_L - fee_val) - tol,
    )
    if not all(checks):
        return FamilyResult(members=())
    boundary = abs(low_payoff - max(0.0, params.theta_L - fee_val)) <= tol
    member = _pooled_outcome(params, fee_val, e_l_val, e_h_val, q_val, w_l, label, boundary)
    return FamilyResult(members=(member,))


@dataclass(frozen=True)
class FeeInterval:
    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = False

    def contains(self, f: float) -> bool:
        above = f >= self.lo if self.closed_lo else f > self.lo
        below = f <= self.hi if self.closed_hi else f < self.hi
        return above and below

    @property
    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.closed_lo and self.closed_hi)


@dataclass(frozen=True)
class FeeSet:
    """Union of isolated fee points and fee intervals."""

    points: tuple[float, ...] = ()
    intervals: tuple[FeeInterval, ...] = ()

    def contains(self, f: float) -> bool:
        return f in self.points or any(iv.contains(f) for iv in self.intervals)

    def to_dict(self) -> dict:
        return {
            "points": list(self.points),
            "intervals": [
                {"lo": iv.lo, "hi": iv.hi, "closed_lo": iv.closed_lo, "closed_hi": iv.closed_hi}
                for iv in self.intervals
            ],
        }


def mild_fee_set(params: MarketParams) -> FeeSet:
    """Fees sustainable in a symmetric equilibrium with n = params.n_schools competing schools.

    Fierce competition collapses the set to {0}.  Otherwise, under sorting
    the set is {0} together with [n*theta_L, min(theta_H, mean/(lam*n)));
    under screening it is the closed interval from 0 to the per-school share
    of the pooled pie, max((theta_H + (n-1)*theta_L)/n, 0).
    """
    if is_fierce(params).fierce:
        return FeeSet(points=(0.0,))
    n = params.n_schools
    if params.is_sorting:
        lo = n * params.theta_L
        hi = min(params.theta_H, expected_type(params) / (params.lam * n))
        iv = FeeInterval(lo=lo, hi=hi, closed_lo=True, closed_hi=False)
        return FeeSet(points=(0.0,), intervals=(iv,) if not iv.empty else ())
    hi = max((params.theta_H + (n - 1) * params.theta_L) / n, 0.0)
    if hi == 0.0:
        return FeeSet(points=(0.0,))
    return FeeSet(points=(), intervals=(FeeInterval(lo=0.0, hi=hi, closed_lo=True, closed_hi=True),))


# ---------------------------------------------------------------------------
# Welfare
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WelfareReport:
    productivity_term: float
    effort_waste: float
    total: float
    student_surplus: tuple[float, float]  # population-weighted (low, high)
    school_profit_total: float
    max_welfare: float

    def to_dict(self) -> dict:
        return {
            "productivity_term": self.productivity_term,
            "effort_waste": self.effort_waste,
            "total": self.total,
            "student_surplus": {"L": self.student_surplus[0], "H": self.student_surplus[1]},
            "school_profit_total": self.school_profit_total,
            "max_welfare": self.max_welfare,
        }


def welfare(outcome: EquilibriumOutcome, params: MarketParams) -> WelfareReport:
    """Productivity of the employed minus effort burned; transfers cancel."""
    employment = outcome.employment
    prod = params.lam * params.theta_H * employment[1] + (1.0 - params.lam) * params.theta_L * employment[0]
    waste = 0.0
    for t, weight in ((LOW, 1.0 - params.lam), (HIGH, params.lam)):
        waste += weight * sum(
            a.prob * params.cost.cost(t, a.effort) for a in outcome.on_path.atoms(t)
        )
    return WelfareReport(
        productivity_term=prod,
        effort_waste=waste,
        total=prod - waste,
        student_surplus=((1.0 - params.lam) * outcome.payoffs[0], params.lam * outcome.payoffs[1]),
        school_profit_total=sum(outcome.profits),
        max_welfare=max_welfare(params),
    )


# ---------------------------------------------------------------------------
# Deviation audit
# ---------------------------------------------------------------------------


class AuditEntry(NamedTuple):
    school: int
    fee: float
    thresholds: tuple[float, ...]
    template: str  # "grid" or a named template
    gain: float
    mode: str  # "canonical" or "pessimistic"

    def to_dict(self) -> dict:
        return {
            "school": self.school,
            "fee": self.fee,
            "thresholds": list(self.thresholds),
            "template": self.template,
            "gain": self.gain,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class AuditReport:
    max_gain: float
    best: AuditEntry | None
    entries: tuple[AuditEntry, ...]

    def to_dict(self) -> dict:
        return {
            "max_gain": self.max_gain,
            "best": None if self.best is None else self.best.to_dict(),
            "entries": [e.to_dict() for e in self.entries],
        }


@dataclass(frozen=True)
class DeviationGrid:
    """The deviation audit's effort search space.

    Its positive points are the cutoffs the audit tries at every fee, a
    thinned subset of them spans the effort-revealing policy, and its
    smallest step is the cutoff of the undercut and extract templates.  It
    starts at 0, has a positive point, and must contain every policy
    threshold of the audited outcome; deviation_audit checks.
    """

    effort_grid: tuple[float, ...]

    def __post_init__(self):
        if not self.effort_grid or self.effort_grid[0] != 0.0:
            raise InputError("effort grid must start at 0")
        if any(b <= a for a, b in zip(self.effort_grid, self.effort_grid[1:])):
            raise InputError("effort grid must be strictly ascending")
        if len(self.effort_grid) < 2:
            raise InputError("effort grid needs a positive point")

    @classmethod
    def for_profile(cls, profile: PolicyProfile, params: MarketParams, n_points: int = 21) -> "DeviationGrid":
        """n_points evenly spaced efforts over [0, e_max] plus every policy
        threshold, where e_max is 1.25 times the larger of the separating
        effort and the largest threshold."""
        require_count(n_points, "n_points", 2)
        thresholds = profile.thresholds()
        e_max = 1.25 * max([riley_effort(params)] + list(thresholds))
        pts = {0.0, e_max}
        step = e_max / (n_points - 1)
        pts.update(round(k * step, 15) for k in range(n_points))
        pts.update(thresholds)  # every threshold, also those beyond e_max
        grid = sorted(pts)
        dedup = [grid[0]]
        for x in grid[1:]:
            if x - dedup[-1] > 1e-12:
                dedup.append(x)
        return cls(effort_grid=tuple(dedup))

    def covers(self, profile: PolicyProfile) -> bool:
        """Whether every threshold of the profile is a point, within 1e-12."""
        return all(
            any(abs(t - g) <= 1e-12 for g in self.effort_grid) for t in profile.thresholds()
        )

    @property
    def step(self) -> float:
        return min(b - a for a, b in zip(self.effort_grid, self.effort_grid[1:]))


def _audit_deviations(
    outcome: EquilibriumOutcome, params: MarketParams, grids: DeviationGrid
) -> list[tuple[float, StepMonitoringPolicy, str]]:
    """Candidate (fee, policy, template) deviations, deduplicated.

    The list is the same for every deviating school: it depends on the
    profile only through its lowest fee.
    """
    profile = outcome.profile
    cf = params.cost
    eps = grids.step
    gamma = min(eps / 10.0, 0.5 * (cf.cost(LOW, eps) - cf.cost(HIGH, eps)))
    f_min = min(p.fee for p in profile)
    fee_cap = params.theta_H if params.credit_cap is None else min(params.theta_H, params.credit_cap)
    positive = [e for e in grids.effort_grid if e > 0]
    fee_grid = sorted({round(k * fee_cap / 10.0, 12) for k in range(11)})
    cutoff_eps = StepMonitoringPolicy.cutoff(eps)
    stride = max(1, (len(positive) + 8) // 9)  # keep reveal policies oracle-sized
    reveal = StepMonitoringPolicy.informative_on_grid(
        [0.0] + positive[::stride] + ([positive[-1]] if positive[-1] not in positive[::stride] else [])
    )
    devs: list[tuple[float, StepMonitoringPolicy, str]] = []
    seen: set[tuple] = set()

    def add(fee: float, mon: StepMonitoringPolicy, template: str):
        fee = min(max(fee, 0.0), fee_cap)  # students cannot pay beyond the cap
        key = (round(fee, 12), mon.thresholds)
        if key in seen:
            return
        seen.add(key)
        devs.append((fee, mon, template))

    add(f_min - cf.cost(LOW, eps) - gamma, cutoff_eps, "undercut_cutoff")
    add(params.theta_H - cf.cost(HIGH, eps) - gamma, cutoff_eps, "extract_cutoff")
    add(gamma, reveal, "reveal_tiny_fee")
    add(f_min - gamma, reveal, "reveal_undercut")
    grid_policies = [StepMonitoringPolicy.uninformative()] + [StepMonitoringPolicy.cutoff(t) for t in positive]
    for fee in fee_grid:
        for mon in grid_policies:
            add(fee, mon, "grid")
    return devs


def _rank(entries: list[AuditEntry]) -> None:
    """Sort in place by the key (-gain, school, fee, thresholds), as two stable sorts."""
    entries.sort(key=attrgetter("school", "fee", "thresholds"))
    entries.sort(key=attrgetter("gain"), reverse=True)


def deviation_audit(
    outcome: EquilibriumOutcome,
    params: MarketParams,
    grids: DeviationGrid,
    tol: float = DEFAULT_TOL,
    pessimistic: bool = False,
) -> AuditReport:
    """Max profit gain any school can grab by unilateral policy deviation.

    Each candidate deviation is answered by the canonical constructed
    continuation equilibrium; a gain <= tol certifies no profitable deviation
    at grid resolution.  In pessimistic mode, deviations that look profitable
    are re-answered by the deviator's *worst* enumerated continuation (the
    threat the equilibrium can legitimately lean on); the pruning is exact
    because the worst-case profit never exceeds the canonical one.

    Each deviation is answered once per class of identical schools
    (PolicyProfile.classes), for its lowest-index member.  Every member still
    gets its own entry: the shared deviator profit minus that member's own
    on-path profit.  This is exact because the candidate deviations do not
    depend on the deviating school, and two members' deviation profiles are
    permutations of each other, so the continuation play, canonical or worst
    case, gives the deviator the same profit.  A symmetric audit thus costs
    O(n) constructions, not O(n^2).

    Entries are ranked by descending gain, ties by (school, fee, thresholds)
    ascending, in both modes; canonical `best` is the first of them.  The
    outcome's stored profits enter the gains, so each must match, within tol,
    the fee times the enrolled mass that its strategy gives.
    """
    require_tolerance(tol)
    if not grids.covers(outcome.profile):
        raise InputError("deviation grid must contain every policy threshold of the outcome")
    base_profile = outcome.profile
    on_path_profits = _school_profits(base_profile, params, outcome.on_path)
    for school, (stored, actual) in enumerate(zip(outcome.profits, on_path_profits)):
        if not abs(stored - actual) <= tol:
            raise InputError(f"outcome profit of school {school} is {stored}, but its strategy gives {actual}")
    classes = base_profile.classes()
    # (fee, thresholds, template, policy) per deviation, ascending; no two
    # deviations share (fee, thresholds), so the policies are never compared
    devs = sorted(
        (fee, mon.thresholds, template, Policy(fee=fee, monitoring=mon))
        for fee, mon, template in _audit_deviations(outcome, params, grids)
    )
    profits_of: dict[int, list[float]] = {}  # school -> its class's deviator profit per deviation
    for members in classes.values():
        rep = members[0]
        profits = []
        for fee, _, _, dev in devs:
            eq = construct_epbe(base_profile.replace(rep, dev), params, tol)
            profits.append(_school_profit(fee, rep, params, eq.strategy))
        for school in members:
            profits_of[school] = profits
    new = tuple.__new__  # new(AuditEntry, fields) is AuditEntry(*fields) without the Python-level __new__
    entries: list[AuditEntry] = []
    for school in range(base_profile.n):
        own = outcome.profits[school]
        entries += [
            new(AuditEntry, (school, fee, thresholds, template, profit - own, "canonical"))
            for (fee, thresholds, template, _), profit in zip(devs, profits_of[school])
        ]
    # entries run in (school, fee, thresholds) order, so one stable sort by gain ranks them as _rank does
    entries.sort(key=attrgetter("gain"), reverse=True)

    if not pessimistic:  # every audit tries at least the undercut template
        return AuditReport(max_gain=entries[0].gain, best=entries[0], entries=tuple(entries))

    dev_of = {(fee, thresholds): dev for fee, thresholds, _, dev in devs}
    worst_profit: dict[tuple, float | None] = {}  # (representative, fee, thresholds) -> oracle's worst
    best_gain = float("-inf")
    best_entry: AuditEntry | None = None
    pess_entries: list[AuditEntry] = []
    for entry in entries:
        # replay only what could still raise the best: the worst-case gain never exceeds the canonical one
        if entry.gain > max(best_gain, tol):
            rep = classes[base_profile[entry.school]][0]
            key = (rep, entry.fee, entry.thresholds)
            if key not in worst_profit:
                dev = dev_of[entry.fee, entry.thresholds]
                candidates = brute_force_equilibria(base_profile.replace(rep, dev), params, tol)
                deviator_profits = (_school_profit(dev.fee, rep, params, eq.strategy) for eq in candidates)
                worst_profit[key] = min(deviator_profits, default=None)
            worst = worst_profit[key]
            gain = entry.gain if worst is None else worst - outcome.profits[entry.school]
            entry = entry._replace(gain=gain, mode="pessimistic")
        pess_entries.append(entry)
        if entry.gain > best_gain:
            best_gain = entry.gain
            best_entry = entry
    _rank(pess_entries)
    return AuditReport(max_gain=best_gain, best=best_entry, entries=tuple(pess_entries))


# ---------------------------------------------------------------------------
# Sweep rows
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "theta_L",
    "theta_H",
    "lambda",
    "n_schools",
    "credit_cap",
    "cost_kind",
    "kappa_L",
    "kappa_H",
    "exponent",
    "label",
    "fee",
    "welfare_total",
    "waste",
    "profit",
    "U_L",
    "U_H",
)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".12g")


def outcome_csv_row(outcome: EquilibriumOutcome, params: MarketParams) -> list[str]:
    rep = welfare(outcome, params)
    cf = params.cost
    return [
        _fmt(params.theta_L),
        _fmt(params.theta_H),
        _fmt(params.lam),
        _fmt(params.n_schools),
        _fmt(params.credit_cap),
        cf.kind,
        _fmt(cf.kappa_L if cf.kind != "tabulated" else None),
        _fmt(cf.kappa_H if cf.kind != "tabulated" else None),
        _fmt(cf.exponent if cf.kind == "power" else None),
        outcome.label,
        _fmt(outcome.fee),
        _fmt(rep.total),
        _fmt(rep.effort_waste),
        _fmt(rep.school_profit_total),
        _fmt(outcome.payoffs[0]),
        _fmt(outcome.payoffs[1]),
    ]
