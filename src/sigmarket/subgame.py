"""Constructive equilibrium for the signaling subgame after policies are fixed.

Given any profile of fee/monitoring policies (all fees <= theta_H), an
equilibrium surviving the extended D1 refinement always exists, and this
module builds the canonical one.  The construction pivots on the "mimic
frontier": the most expensive signal a low type would still pay for if it
came with the top wage.

Geometry, per school i with fee f_i:

* reservation payoff  u_low = max(0, theta_L - f_min)  from enrolling at the
  cheapest school with zero effort, or staying out;
* each school's marginal signal is its last band whose start s satisfies
  c(L, s) <= theta_H - f_i - u_low, the most a low type would pay at i for
  the top wage (a school whose budget is negative has none).  Costs are
  compared exactly, without an inverse, so a start costing exactly the
  budget counts.  The market-wide marginal effort is the largest such band
  start, and the marginal schools I* are the cheapest ones attaining it.

Signals then split into the marginal set S* (band bottom exactly at the
marginal effort, school in I*), the high set S*+ (band bottom strictly above)
and the low set S*- (everything else).  Two constructions follow:

* semi-pooling: if no high signal is worth its cost premium to the high type,
  high types enroll uniformly across I* at the marginal effort and low types
  mimic with the unique probability making the pooled wage consistent;
* separating: otherwise high types take the cheapest high signal and earn the
  top wage while low types fall back to the reservation play.

The returned bundle always passes the PBE and extended-D1 verifiers.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .errors import InputError, InvariantViolation, finite, integer, read_field, require_object, require_tolerance
from .market import HIGH, LOW, DEFAULT_TOL, MarketParams, TypeLabel, bayes_high, expected_type, low_per_high, wage_offer
from .monitoring import PolicyProfile, Signal

OUTSIDE = None  # destination sentinel for the outside option

# _new(StrategyAtom, (school, effort, prob)) builds the named tuple as
# StrategyAtom(school, effort, prob) does, without its Python-level __new__;
# the same holds for Signal.
_new = tuple.__new__

Destination = int | None


class StrategyAtom(NamedTuple):
    """One support point: go to `school` (None = stay out), exert `effort`; a named tuple."""

    school: Destination
    effort: float
    prob: float

    def to_dict(self) -> dict:
        return {"school": self.school, "effort": self.effort, "prob": self.prob}


@dataclass(frozen=True)
class PopulationStrategy:
    """Finite-support play per type; probabilities sum to one per type."""

    low: tuple[StrategyAtom, ...]
    high: tuple[StrategyAtom, ...]

    def __post_init__(self):
        for label, atoms in (("low", self.low), ("high", self.high)):
            if not atoms:
                raise InputError(f"{label}-type strategy needs at least one atom")
            probs = []
            negative = outside_effort = False
            for school, effort, prob in atoms:
                probs.append(prob)
                if not prob >= 0:  # NaN counts as negative
                    negative = True
                if school is OUTSIDE and effort != 0.0:
                    outside_effort = True
            total = sum(probs)
            if not abs(total - 1.0) <= 1e-9:  # a NaN sum fails too
                raise InputError(f"{label}-type probabilities sum to {total}, not 1")
            if negative:
                raise InputError(f"{label}-type probabilities must be nonnegative")
            if outside_effort:
                raise InputError("outside-option atoms must carry zero effort")

    def atoms(self, type_label: TypeLabel) -> tuple[StrategyAtom, ...]:
        return self.high if type_label == HIGH else self.low

    def enrollment(self, type_label: TypeLabel, school: int) -> float:
        return sum(a.prob for a in self.atoms(type_label) if a.school == school)

    def enrollment_total(self, type_label: TypeLabel) -> float:
        return sum(a.prob for a in self.atoms(type_label) if a.school is not OUTSIDE)

    def signal_mass(self, profile: PolicyProfile, type_label: TypeLabel) -> dict[Signal, float]:
        out: dict[Signal, float] = {}
        for a in self.atoms(type_label):
            if a.school is OUTSIDE or a.prob == 0.0:
                continue
            s = profile.signal_of(a.school, a.effort)
            out[s] = out.get(s, 0.0) + a.prob
        return out

    def sent_signals(self, profile: PolicyProfile) -> set[Signal]:
        sent = set(self.signal_mass(profile, LOW))
        sent.update(self.signal_mass(profile, HIGH))
        return sent

    def to_dict(self) -> dict:
        return {
            "L": [a.to_dict() for a in self.low],
            "H": [a.to_dict() for a in self.high],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PopulationStrategy":
        def parse(entries):
            return tuple(
                StrategyAtom(
                    school=read_field(e, "school", lambda v: None if v is None else integer(v), "strategy atom"),
                    effort=read_field(e, "effort", finite, "strategy atom"),
                    prob=read_field(e, "prob", finite, "strategy atom"),
                )
                for e in entries
            )

        return cls(low=read_field(data, "L", parse, "strategy"), high=read_field(data, "H", parse, "strategy"))


@dataclass(frozen=True)
class WageSchedule:
    """Total map signal -> wage offer; None means no offer is made."""

    offers: dict[Signal, float | None]

    def offer(self, s: Signal) -> float | None:
        if s not in self.offers:
            raise InputError(f"signal {s.key()} not covered by wage schedule")
        return self.offers[s]

    def income(self, s: Signal) -> float:
        """Wage income a student at signal s walks away with (0 if no offer)."""
        w = self.offer(s)
        return 0.0 if w is None else w

    def to_dict(self) -> dict:
        return {s.key(): w for s, w in sorted(self.offers.items())}

    @classmethod
    def from_dict(cls, data: dict) -> "WageSchedule":
        def offer(v) -> float | None:
            return None if v is None else finite(v)

        require_object(data, "wage schedule")
        return cls(offers={Signal.from_key(k): read_field(data, k, offer, "wage schedule") for k in data})


@dataclass(frozen=True)
class BeliefSystem:
    """Total map signal -> probability the sender is the high type."""

    mu_high: dict[Signal, float]

    def mu(self, s: Signal) -> float:
        if s not in self.mu_high:
            raise InputError(f"signal {s.key()} not covered by belief system")
        return self.mu_high[s]

    def to_dict(self) -> dict:
        return {s.key(): m for s, m in sorted(self.mu_high.items())}

    @classmethod
    def from_dict(cls, data: dict) -> "BeliefSystem":
        require_object(data, "belief system")
        return cls(mu_high={Signal.from_key(k): read_field(data, k, finite, "belief system") for k in data})


def read_strategy(data: dict, key: str, profile: PolicyProfile, where: str) -> PopulationStrategy:
    """read_field of a strategy whose atoms stay out or go to a school of
    `profile`; any other school (a negative one would wrap to the last) is
    refused, naming the field."""
    strategy = read_field(data, key, PopulationStrategy.from_dict, where)
    for a in strategy.low + strategy.high:
        if a.school is not OUTSIDE and not 0 <= a.school < profile.n:
            raise InputError(f"{where} field {key!r} sends students to school {a.school}; the profile has {profile.n}")
    return strategy


def refuse_stray_signals(signals, profile: PolicyProfile, key: str, where: str) -> None:
    """Refuse a wage or belief map with a key naming a signal `profile` does
    not emit, naming the field."""
    policies = profile.policies
    for school, message in signals:
        if not (0 <= school < len(policies) and message in policies[school].monitoring.messages):
            raise InputError(f"{where} field {key!r} names signal {Signal(school, message).key()}, which its profile does not emit")


ConstructionTag = Literal["semi_pooling", "separating"]


def pooling_tag(mass_high: dict[Signal, float], mass_low: dict[Signal, float]) -> ConstructionTag:
    """The tag of play with these per-signal masses (signal_mass): "semi_pooling"
    exactly when both types send some common signal."""
    return "semi_pooling" if any(s in mass_low for s in mass_high) else "separating"


@dataclass(frozen=True)
class SubgameEquilibrium:
    """A subgame bundle: the profile, the play, wages and beliefs at every
    signal, and each type's payoff.

    construction_tag names the branch construct_epbe took for a bundle it
    built, and the play's pooling_tag for a bundle from
    EquilibriumOutcome.to_subgame or the oracle.  The two disagree at the
    knife edge where the marginal band's start costs the low type exactly
    its budget: the mimic weight q is 0, so the play of the semi-pooling
    branch separates, yet the bundle is tagged "semi_pooling".
    """

    profile: PolicyProfile
    strategy: PopulationStrategy
    wages: WageSchedule
    beliefs: BeliefSystem
    payoff_L: float
    payoff_H: float
    construction_tag: str

    def payoff(self, type_label: TypeLabel) -> float:
        return self.payoff_H if type_label == HIGH else self.payoff_L

    def to_dict(self) -> dict:
        return {
            "profile": self.profile.to_list(),
            "strategy": self.strategy.to_dict(),
            "wages": self.wages.to_dict(),
            "beliefs": self.beliefs.to_dict(),
            "payoff_L": self.payoff_L,
            "payoff_H": self.payoff_H,
            "construction_tag": self.construction_tag,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SubgameEquilibrium":
        where = "equilibrium"
        profile = read_field(data, "profile", PolicyProfile.from_list, where)
        strategy = read_strategy(data, "strategy", profile, where)
        wages = read_field(data, "wages", WageSchedule.from_dict, where)
        refuse_stray_signals(wages.offers, profile, "wages", where)
        beliefs = read_field(data, "beliefs", BeliefSystem.from_dict, where)
        refuse_stray_signals(beliefs.mu_high, profile, "beliefs", where)
        return cls(
            profile=profile,
            strategy=strategy,
            wages=wages,
            beliefs=beliefs,
            payoff_L=read_field(data, "payoff_L", finite, where),
            payoff_H=read_field(data, "payoff_H", finite, where),
            construction_tag=read_field(data, "construction_tag", str, where),
        )


def reservation(profile: PolicyProfile, params: MarketParams) -> tuple[float, float]:
    """Cheapest fee and the reservation payoff max(0, theta_L - f_min)."""
    f_min = min([p.fee for p in profile.policies])
    return f_min, max(0.0, params.theta_L - f_min)


def _reservation_atoms(
    profile: PolicyProfile, params: MarketParams, f_min: float, weight: float
) -> list[StrategyAtom]:
    """The reservation play: zero effort at the cheapest schools, or outside.

    Low types enroll when theta_L covers the cheapest fee f_min (ties resolved
    toward enrolling, so the boundary theta_L == f_min stays in school).
    """
    if params.theta_L - f_min >= 0.0:
        cheapest = [i for i, p in enumerate(profile.policies) if p.fee == f_min]
        share = weight / len(cheapest)
        return [_new(StrategyAtom, (i, 0.0, share)) for i in cheapest]
    return [StrategyAtom(OUTSIDE, 0.0, weight)]


@dataclass(frozen=True)
class FrontierReport:
    """Signal geometry of a profile from the low type's viewpoint.

    marginal_effort is the largest start s of a band the low type would pay
    for at the top wage, c(L, s) <= theta_H - f_i - u_low, over all schools;
    marginal_schools are the cheapest schools attaining it.
    """

    f_min: float
    u_low: float
    marginal_effort: float
    marginal_schools: tuple[int, ...]
    marginal_signals: tuple[Signal, ...]
    high_signals: tuple[Signal, ...]
    low_signals: tuple[Signal, ...]
    cost_low_marginal: float
    cost_high_marginal: float


def mimic_frontier(profile: PolicyProfile, params: MarketParams, tol: float = DEFAULT_TOL) -> FrontierReport:
    """Partition a profile's signals into marginal / high / low sets.

    tol must be a finite number >= 0.  Each distinct Policy object is priced
    once: PolicyProfile.symmetric and replace repeat one object, so its
    schools share one marginal band.
    """
    require_tolerance(tol)
    policies = profile.policies
    f_min, u_low = reservation(profile, params)
    cf = params.cost
    theta_H = params.theta_H
    bands: list[tuple[float, int]] = []  # each school's marginal band: (minimum effort, index in its policy)
    priced: dict[int, tuple[float, int]] = {}  # id(policy) -> its band; the profile keeps every id alive
    marginal_effort = -math.inf
    for policy in policies:
        band = priced.get(id(policy))
        if band is None:
            budget = theta_H - policy.fee - u_low
            if budget < 0.0:
                band = (-math.inf, -1)
            else:
                thresholds = policy.monitoring.thresholds
                j = cf.affordable_count(LOW, thresholds, budget)
                band = (thresholds[j - 1] if j else 0.0, j)
            priced[id(policy)] = band
        bands.append(band)
        if band[0] > marginal_effort:
            marginal_effort = band[0]
    if marginal_effort == -math.inf:
        raise InvariantViolation("no school can attract the low type at any wage")
    floor = marginal_effort - tol
    achievers: list[int] = []
    best_fee = math.inf
    for i, (bottom, _) in enumerate(bands):
        if bottom >= floor:
            achievers.append(i)
            if policies[i].fee < best_fee:
                best_fee = policies[i].fee
    fee_cut = best_fee + tol
    marginal_band: dict[int, int] = {}  # marginal school -> its marginal band, in school order
    marginal_signals: list[Signal] = []
    for i in achievers:
        policy = policies[i]
        if policy.fee <= fee_cut:
            j = marginal_band[i] = bands[i][1]
            marginal_signals.append(_new(Signal, (i, policy.monitoring.messages[j])))
    marginal_schools = tuple(marginal_band)
    cut = marginal_effort + tol
    high: list[Signal] = []
    low: list[Signal] = []
    for i, policy in enumerate(policies):
        mon = policy.monitoring
        messages = mon.messages
        k = _bisect.bisect_right(mon.thresholds, cut) + 1  # bands starting at or below the cut
        j = marginal_band.get(i)
        if j is None:
            lows = messages[:k]
        else:  # the marginal band, which is < k, is left out of low
            lows = messages[:j] + messages[j + 1 : k]
        for m in lows:
            low.append(_new(Signal, (i, m)))
        for m in messages[k:]:
            high.append(_new(Signal, (i, m)))
    fee_star = policies[marginal_schools[0]].fee
    return FrontierReport(
        f_min=f_min,
        u_low=u_low,
        marginal_effort=marginal_effort,
        marginal_schools=marginal_schools,
        marginal_signals=tuple(marginal_signals),
        high_signals=tuple(high),
        low_signals=tuple(low),
        cost_low_marginal=cf.cost(LOW, marginal_effort) + fee_star,
        cost_high_marginal=cf.cost(HIGH, marginal_effort) + fee_star,
    )


def _mixing_weight(w_bar: float, params: MarketParams, tol: float) -> tuple[float, float]:
    """Low-type mimic probability and pooled wage for an indifference wage w_bar.

    q is the low-per-high share pooling at w_bar (low_per_high); q <= 1 is
    exactly w_bar >= mean productivity.  When w_bar sits within tol of an
    endpoint (theta_H, or the mean), the weight snaps to the exact boundary
    and the wage to the Bayes-consistent value, so floating-point residue in
    w_bar = c(L, e*) + f + u_low (at a knife edge it rounds to within an ulp
    of theta_H) never leaves spurious support atoms; the payoff error this
    introduces is bounded by the wage gap, hence by tol.
    """
    mean = expected_type(params)
    if w_bar >= params.theta_H - tol:
        return 0.0, params.theta_H
    if w_bar <= mean + tol:
        return 1.0, mean
    return low_per_high(w_bar, params), w_bar


def construct_epbe(profile: PolicyProfile, params: MarketParams, tol: float = DEFAULT_TOL) -> SubgameEquilibrium:
    """Build the canonical refined equilibrium of the subgame after `profile`.

    Branches between the semi-pooling and separating constructions described
    in the module docstring.  Requires every fee <= theta_H and a finite
    tol >= 0.  The bundle's construction_tag names the branch taken, not the
    play: at the knife edge where the pooled wage is theta_H, the mimic
    weight is 0, no low type pools, and the tag is still "semi_pooling"
    (pooling_tag of the play says "separating").
    """
    policies = profile.policies
    fee_cap = params.theta_H + tol
    for i, p in enumerate(policies):
        if p.fee > fee_cap:
            raise InputError(f"school {i} fee {p.fee} exceeds theta_H={params.theta_H}")
    fr = mimic_frontier(profile, params, tol)
    cf = params.cost
    c_low_star = fr.cost_low_marginal
    c_high_star = fr.cost_high_marginal
    gain = params.theta_H - fr.u_low

    # Each high signal's cheapest outlay, priced from its band start (a high
    # band is never a school's first), and whether it is worth its premium.
    costs_high: dict[Signal, float] = {}
    efforts_high: dict[Signal, float] = {}
    pooling = True
    for s in fr.high_signals:
        policy = policies[s.school]
        mon = policy.monitoring
        effort = mon.thresholds[mon.messages.index(s.message) - 1]
        c = cf.cost(HIGH, effort) + policy.fee
        costs_high[s] = c
        efforts_high[s] = effort
        if gain > c - c_high_star + c_low_star + tol:
            pooling = False

    w_low, w_high = wage_offer(0.0, params), wage_offer(1.0, params)
    if pooling:
        w_bar = c_low_star + fr.u_low
        q, pooled_wage = _mixing_weight(w_bar, params, tol)
        share = 1.0 / len(fr.marginal_schools)
        e_star = fr.marginal_effort
        high_atoms = [_new(StrategyAtom, (i, e_star, share)) for i in fr.marginal_schools]
        low_atoms: list[StrategyAtom] = []
        if q > 0.0:
            mimic = q * share
            low_atoms = [_new(StrategyAtom, (i, e_star, mimic)) for i in fr.marginal_schools]
        if q < 1.0:
            low_atoms.extend(_reservation_atoms(profile, params, fr.f_min, 1.0 - q))
        # Wages follow beliefs except at the marginal signal, where the
        # construction pins max(w_bar, mean); the two agree by choice of q.
        mu_star, w_star = bayes_high(1.0, q, params), pooled_wage
        payoff_H = pooled_wage - c_high_star
        payoff_L = pooled_wage - c_low_star if q >= 1.0 else fr.u_low
        tag = "semi_pooling"
    else:
        cheapest = min(costs_high.values())
        winners = sorted(s for s, c in costs_high.items() if c <= cheapest + tol)
        share = 1.0 / len(winners)
        high_atoms = [StrategyAtom(s.school, efforts_high[s], share) for s in winners]
        low_atoms = _reservation_atoms(profile, params, fr.f_min, 1.0)
        # The marginal signals are priced as low ones: only the high set,
        # which holds every winner, pays the top wage.
        mu_star, w_star = 0.0, w_low
        payoff_H = params.theta_H - cheapest
        payoff_L = fr.u_low
        tag = "separating"

    beliefs = dict.fromkeys(fr.low_signals, 0.0)
    offers = dict.fromkeys(fr.low_signals, w_low)
    for s in fr.marginal_signals:
        beliefs[s] = mu_star
        offers[s] = w_star
    for s in fr.high_signals:
        beliefs[s] = 1.0
        offers[s] = w_high

    strategy = PopulationStrategy(tuple(low_atoms), tuple(high_atoms))
    return SubgameEquilibrium(profile, strategy, WageSchedule(offers), BeliefSystem(beliefs), payoff_L, payoff_H, tag)
