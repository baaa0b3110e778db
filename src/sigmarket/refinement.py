"""Equilibrium verification: PBE checks, the extended D1 refinement, policy
minimality, and an independent brute-force equilibrium enumerator.

The D1 logic works on closed-form wage intervals.  For an unsent signal s at
school i with minimum effort e, the wages that would make type t weakly
(resp. strictly) prefer deviating to s over its equilibrium payoff U(t) form
upper intervals inside the sequentially rational range [max(0, theta_L),
theta_H]:

    weak(t)   = { w : w >= U(t) + f_i + c(t, e) }
    strict(t) = { w : w >  U(t) + f_i + c(t, e) }

The refinement forbids positive belief on type t at s whenever weak(t) is a
strict subset of strict(t'), which for these intervals reduces to a guarded
lower-bound comparison (ties within tol never exclude anybody).

The enumerator is the correctness oracle for the constructive solver: it
never consults the construction, enumerating instead candidate supports over
band-minimum efforts (within a message band, any higher effort is strictly
dominated) and solving mixing weights in closed form from the wage identity.
Each weight condition reads one support, so it is tabulated per support and
only the support pairs it admits are joined.  Each pair is priced once, its
sent signals at their Bayes wages and the rest at the floor wage (a D1 wage
is never lower), where verify_pbe's best-response rule first refuses it.  A
survivor gets D1 beliefs off path, only the signals raised to belief 1 face
the rule again, and it is kept exactly when it passes both verifiers.  Each
support pair yields at most one member, so none is dropped as a duplicate.
The oracle and check_minimality price a strategy alike: Bayes beliefs on
path, punishing D1 beliefs off path (_price_off_path).

Best responses and candidate actions both come from band-minimum efforts (0
and the policy thresholds), so no check here discretises effort.  The
oracle's cost is set by its candidate-action count, oracle_actions(profile);
MAX_ORACLE_ACTIONS is the largest count a request may put to it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import InputError
from .market import (
    HIGH,
    LOW,
    DEFAULT_TOL,
    MAX_THRESHOLDS,
    MarketParams,
    TypeLabel,
    bayes_high,
    low_per_high,
    posterior_mean,
    wage_offer,
)
from .monitoring import Policy, PolicyProfile, Signal, reduce_minimal
from .subgame import (
    OUTSIDE,
    BeliefSystem,
    PopulationStrategy,
    StrategyAtom,
    SubgameEquilibrium,
    WageSchedule,
    pooling_tag,
)

_EDGE = 1e-9  # mixing weights this close to {0,1} duplicate a pure support
# outcome_equivalent's tolerances: on shares, probabilities and wages, and on efforts
_SHARE_TOL = 1e-6
_EFFORT_TOL = 1e-9
# Largest oracle_actions(profile) that oracle-compare accepts.  One call at
# A = 25 takes about 0.015 s on 2 shared vCPUs (one school of 24 bands, or
# three of 8).  Library callers (deviation_audit's replays) are not capped.
MAX_ORACLE_ACTIONS = 25
# Largest profile.n * len(profile.signals()) of a bundle that verify accepts:
# eight schools of MAX_THRESHOLDS thresholds each, 65600.  check_minimality
# runs verify_pbe on the whole profile once per school with an unsent band,
# about 2.5 us per school x signal, so verify takes about 0.4 s at the cap on
# 2 shared vCPUs.  Library callers are not capped.
MAX_VERIFY_PAIRS = 8 * 8 * (MAX_THRESHOLDS + 1)


class WageInterval(NamedTuple):
    """Upper interval of wages ending at theta_H."""

    lower: float
    closed: bool
    empty: bool


class D1WageSets(NamedTuple):
    weak: WageInterval
    strict: WageInterval


@dataclass(frozen=True)
class Violation:
    kind: str
    signal: Signal | None
    gap: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "signal": None if self.signal is None else self.signal.key(),
            "gap": self.gap,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    violations: tuple[Violation, ...]

    def to_dict(self) -> dict:
        return {"passed": self.passed, "violations": [v.to_dict() for v in self.violations]}

    @classmethod
    def from_violations(cls, violations) -> "VerificationReport":
        vs = tuple(violations)
        return cls(passed=not vs, violations=vs)


def _d1_sets(payoff: float, fee: float, cost: float, params: MarketParams, tol: float) -> D1WageSets:
    """D1 wage sets of a type with equilibrium payoff `payoff` at an unsent
    signal whose school charges `fee` and whose band-minimum effort costs the
    type `cost`."""
    t = payoff + fee + cost
    lo = max(0.0, params.theta_L)
    hi = params.theta_H
    lower = max(t, lo)
    weak = WageInterval(lower, True, t > hi + tol)  # (lower, closed, empty)
    strict = WageInterval(lower, t < lo, t >= hi - tol)
    return D1WageSets(weak, strict)


def d1_wage_sets(
    eq: SubgameEquilibrium, s: Signal, type_label: TypeLabel, params: MarketParams, tol: float = DEFAULT_TOL
) -> D1WageSets:
    """Closed-form deviation-rationalizing wage sets for an unsent signal."""
    profile = eq.profile
    if s in eq.strategy.sent_signals(profile):
        raise InputError(f"signal {s.key()} is on-path; D1 sets apply to unsent signals")
    cost = params.cost.cost(type_label, profile.min_effort(s))
    return _d1_sets(eq.payoff(type_label), profile[s.school].fee, cost, params, tol)


def strictly_included(weak: WageInterval, strict: WageInterval, tol: float = DEFAULT_TOL) -> bool:
    """weak ⊊ strict for upper intervals; ties within tol do not include."""
    if strict.empty:
        return False
    if weak.empty:
        return True
    return strict.lower < weak.lower - tol


def _payoff(eq: SubgameEquilibrium, params: MarketParams, type_label: TypeLabel, school, effort: float) -> float:
    if school is OUTSIDE:
        return 0.0
    s = eq.profile.signal_of(school, effort)
    return eq.wages.income(s) - eq.profile[school].fee - params.cost.cost(type_label, effort)


def _best_response_gaps(
    nets: list[float], costs: list[float], pays: list[float], tol: float
) -> list[tuple[int, float]]:
    """The student best-response rule of verify_pbe; the oracle applies it to
    the signals its D1 pricing raised, after _screen's floor-wage pass.

    nets[k] is signal k's income net of its school's fee and costs[k] the
    type's cost at the signal's band-minimum effort, so the type's best payoff
    is max(0, max_k nets[k] - costs[k]).  Returns (j, best - pays[j]) for
    every support payoff pays[j] below best - tol.
    """
    best = max([0.0] + [net - c for net, c in zip(nets, costs)])
    return [(j, best - pay) for j, pay in enumerate(pays) if pay < best - tol]


def verify_pbe(eq: SubgameEquilibrium, params: MarketParams, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Mutual best response + wage/belief consistency + Bayes on path.

    The best response is exact: within a message band the wage is constant
    and cost strictly rises with effort, so a type's best deviation payoff is
    max(0, max over signals s of income(s) - fee - c(type, min_effort(s))).
    """
    profile = eq.profile
    violations: list[Violation] = []
    signals = profile.signals()
    nets = [eq.wages.income(s) - profile[s.school].fee for s in signals]
    starts = [e for p in profile for e in p.monitoring.band_starts()]

    for type_label in (LOW, HIGH):
        atoms = eq.strategy.atoms(type_label)
        pays = [_payoff(eq, params, type_label, a.school, a.effort) for a in atoms]
        costs = [params.cost.cost(type_label, e) for e in starts]
        for j, gap in _best_response_gaps(nets, costs, pays, tol):
            atom = atoms[j]
            sig = None if atom.school is OUTSIDE else profile.signal_of(atom.school, atom.effort)
            violations.append(Violation("student_best_response", sig, gap, f"type {type_label}"))
        recomputed = 0.0
        for atom, pay in zip(atoms, pays):
            recomputed += atom.prob * pay
        if abs(recomputed - eq.payoff(type_label)) > max(tol, 1e-9):
            violations.append(
                Violation(
                    "student_best_response",
                    None,
                    abs(recomputed - eq.payoff(type_label)),
                    f"stored payoff for type {type_label} off by recomputation",
                )
            )

    for s in profile.signals():
        mu = eq.beliefs.mu(s)
        if not -tol <= mu <= 1.0 + tol:
            violations.append(Violation("wage_belief_consistency", s, abs(mu - 0.5) - 0.5))
            continue
        posterior = posterior_mean(mu, params)
        offer = eq.wages.offer(s)
        if offer is None:
            if posterior > tol:
                violations.append(Violation("wage_belief_consistency", s, posterior))
        elif abs(offer - posterior) > tol:
            violations.append(Violation("wage_belief_consistency", s, abs(offer - posterior)))

    mass_high = eq.strategy.signal_mass(profile, HIGH)
    mass_low = eq.strategy.signal_mass(profile, LOW)
    for s in set(mass_high) | set(mass_low):
        mu_hat = bayes_high(mass_high.get(s, 0.0), mass_low.get(s, 0.0), params)
        if abs(eq.beliefs.mu(s) - mu_hat) > tol:
            violations.append(Violation("bayes_on_path", s, abs(eq.beliefs.mu(s) - mu_hat)))

    return VerificationReport.from_violations(violations)


def verify_extended_d1(eq: SubgameEquilibrium, params: MarketParams, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Flag beliefs at unsent signals that put weight on a D1-excluded type."""
    profile = eq.profile
    violations: list[Violation] = []
    sent = eq.strategy.sent_signals(profile)
    starts = (e for p in profile for e in p.monitoring.band_starts())
    for s, e in zip(profile.signals(), starts):
        if s in sent:
            continue
        fee = profile[s.school].fee
        sets = {t: _d1_sets(eq.payoff(t), fee, params.cost.cost(t, e), params, tol) for t in (LOW, HIGH)}
        for excluded, other in ((LOW, HIGH), (HIGH, LOW)):
            if not strictly_included(sets[excluded].weak, sets[other].strict, tol):
                continue
            weight = eq.beliefs.mu(s) if excluded == HIGH else 1.0 - eq.beliefs.mu(s)
            if weight > tol:
                gap = sets[excluded].weak.lower - sets[other].strict.lower
                violations.append(
                    Violation("d1_belief", s, gap, f"belief puts {weight} on excluded type {excluded}")
                )
    return VerificationReport.from_violations(violations)


def _price_on_path(
    mass_high: dict[Signal, float], mass_low: dict[Signal, float], params: MarketParams
) -> tuple[dict[Signal, float], dict[Signal, float | None]]:
    """Bayes beliefs, and their wages, at every signal either type sends;
    mass_high and mass_low hold each type's mass per sent signal."""
    beliefs = {s: bayes_high(mass_high.get(s, 0.0), mass_low.get(s, 0.0), params) for s in set(mass_high) | set(mass_low)}
    return beliefs, {s: wage_offer(mu, params) for s, mu in beliefs.items()}


def _price_off_path(
    params: MarketParams, actions: list[_Action], payoffs: dict[TypeLabel, float], beliefs: dict, offers: dict, tol: float
) -> list[_Action]:
    """Add a punishing belief, and its wage, at every signal of `actions` (a
    profile's _candidate_actions table) that `beliefs` does not price: 1 where
    D1 excludes the low type given the types' equilibrium `payoffs`, else 0.
    Returns the actions whose signal it priced at belief 1."""
    raised = []
    for a in actions[1:]:  # every signal, at its band-minimum effort
        if a.signal not in beliefs:
            low, high = (_d1_sets(payoffs[t], a.fee, a.cost[t], params, tol) for t in (LOW, HIGH))
            excluded = strictly_included(low.weak, high.strict, tol)
            beliefs[a.signal] = 1.0 if excluded else 0.0
            offers[a.signal] = wage_offer(beliefs[a.signal], params)
            if excluded:
                raised.append(a)
    return raised


def check_minimality(eq: SubgameEquilibrium, params: MarketParams, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Flag schools whose unsent messages are strategically removable; tol >= 0.

    The play is priced once, Bayes on path and punishing D1 off path.  A school
    fails when that bundle passes verify_pbe with the school coarsened to its
    sent bands (reduce_minimal).  Exact: sent bands keep their messages, other
    reduced signals their fee and band start (an unattended school keeps its
    base band), so the prices are the reduced profile's own, and on them
    verify_extended_d1 cannot fail: belief 1 is set exactly where D1 excludes L.
    """
    profile = eq.profile
    violations: list[Violation] = []
    beliefs, offers = _price_on_path(eq.strategy.signal_mass(profile, HIGH), eq.strategy.signal_mass(profile, LOW), params)
    sent = set(beliefs)
    _price_off_path(params, _candidate_actions(profile, params), {LOW: eq.payoff_L, HIGH: eq.payoff_H}, beliefs, offers, tol)
    priced = replace(eq, wages=WageSchedule(offers), beliefs=BeliefSystem(beliefs))
    for i, policy in enumerate(profile):
        sent_i = {s.message for s in sent if s.school == i}
        if not sent_i:
            # Unattended school: the base band stands in as the one kept message.
            sent_i = {policy.monitoring.message_of(0.0)}
        reduced = reduce_minimal(policy.monitoring, sent_i)
        if reduced == policy.monitoring:
            continue
        red_profile = profile.replace(i, Policy(fee=policy.fee, monitoring=reduced))
        if verify_pbe(replace(priced, profile=red_profile), params, tol).passed:
            violations.append(
                Violation(
                    "minimality",
                    Signal(i, reduced.messages[0]),
                    float(len(policy.monitoring.messages) - len(reduced.messages)),
                    f"school {i} supports the same outcome with {len(reduced.messages)} messages",
                )
            )
    return VerificationReport.from_violations(violations)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

class _Action(NamedTuple):
    """A candidate action with its signal, fee and per-type effort cost.

    The oracle builds the table of these once per profile; every support
    pair reads it instead of recomputing signals and costs.
    """

    school: object  # school index, or OUTSIDE
    effort: float
    signal: Signal | None
    fee: float
    cost: dict[TypeLabel, float]
    outlay: dict[TypeLabel, float]  # fee + cost; 0 for the outside option


def oracle_actions(profile: PolicyProfile) -> int:
    """The oracle's candidate-action count A: the outside option plus one per band."""
    return 1 + sum(len(p.monitoring.band_starts()) for p in profile)


def _candidate_actions(profile: PolicyProfile, params: MarketParams) -> list[_Action]:
    """The outside option, then one action per signal in `profile.signals()`
    order: its school at the band-minimum effort."""
    nothing = {LOW: 0.0, HIGH: 0.0}
    actions = [_Action(OUTSIDE, 0.0, None, 0.0, nothing, nothing)]
    for i, policy in enumerate(profile):
        for start in policy.monitoring.band_starts():
            cost = {t: params.cost.cost(t, start) for t in (LOW, HIGH)}
            outlay = {t: policy.fee + cost[t] for t in (LOW, HIGH)}
            actions.append(_Action(i, start, profile.signal_of(i, start), policy.fee, cost, outlay))
    return actions


def _weighted_pairs(
    params: MarketParams, actions: list[_Action], tol: float
) -> list[tuple[tuple[_Action, ...], tuple[float, ...], tuple[_Action, ...], tuple[float, ...]]]:
    """(H support, H weights, L support, L weights) for every support pair
    whose mixing weights make both types indifferent across their supports,
    in the lexicographic order of the supports.

    Closed-form throughout: an indifference condition either involves no
    pooled signal (a knife-edge equality check, weights then uniform) or pins
    the pooled wage, which the wage identity inverts into the weight.  Either
    test reads one support, so it is tabulated once per support and only the
    pairs it admits are joined.  Knife-edge families (both types mixing
    through the same pooled signal) are emitted only at a deterministic
    symmetric representative.
    """
    supports = [c for size in (1, 2) for c in itertools.combinations(actions, size)]
    signals = [{a.signal for a in sup if a.signal is not None} for sup in supports]
    lo, hi = max(params.theta_L, 0.0), params.theta_H
    known = {HIGH: hi, LOW: lo}  # income at a signal the other type does not send

    def pay(a: _Action, t: TypeLabel) -> float:  # at a signal not pooled between the types
        return (0.0 if a.signal is None else known[t]) - a.outlay[t]

    pure = {sup[0].signal: i for i, sup in enumerate(supports) if len(sup) == 1}
    mixers = [(i, sup) for i, sup in enumerate(supports) if len(sup) == 2]
    indifferent = {t: {i for i, (a, b) in mixers if abs(pay(a, t) - pay(b, t)) <= tol} for t in (HIGH, LOW)}
    pairs = [(i, j, (1.0,), (1.0,)) for i in pure.values() for j in pure.values()]  # nothing to solve
    pooled = {HIGH: {}, LOW: {}}  # signal -> (mixer, the signal's index there, the wage it needs)
    for i, sup in mixers:  # one type mixes, the other is pure
        for t in (HIGH, LOW):
            joined = []  # the other type's pure supports, with this type's weights
            if i in indifferent[t]:  # both incomes known: weights free -> uniform
                joined = [(j, (0.5, 0.5)) for s, j in pure.items() if s is None or s not in signals[i]]
            for k, a in enumerate(sup):
                if a.signal is None:
                    continue
                target = pay(sup[1 - k], t) + a.outlay[t]
                pooled[t].setdefault(a.signal, []).append((i, k, target))
                if lo < target < hi:
                    # the pooled signal holds weight p of the mixer and all of the other type
                    share = low_per_high(target, params)
                    p = 1.0 / share if t == HIGH else share
                    if _EDGE < p < 1.0 - _EDGE:
                        joined.append((pure[a.signal], (p, 1.0 - p) if k == 0 else (1.0 - p, p)))
            pairs += [(i, j, w, (1.0,)) if t == HIGH else (j, i, (1.0,), w) for j, w in joined]
    # both mix, nothing shared: both incomes known for both types
    pairs += [
        (i, j, (0.5, 0.5), (0.5, 0.5)) for i in indifferent[HIGH] for j in indifferent[LOW] if not signals[i] & signals[j]
    ]
    # one shared signal: one ratio constraint, one degree of freedom -> symmetric representative
    for s, mixers_h in pooled[HIGH].items():
        for i, k, target in mixers_h:
            if lo < target < hi and _EDGE < (q := low_per_high(target, params) * 0.5) < 1.0 - _EDGE:
                pairs += [
                    (i, j, (0.5, 0.5), (q, 1.0 - q) if kl == 0 else (1.0 - q, q))
                    for j, kl, target_l in pooled[LOW].get(s, ())
                    if len(signals[i] & signals[j]) == 1 and abs(target - target_l) <= tol
                ]
    # two shared signals: only the equal-mass symmetric member survives strict
    # decreasing differences (equal efforts, equal fees); try it and let the
    # verifier be the judge.
    w = max(posterior_mean(bayes_high(0.5, 0.5, params), params), 0.0)
    pairs += [
        (i, i, (0.5, 0.5), (0.5, 0.5))
        for i, (a, b) in mixers
        if len(signals[i]) == 2 and all(abs(w - a.outlay[t] - (w - b.outlay[t])) <= tol for t in (HIGH, LOW))
    ]
    pairs.sort(key=lambda pair: pair[:2])
    return [(supports[i], wh, supports[j], wl) for i, j, wh, wl in pairs]


def _signal_mass(support: tuple[_Action, ...], weights: tuple[float, ...]) -> dict[Signal, float]:
    """PopulationStrategy.signal_mass, read off the action table."""
    out: dict[Signal, float] = {}
    for a, w in zip(support, weights):
        if a.school is OUTSIDE or w == 0.0:
            continue
        out[a.signal] = out.get(a.signal, 0.0) + w
    return out


def _floor_table(params: MarketParams, actions: list[_Action]) -> dict[TypeLabel, list[tuple[float, Signal]]]:
    """Per type, the five best (value, signal) over the signals of `actions`,
    best first; a value is the floor wage wage_offer(0) net of fee and cost.
    A pair sends at most four signals, so its best unsent one is here."""
    income = 0.0 if (floor := wage_offer(0.0, params)) is None else floor
    return {t: sorted((((income - a.fee) - a.cost[t], a.signal) for a in actions[1:]), reverse=True)[:5] for t in (LOW, HIGH)}


def _screen(params: MarketParams, table: dict, sup_h, weights_h, sup_l, weights_l, tol: float):
    """A weighted pair priced on path as _price_on_path prices it, or None
    where verify_pbe's best-response rule refuses it with every unsent signal
    at the floor wage (the best one read off `table`, _floor_table); a D1 wage
    is never lower, so the refusal stands.  Returns (mass_high, mass_low,
    beliefs, offers, pays), pays[t] listing what type t's support pays."""
    mass_high, mass_low = _signal_mass(sup_h, weights_h), _signal_mass(sup_l, weights_l)
    beliefs, offers, nets = {}, {}, {}  # nets: sent signal -> (wage net of fee, costs)
    for a in sup_h + sup_l:
        if (s := a.signal) in mass_high or s in mass_low:
            beliefs[s] = bayes_high(mass_high.get(s, 0.0), mass_low.get(s, 0.0), params)
            offers[s] = w = wage_offer(beliefs[s], params)
            nets[s] = ((0.0 if w is None else w) - a.fee, a.cost)
    pays = {}
    for t, sup in ((LOW, sup_l), (HIGH, sup_h)):
        best = 0.0
        for v, s in table[t]:
            if s not in nets:  # the best unsent signal
                best = max(best, v)
                break
        for net, cost in nets.values():
            best = max(best, net - cost[t])
        pays[t] = [0.0 if a.signal is None else nets[a.signal][0] - a.cost[t] for a in sup]
        if any(pay < best - tol for pay in pays[t]):
            return None
    return mass_high, mass_low, beliefs, offers, pays


def brute_force_equilibria(
    profile: PolicyProfile, params: MarketParams, tol: float = DEFAULT_TOL
) -> list[SubgameEquilibrium]:
    """Enumerate refined subgame equilibria with small supports.

    Candidate actions are the outside option plus every (school, band-minimum
    effort) pair; supports hold one or two actions per type (the outside
    option counts as one), and only the support pairs whose mixing weights
    can exist are joined.  A pair is refused at once when a support action
    fails verify_pbe's student best-response rule with its sent signals at
    their Bayes wages and the others at the floor wage (_screen).  A survivor
    keeps those prices and gets D1 beliefs off path; the signals D1 raises to
    belief 1 are the only ones whose wage moved, so the rule is re-tested on
    them alone.  Only then is the pair built as a bundle, kept only if it
    passes both verify_pbe and verify_extended_d1.  Output order is
    lexicographic in the candidate supports.  Each support pair yields at
    most one member, and none is dropped as a duplicate: two pairs differ in
    an atom, the outside option or a (school, band).  The function sets no
    size cap.
    """
    if any(p.fee > params.theta_H for p in profile):
        return []
    actions = _candidate_actions(profile, params)
    table = _floor_table(params, actions)
    results: list[SubgameEquilibrium] = []
    for sup_h, weights_h, sup_l, weights_l in _weighted_pairs(params, actions, tol):
        if (screened := _screen(params, table, sup_h, weights_h, sup_l, weights_l, tol)) is None:
            continue
        mass_high, mass_low, beliefs, offers, pays = screened
        payoffs = {t: vals[0] for t, vals in pays.items()}
        raised = _price_off_path(params, actions, payoffs, beliefs, offers, tol)
        nets = [offers[a.signal] - a.fee for a in raised]  # theta_H - fee: belief 1 always draws an offer
        if any(_best_response_gaps(nets, [a.cost[t] for a in raised], pays[t], tol) for t in (LOW, HIGH)):
            continue
        low, high = (
            tuple(StrategyAtom(a.school, a.effort, w) for a, w in zip(sup, weights))
            for sup, weights in ((sup_l, weights_l), (sup_h, weights_h))
        )
        eq = SubgameEquilibrium(
            profile, PopulationStrategy(low, high), WageSchedule(offers), BeliefSystem(beliefs),
            payoffs[LOW], payoffs[HIGH], pooling_tag(mass_high, mass_low),
        )
        if verify_pbe(eq, params, tol).passed and verify_extended_d1(eq, params, tol).passed:
            results.append(eq)
    return results


def outcome_equivalent(a: SubgameEquilibrium, b: SubgameEquilibrium) -> bool:
    """Same profile, enrollment shares, effort supports, and on-path wages.

    Off-path beliefs (and hence off-path wages) are allowed to differ.
    """
    profile = a.profile
    if b.profile != profile:
        return False
    for t in (LOW, HIGH):
        for i in range(profile.n):
            if abs(a.strategy.enrollment(t, i) - b.strategy.enrollment(t, i)) > _SHARE_TOL:
                return False
        atoms_a = sorted(
            ((x.school if x.school is not OUTSIDE else -1, x.effort, x.prob) for x in a.strategy.atoms(t) if x.prob > _SHARE_TOL)
        )
        atoms_b = sorted(
            ((x.school if x.school is not OUTSIDE else -1, x.effort, x.prob) for x in b.strategy.atoms(t) if x.prob > _SHARE_TOL)
        )
        if len(atoms_a) != len(atoms_b):
            return False
        for (sa, ea, pa), (sb, eb, pb) in zip(atoms_a, atoms_b):
            if sa != sb or abs(ea - eb) > _EFFORT_TOL or abs(pa - pb) > _SHARE_TOL:
                return False
    sent_a = a.strategy.sent_signals(profile)
    sent_b = b.strategy.sent_signals(profile)
    if sent_a != sent_b:
        return False
    for s in sent_a:
        wa, wb = a.wages.offer(s), b.wages.offer(s)
        if (wa is None) != (wb is None):
            return False
        if wa is not None and abs(wa - wb) > _SHARE_TOL:
            return False
    return True
