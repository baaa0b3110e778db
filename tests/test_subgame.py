import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sigmarket import (
    BeliefSystem,
    CostFamily,
    DeviationGrid,
    FrontierReport,
    InputError,
    MarketParams,
    Policy,
    PolicyProfile,
    PopulationStrategy,
    RangeError,
    Signal,
    StepMonitoringPolicy,
    StrategyAtom,
    SubgameEquilibrium,
    WageSchedule,
    construct_epbe,
    mimic_frontier,
    reservation,
    riley_rpbe,
    verify_extended_d1,
    verify_pbe,
    wage_offer,
)
from sigmarket.market import DEFAULT_TOL
from sigmarket.outer import _audit_deviations

LIN = CostFamily.linear(2.0, 1.0)


def uninformative(fee):
    return Policy(fee=fee, monitoring=StepMonitoringPolicy.uninformative())


def cutoff(fee, threshold):
    return Policy(fee=fee, monitoring=StepMonitoringPolicy.cutoff(threshold))


class TestReservation:
    def test_examples(self):
        p = MarketParams(theta_L=1.0, theta_H=2.0, lam=0.5, cost=LIN, n_schools=2)
        prof = PolicyProfile.of(uninformative(0.3), uninformative(0.5))
        assert reservation(prof, p) == (0.3, pytest.approx(0.7))
        scr = p.with_(theta_L=-1.0)
        prof0 = PolicyProfile.of(uninformative(0.0), uninformative(0.0))
        assert reservation(prof0, scr) == (0.0, 0.0)
        prof2 = PolicyProfile.of(uninformative(2.0))
        assert reservation(prof2, p.with_(n_schools=1)) == (2.0, 0.0)


class TestMimicFrontier:
    def test_single_school_root(self, sorting):
        prof = PolicyProfile.of(uninformative(0.0))
        fr = mimic_frontier(prof, sorting)
        assert fr.u_low == 1.0
        assert fr.marginal_signals == (Signal(0, 0),)
        assert fr.marginal_schools == (0,)
        assert fr.marginal_effort == 0.0
        assert fr.high_signals == ()

    def test_two_school_partition(self, sorting):
        prof = PolicyProfile.of(cutoff(0.0, 0.4), cutoff(0.0, 0.6))
        fr = mimic_frontier(prof, sorting.with_(n_schools=2))
        assert fr.marginal_effort == 0.4
        assert fr.marginal_schools == (0,)
        assert fr.marginal_signals == (Signal(0, 1),)
        assert fr.high_signals == (Signal(1, 1),)
        assert set(fr.low_signals) == {Signal(0, 0), Signal(1, 0)}
        # both frontiers sit at c(L, e) = 1, i.e. e = 0.5: a cutoff there is reachable
        at_frontier = PolicyProfile.of(cutoff(0.0, 0.4), cutoff(0.0, 0.5))
        fr = mimic_frontier(at_frontier, sorting.with_(n_schools=2))
        assert fr.marginal_effort == 0.5
        assert fr.marginal_schools == (1,)
        assert fr.marginal_signals == (Signal(1, 1),)

    def test_priced_out_school_excluded(self, sorting):
        # school 1 charges more than theta_H minus the reservation payoff
        prof = PolicyProfile.of(uninformative(0.0), cutoff(1.5, 0.1))
        fr = mimic_frontier(prof, sorting.with_(n_schools=2))
        # school 1's band at 0.1 would be affordable, but its fee alone is not
        assert fr.marginal_effort == 0.0
        assert fr.marginal_signals == (Signal(0, 0),)
        assert fr.marginal_schools == (0,)


# Each family prices the low type's effort at 2 exactly at the listed threshold.
KNIFE_EDGES = {
    "linear": (LIN, 1.0),
    "power": (CostFamily.power(0.5, 0.25, 2.0), 2.0),
    "tabulated": (CostFamily.tabulated([0.0, 0.5, 1.25, 3.0], [0.0, 1.0, 2.0, 5.0], [0.0, 0.4, 0.9, 2.5]), 1.25),
}


class TestExactFrontier:
    @pytest.mark.parametrize("kind", sorted(KNIFE_EDGES))
    def test_band_costing_exactly_the_budget_is_marginal(self, screening, kind):
        # the screening_two case: fee 0 and u_low = 0 leave a budget of theta_H = 2 = c(L, t)
        cf, t = KNIFE_EDGES[kind]
        params = screening.with_(cost=cf)
        assert cf.cost("L", t) == params.theta_H
        prof = PolicyProfile.of(cutoff(0.0, t))
        fr = mimic_frontier(prof, params)
        assert fr.marginal_effort == t
        assert fr.marginal_signals == (Signal(0, 1),)
        assert fr.high_signals == ()
        eq = construct_epbe(prof, params)
        assert eq.construction_tag == "semi_pooling"
        assert {(a.school, a.effort, a.prob) for a in eq.strategy.low} == {(None, 0.0, 1.0)}  # q = 0
        assert {(a.school, a.effort, a.prob) for a in eq.strategy.high} == {(0, t, 1.0)}
        assert eq.wages.offer(Signal(0, 1)) == params.theta_H
        assert verify_pbe(eq, params).passed
        assert verify_extended_d1(eq, params).passed

        beyond = PolicyProfile.of(cutoff(0.0, math.nextafter(t, math.inf)))
        assert mimic_frontier(beyond, params).marginal_effort == 0.0
        assert construct_epbe(beyond, params).construction_tag == "separating"

    @pytest.mark.parametrize("kind", sorted(KNIFE_EDGES))
    def test_band_starting_at_the_cut_is_low(self, screening, kind):
        """Bands starting at marginal effort + tol are low, one ulp later high."""
        cf, t = KNIFE_EDGES[kind]
        params = screening.with_(cost=cf)
        cut = t + DEFAULT_TOL
        fr = mimic_frontier(PolicyProfile.of(steps(0.0, t, cut, math.nextafter(cut, math.inf))), params)
        assert fr.marginal_effort == t
        assert fr.marginal_signals == (Signal(0, 1),)
        assert fr.low_signals == (Signal(0, 0), Signal(0, 2))
        assert fr.high_signals == (Signal(0, 3),)
        fr = mimic_frontier(PolicyProfile.of(cutoff(0.0, t), cutoff(0.0, cut)), params.with_(n_schools=2))
        assert (fr.marginal_signals, fr.high_signals) == ((Signal(0, 1),), ())
        assert fr.low_signals == (Signal(0, 0), Signal(1, 0), Signal(1, 1))

    def test_tabulated_range_errors_unchanged(self, sorting):
        tab = KNIFE_EDGES["tabulated"][0]
        params = sorting.with_(cost=tab, n_schools=2)
        # a threshold past the last knot is over a budget the table covers
        fr = mimic_frontier(PolicyProfile.of(cutoff(0.0, 4.0), cutoff(0.0, 0.5)), params)
        assert fr.marginal_signals == (Signal(1, 1),)
        assert fr.high_signals == (Signal(0, 1),)
        # a budget past the last knot cost is outside the table
        with pytest.raises(RangeError):
            mimic_frontier(PolicyProfile.of(uninformative(0.0)), params.with_(theta_H=7.0, n_schools=1))

    @pytest.mark.parametrize("theta_L", [1.0, -1.0])
    def test_audit_profiles_need_no_inverse(self, monkeypatch, sorting, theta_L):
        params = sorting.with_(theta_L=theta_L, n_schools=4)
        outcome = riley_rpbe(params)
        grid = DeviationGrid.for_profile(outcome.profile, params)
        devs = _audit_deviations(outcome, params, grid)

        def no_inverse(*args, **kwargs):
            raise AssertionError("construct_epbe called CostFamily.inverse")

        monkeypatch.setattr(CostFamily, "inverse", no_inverse)
        for fee, mon, _ in devs:
            for school in range(params.n_schools):
                construct_epbe(outcome.profile.replace(school, Policy(fee=fee, monitoring=mon)), params)
        assert len(devs) > 20


def signal_by_signal_frontier(profile, params, tol=DEFAULT_TOL):
    """Reference for mimic_frontier: classifies every signal of
    profile.signals() by hashing it against the marginal set and reading
    its band start through PolicyProfile.min_effort."""
    f_min, u_low = reservation(profile, params)
    cf = params.cost
    band_bottom, band_message = [], []
    for policy in profile:
        budget = params.theta_H - policy.fee - u_low
        if budget < 0.0:
            band_bottom.append(float("-inf"))
            band_message.append(None)
            continue
        mon = policy.monitoring
        j = cf.affordable_count("L", mon.thresholds, budget)
        band_bottom.append(mon.band_starts()[j])
        band_message.append(mon.messages[j])
    marginal_effort = max(band_bottom)
    achievers = [i for i in range(profile.n) if band_bottom[i] >= marginal_effort - tol]
    best_fee = min(profile[i].fee for i in achievers)
    marginal_schools = tuple(i for i in achievers if profile[i].fee <= best_fee + tol)
    marginal_signals = tuple(Signal(i, band_message[i]) for i in marginal_schools)
    marginal = set(marginal_signals)
    high, low = [], []
    for s in profile.signals():
        if s not in marginal:
            (high if profile.min_effort(s) > marginal_effort + tol else low).append(s)
    i0 = marginal_schools[0]
    return FrontierReport(
        f_min=f_min,
        u_low=u_low,
        marginal_effort=marginal_effort,
        marginal_schools=marginal_schools,
        marginal_signals=marginal_signals,
        high_signals=tuple(high),
        low_signals=tuple(low),
        cost_low_marginal=cf.cost("L", marginal_effort) + profile[i0].fee,
        cost_high_marginal=cf.cost("H", marginal_effort) + profile[i0].fee,
    )


TIE_COSTS = {
    "linear": LIN,
    "power": CostFamily.power(3.0, 1.0, 1.5),
    "tabulated": CostFamily.tabulated(
        [0.0, 0.5, 1.0, 2.0, 4.0], [0.0, 1.0, 2.2, 4.6, 9.5], [0.0, 0.5, 1.0, 2.0, 4.0]
    ),
}


def tie_corpus(cf, draws, rng):
    """Discrete draws where repeated fees and thresholds make ties common."""
    cases = []
    while len(cases) < draws:
        theta_h = float(rng.choice([1.0, 2.0, 3.0]))
        theta_l = float(rng.choice([-1.0, 0.0, 0.5, 1.0]))
        if theta_l >= theta_h:
            continue
        lam = float(rng.choice([0.25, 0.5, 0.75]))
        n = int(rng.integers(1, 4))
        params = MarketParams(theta_L=theta_l, theta_H=theta_h, lam=lam, cost=cf, n_schools=n)
        policies = []
        for _ in range(n):
            k = int(rng.integers(0, 3))
            ts = tuple(sorted(float(t) for t in rng.choice([0.25, 0.5, 0.75, 1.0, 1.5], size=k, replace=False)))
            mon = StepMonitoringPolicy(thresholds=ts, messages=tuple(range(k + 1)))
            policies.append(Policy(fee=float(rng.choice([0.0, 0.25, 0.5, 1.0])), monitoring=mon))
        cases.append((PolicyProfile.of(*policies), params))
    return cases


def riley_audit_profiles(n):
    """Every profile the audit of the riley outcome builds, for schools 0 and n - 1."""
    cases = []
    for theta_L in (1.0, -1.0):
        for cf in (LIN, TIE_COSTS["power"]):
            params = MarketParams(theta_L=theta_L, theta_H=2.0, lam=0.5, cost=cf, n_schools=n)
            outcome = riley_rpbe(params)
            grid = DeviationGrid.for_profile(outcome.profile, params)
            for fee, mon, _ in _audit_deviations(outcome, params, grid):
                for school in {0, n - 1}:
                    cases.append((outcome.profile.replace(school, Policy(fee=fee, monitoring=mon)), params))
    return cases


def steps(fee, *thresholds):
    return Policy(fee=fee, monitoring=StepMonitoringPolicy(thresholds, tuple(range(len(thresholds) + 1))))


def knife_edge_profiles():
    """Zero-fee profiles with bands at the knife edge t (the marginal effort),
    one ulp beyond it, at the frontier's cut t + DEFAULT_TOL (a low band) and
    one ulp beyond the cut (a high band), on separate or shared schools."""
    cases = []
    for cf, t in KNIFE_EDGES.values():
        params = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=cf)
        beyond = math.nextafter(t, math.inf)
        cut = t + DEFAULT_TOL
        past_cut = math.nextafter(cut, math.inf)
        for thresholds in ([t], [beyond], [t, t], [beyond, t], [t, beyond], [t, t, beyond]):
            prof = PolicyProfile.of(*(cutoff(0.0, x) for x in thresholds))
            cases.append((prof, params.with_(n_schools=prof.n)))
        for schools in (
            [(t,), (cut,)],
            [(t,), (past_cut,)],
            [(t, cut)],
            [(t, past_cut)],
            [(t, cut, past_cut)],
            [(cut,), (t, past_cut)],
            [(past_cut,), (beyond, cut), (t,)],
        ):
            prof = PolicyProfile.of(*(steps(0.0, *ts) for ts in schools))
            cases.append((prof, params.with_(n_schools=prof.n)))
    return cases


class TestFrontierEquivalence:
    """mimic_frontier classifies bands by index; the reference walks signals."""

    def check(self, cases):
        """Construction tags seen over the cases."""
        tags = set()
        for prof, params in cases:
            fr = mimic_frontier(prof, params)
            assert fr == signal_by_signal_frontier(prof, params)
            eq = construct_epbe(prof, params)
            tags.add(eq.construction_tag)
            assert set(eq.wages.offers) == set(eq.beliefs.mu_high) == set(prof.signals())
            pinned = set(fr.marginal_signals) if eq.construction_tag == "semi_pooling" else set()
            for s, w in eq.wages.offers.items():
                if s not in pinned:
                    assert w == wage_offer(eq.beliefs.mu(s), params)
        return tags

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_riley_audit_profiles(self, n):
        self.check(riley_audit_profiles(n))

    @pytest.mark.parametrize("kind", sorted(TIE_COSTS))
    def test_tie_corpus(self, kind):
        cases = tie_corpus(TIE_COSTS[kind], 200, np.random.default_rng(3))
        assert self.check(cases) == {"semi_pooling", "separating"}

    def test_knife_edges(self):
        assert self.check(knife_edge_profiles()) == {"semi_pooling", "separating"}


def reference_construct_epbe(profile, params, tol=DEFAULT_TOL):
    """construct_epbe as it read before each distinct policy was priced once:
    the frontier comes from signal_by_signal_frontier, every high signal is
    priced at its cheapest outlay c(H, min_effort) + fee before the pooling
    test, and the winners' efforts are read through min_effort again."""
    from sigmarket.market import bayes_high
    from sigmarket.subgame import _mixing_weight

    for i, p in enumerate(profile):
        if p.fee > params.theta_H + tol:
            raise InputError(f"school {i} fee {p.fee} exceeds theta_H={params.theta_H}")
    fr = signal_by_signal_frontier(profile, params, tol)
    cf = params.cost
    c_low_star = fr.cost_low_marginal
    c_high_star = fr.cost_high_marginal
    gain = params.theta_H - fr.u_low

    def reservation_atoms(weight):
        if params.theta_L - fr.f_min >= 0.0:
            cheapest = [i for i, p in enumerate(profile) if p.fee == fr.f_min]
            share = weight / len(cheapest)
            return [StrategyAtom(i, 0.0, share) for i in cheapest]
        return [StrategyAtom(None, 0.0, weight)]

    costs_high = {s: cf.cost("H", profile.min_effort(s)) + profile[s.school].fee for s in fr.high_signals}
    pooling = not any(gain > c - c_high_star + c_low_star + tol for c in costs_high.values())
    w_low, w_high = wage_offer(0.0, params), wage_offer(1.0, params)
    if pooling:
        w_bar = c_low_star + fr.u_low
        q, pooled_wage = _mixing_weight(w_bar, params, tol)
        share = 1.0 / len(fr.marginal_schools)
        high_atoms = [StrategyAtom(i, fr.marginal_effort, share) for i in fr.marginal_schools]
        low_atoms = []
        if q > 0.0:
            low_atoms.extend(StrategyAtom(i, fr.marginal_effort, q * share) for i in fr.marginal_schools)
        if q < 1.0:
            low_atoms.extend(reservation_atoms(1.0 - q))
        mu_star, w_star = bayes_high(1.0, q, params), pooled_wage
        payoff_H = pooled_wage - c_high_star
        payoff_L = pooled_wage - c_low_star if q >= 1.0 else fr.u_low
        tag = "semi_pooling"
    else:
        cheapest = min(costs_high.values())
        winners = sorted(s for s, c in costs_high.items() if c <= cheapest + tol)
        share = 1.0 / len(winners)
        high_atoms = [StrategyAtom(s.school, profile.min_effort(s), share) for s in winners]
        low_atoms = reservation_atoms(1.0)
        mu_star, w_star = 0.0, w_low
        payoff_H = params.theta_H - cheapest
        payoff_L = fr.u_low
        tag = "separating"
    beliefs = dict.fromkeys(fr.low_signals, 0.0)
    beliefs.update(dict.fromkeys(fr.marginal_signals, mu_star))
    beliefs.update(dict.fromkeys(fr.high_signals, 1.0))
    offers = dict.fromkeys(fr.low_signals, w_low)
    offers.update(dict.fromkeys(fr.marginal_signals, w_star))
    offers.update(dict.fromkeys(fr.high_signals, w_high))
    strategy = PopulationStrategy(low=tuple(low_atoms), high=tuple(high_atoms))
    return SubgameEquilibrium(profile, strategy, WageSchedule(offers), BeliefSystem(beliefs), payoff_L, payoff_H, tag)


def bench_audit_attempts(tmp_path, seed=5, stride=6):
    """(deviation profile, params) of every canonical deviation of every
    `stride`-th operation of the seed's bench audit pool, for each class's
    representative, with bench/workloads.py loaded by path.  Riley
    operations audit riley_rpbe, and planted ones their stored outcome, on
    the grid the bench uses."""
    import importlib.util
    import random
    from pathlib import Path

    from sigmarket import EquilibriumOutcome

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = workloads.Inputs(tmp_path)
    workloads._build_audit(random.Random(f"audit:{seed}"), inputs)
    attempts = []
    for op in inputs.ops[::stride]:
        params = MarketParams.from_dict(json.loads(Path(op["params"]).read_text()))
        if op["kind"] == "planted":
            outcome = EquilibriumOutcome.from_dict(json.loads(Path(op["outcome"]).read_text()))
        else:
            outcome = riley_rpbe(params)
        grid = DeviationGrid.for_profile(outcome.profile, params)
        for fee, mon, _ in _audit_deviations(outcome, params, grid):
            dev = Policy(fee=fee, monitoring=mon)
            attempts.extend((outcome.profile.replace(members[0], dev), params) for members in outcome.profile.classes().values())
    return attempts


def shared_policies(prof):
    """prof rebuilt from PolicyProfile.symmetric and replace so that equal
    policies are one object."""
    first = {}
    out = PolicyProfile.symmetric(prof[0], prof.n)
    for i, p in enumerate(prof):
        if p != prof[0]:
            out = out.replace(i, first.setdefault(p, p))
    return out


def distinct_policies(prof):
    """prof with every policy an equal but distinct object."""
    return PolicyProfile(tuple(Policy(p.fee, StepMonitoringPolicy(p.monitoring.thresholds, p.monitoring.messages)) for p in prof))


class TestConstructEquivalence:
    """construct_epbe prices each distinct policy object once and reads the
    policy tuple directly; reference_construct_epbe is the code it replaced.
    Bundles agree in every float, atom and dictionary order, and frontiers
    agree with signal_by_signal_frontier."""

    @staticmethod
    def check(prof, params, tol):
        eq = construct_epbe(prof, params, tol)
        ref = reference_construct_epbe(prof, params, tol)
        assert repr(eq.to_dict()) == repr(ref.to_dict())
        assert eq.construction_tag == ref.construction_tag
        assert list(eq.wages.offers.items()) == list(ref.wages.offers.items())
        assert list(eq.beliefs.mu_high.items()) == list(ref.beliefs.mu_high.items())
        assert mimic_frontier(prof, params, tol) == signal_by_signal_frontier(prof, params, tol)
        return eq.construction_tag

    def test_bench_audit_pool(self, tmp_path):
        attempts = bench_audit_attempts(tmp_path)
        assert {prof.n for prof, _ in attempts} == {2, 4, 8}
        for tol in (1e-9, 0.0):
            tags = Counter(self.check(prof, params, tol) for prof, params in attempts)
            assert tags["semi_pooling"] > 1000 and tags["separating"] > 100, tags

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    @pytest.mark.parametrize("rebuild", [shared_policies, distinct_policies])
    def test_knife_edges(self, tol, rebuild):
        cases = knife_edge_profiles()
        for cf, t in KNIFE_EDGES.values():  # n = 4 with one policy object repeated around a deviator
            params = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=cf, n_schools=4)
            for dev in (cutoff(0.0, math.nextafter(t, math.inf)), steps(0.0, t, math.nextafter(t + DEFAULT_TOL, math.inf))):
                cases.append((PolicyProfile.symmetric(cutoff(0.0, t), 4).replace(1, dev), params))
        tags = Counter()
        for prof, params in cases:
            rebuilt = rebuild(prof)
            assert rebuilt == prof
            tags[self.check(rebuilt, params, tol)] += 1
        assert set(tags) == {"semi_pooling", "separating"}

    def test_shared_policies_share_objects(self):
        prof = PolicyProfile.of(cutoff(0.0, 0.5), cutoff(0.0, 0.5), cutoff(0.0, 0.7), cutoff(0.0, 0.5))
        shared = shared_policies(prof)
        assert len({id(p) for p in shared}) == 2
        assert len({id(p) for p in distinct_policies(shared)}) == 4


class TestConstructEpbe:
    def test_monopoly_pooling_example(self, sorting):
        prof = PolicyProfile.of(uninformative(1.5))
        eq = construct_epbe(prof, sorting)
        assert eq.construction_tag == "semi_pooling"
        assert eq.strategy.enrollment("L", 0) == 1.0
        assert eq.strategy.enrollment("H", 0) == 1.0
        assert eq.wages.offer(Signal(0, 0)) == pytest.approx(1.5)
        assert eq.payoff_L == pytest.approx(0.0, abs=1e-9)
        assert eq.payoff_H == pytest.approx(0.0, abs=1e-9)

    def test_riley_at_school_example(self, sorting):
        # cutoff exactly at the low type's frontier: mixing weight drops to zero
        prof = PolicyProfile.of(cutoff(0.0, 0.5))
        eq = construct_epbe(prof, sorting)
        assert eq.construction_tag == "semi_pooling"
        low = {(a.school, a.effort): a.prob for a in eq.strategy.low}
        assert low == {(0, 0.0): 1.0}
        high = {(a.school, a.effort): a.prob for a in eq.strategy.high}
        assert high == {(0, 0.5): 1.0}
        assert eq.wages.offer(Signal(0, 1)) == pytest.approx(2.0)
        assert eq.wages.offer(Signal(0, 0)) == pytest.approx(1.0)

    def test_separating_example(self, sorting):
        prof = PolicyProfile.of(cutoff(0.0, 0.6))
        eq = construct_epbe(prof, sorting)
        assert eq.construction_tag == "separating"
        assert {(a.school, a.effort) for a in eq.strategy.high} == {(0, 0.6)}
        assert eq.payoff_H == pytest.approx(1.4)
        assert eq.payoff_L == pytest.approx(1.0)

    @pytest.mark.parametrize("tol", [-1e-9, -0.1, math.nan, math.inf])
    def test_negative_nan_or_infinite_tol_refused(self, screening, tol):
        """A negative or NaN tol used to leave no school within tol of the
        marginal effort, and min() of the empty achiever list raised a bare
        ValueError.  An infinite one made every school marginal, one that
        cannot attract the low type included (see the test below)."""
        prof = PolicyProfile.of(cutoff(0.0, 1.5), cutoff(0.0, 1.5))
        params = screening.with_(n_schools=2)
        for call in (mimic_frontier, construct_epbe):
            with pytest.raises(InputError, match=f"tol must be a finite number >= 0, got {tol!r}"):
                call(prof, params, tol)
        assert construct_epbe(prof, params, 0.0).construction_tag == "separating"

    def test_infinite_tol_no_longer_lists_a_signal_twice(self, sorting):
        """School 1's fee leaves the low type no budget there; tol = inf made
        it marginal at band -1 and listed signal 1:0 twice among the low ones."""
        prof = PolicyProfile.of(cutoff(0.0, 1.5), cutoff(1.5, 0.25))
        params = sorting.with_(n_schools=2)
        fr = mimic_frontier(prof, params, 1e300)
        assert fr.marginal_schools == (0,)
        assert sorted(fr.low_signals + fr.marginal_signals + fr.high_signals) == sorted(prof.signals())
        with pytest.raises(InputError, match="tol must be a finite number"):
            mimic_frontier(prof, params, math.inf)

    def test_tag_names_the_branch_at_the_knife_edge(self):
        """The pooled wage is theta_H, so q = 0 and the play separates, while
        construction_tag still names the semi-pooling branch (the README
        example)."""
        from sigmarket.subgame import pooling_tag

        params = MarketParams(theta_L=0.0, theta_H=1.0, lam=0.25, cost=LIN)
        eq = construct_epbe(PolicyProfile.of(cutoff(0.5, 0.25)), params)
        assert eq.strategy == PopulationStrategy(low=(StrategyAtom(None, 0.0, 1.0),), high=(StrategyAtom(0, 0.25, 1.0),))
        assert eq.construction_tag == "semi_pooling"
        assert pooling_tag(eq.strategy.signal_mass(eq.profile, "H"), eq.strategy.signal_mass(eq.profile, "L")) == "separating"

    def test_fee_above_theta_h_rejected(self, sorting):
        prof = PolicyProfile.of(uninformative(2.5))
        with pytest.raises(InputError):
            construct_epbe(prof, sorting)

    def test_case1_tie_goes_to_pooling(self, sorting):
        # high signal exactly at the indifference premium: weak branch pools
        # gain = theta_H - u_low = 1; need C_H(s') - C_H(s*) + C_L(s*) = 1
        # with s* at 0: C_H(s') = 1 -> threshold t with t = 1.0
        prof = PolicyProfile.of(cutoff(0.0, 1.0))
        eq = construct_epbe(prof, sorting)
        assert eq.construction_tag == "semi_pooling"


def random_profile(rng, params):
    e_r = 2.0  # generous span
    policies = []
    for _ in range(params.n_schools):
        k = int(rng.integers(0, 3))
        ts = tuple(sorted(set(round(t, 6) for t in rng.uniform(0.05, 1.4 * e_r, size=k))))
        fee = float(rng.uniform(0.0, 0.9 * params.theta_H))
        policies.append(
            Policy(fee=fee, monitoring=StepMonitoringPolicy(thresholds=ts, messages=tuple(range(len(ts) + 1))))
        )
    return PolicyProfile.of(*policies)


def random_params(rng):
    theta_h = float(rng.uniform(0.8, 3.5))
    theta_l = float(rng.uniform(-2.0, theta_h - 0.3))
    lam = float(rng.uniform(0.15, 0.85))
    kap_h = float(rng.uniform(0.3, 1.8))
    kap_l = kap_h + float(rng.uniform(0.1, 1.6))
    n = int(rng.integers(1, 3))
    return MarketParams(theta_L=theta_l, theta_H=theta_h, lam=lam, cost=CostFamily.linear(kap_l, kap_h), n_schools=n)


class TestConstructInvariants:
    """Randomized regression corpus: internal consistency of the construction."""

    def test_corpus_consistency(self):
        rng = np.random.default_rng(91)
        for _ in range(60):
            params = random_params(rng)
            prof = random_profile(rng, params)
            eq = construct_epbe(prof, params)

            for t in ("L", "H"):
                assert sum(a.prob for a in eq.strategy.atoms(t)) == pytest.approx(1.0, abs=1e-9)

            # on-path wages are the Bayes posterior given the strategy
            mass_h = eq.strategy.signal_mass(prof, "H")
            mass_l = eq.strategy.signal_mass(prof, "L")
            for s in set(mass_h) | set(mass_l):
                r = params.lam * mass_h.get(s, 0.0)
                q = (1.0 - params.lam) * mass_l.get(s, 0.0)
                posterior = (r * params.theta_H + q * params.theta_L) / (r + q)
                income = eq.wages.income(s)
                assert income == pytest.approx(max(posterior, 0.0), abs=1e-8)

            # stored payoffs match recomputation from primitives
            for t in ("L", "H"):
                recomputed = 0.0
                for a in eq.strategy.atoms(t):
                    if a.school is None:
                        continue
                    s = prof.signal_of(a.school, a.effort)
                    recomputed += a.prob * (
                        eq.wages.income(s) - prof[a.school].fee - params.cost.cost(t, a.effort)
                    )
                assert recomputed == pytest.approx(eq.payoff(t), abs=1e-8)

            # ordering of payoffs and the reservation floor
            f_min = min(p.fee for p in prof)
            assert eq.payoff_L >= max(0.0, params.theta_L - f_min) - 1e-9
            assert eq.payoff_H >= eq.payoff_L - 1e-9

    def test_pooled_wage_interval(self):
        # w_bar lies in [max(theta_L, f_min), theta_H] whenever case 1 runs
        rng = np.random.default_rng(17)
        seen = 0
        for _ in range(80):
            params = random_params(rng)
            prof = random_profile(rng, params)
            eq = construct_epbe(prof, params)
            if eq.construction_tag != "semi_pooling":
                continue
            seen += 1
            fr = mimic_frontier(prof, params)
            w_bar = fr.cost_low_marginal + fr.u_low
            f_min = min(p.fee for p in prof)
            assert max(params.theta_L, f_min) - 1e-9 <= w_bar <= params.theta_H + 1e-9
        assert seen > 10

    def test_corpus_verifies(self):
        rng = np.random.default_rng(4242)
        for _ in range(40):
            params = random_params(rng)
            prof = random_profile(rng, params)
            eq = construct_epbe(prof, params)
            assert verify_pbe(eq, params).passed
            assert verify_extended_d1(eq, params).passed


class TestSerialization:
    def test_equilibrium_round_trip(self, screening):
        prof = PolicyProfile.of(cutoff(0.0, 1.0), uninformative(0.2))
        eq = construct_epbe(prof, screening.with_(n_schools=2))
        back = SubgameEquilibrium.from_dict(eq.to_dict())
        assert back.to_dict() == eq.to_dict()
        assert back.payoff_H == eq.payoff_H

    @pytest.mark.parametrize("school", [-1, 2])
    def test_atom_at_a_school_outside_the_profile(self, screening, school):
        """signal_of would read school -1 as the last school and fail at 2;
        from_dict refuses both, naming the field."""
        params = screening.with_(n_schools=2)
        data = riley_rpbe(params).to_subgame(params).to_dict()
        data["strategy"]["H"][0]["school"] = school
        with pytest.raises(InputError, match=f"'strategy' sends students to school {school}; the profile has 2"):
            SubgameEquilibrium.from_dict(data)


class TestStrategyAtom:
    @given(st.one_of(st.none(), st.integers(0, 64)), st.floats(0.0, 10.0), st.floats(0.0, 1.0))
    def test_hashes_and_compares_as_the_plain_triple(self, school, effort, prob):
        a = StrategyAtom(school, effort, prob)
        assert hash(a) == hash((school, effort, prob))
        assert a == (school, effort, prob)
        assert a.to_dict() == {"school": school, "effort": effort, "prob": prob}

    def test_fields_are_read_only(self):
        a = StrategyAtom(0, 0.5, 1.0)
        for field in ("school", "effort", "prob"):
            with pytest.raises(AttributeError):
                setattr(a, field, 1)

    def test_round_trip_through_strategy(self):
        strat = PopulationStrategy(
            low=(StrategyAtom(0, 0.0, 0.25), StrategyAtom(None, 0.0, 0.75)), high=(StrategyAtom(1, 0.5, 1.0),)
        )
        back = PopulationStrategy.from_dict(json.loads(json.dumps(strat.to_dict())))
        assert back == strat
        assert all(type(a) is StrategyAtom for a in back.low + back.high)

    @pytest.mark.parametrize(
        "low, high, match",
        [
            ([], [(0, 0.0, 1.0)], "low-type strategy needs at least one atom"),
            ([(0, 0.0, 0.5)], [(0, 0.0, 1.0)], "low-type probabilities sum to 0.5, not 1"),
            ([(0, 0.0, 1.0)], [(0, 0.0, 1.5), (1, 0.0, -0.5)], "high-type probabilities must be nonnegative"),
            ([(0, 0.0, 0.5), (None, 0.1, 0.5)], [(0, 0.0, 1.0)], "outside-option atoms must carry zero effort"),
            # the checks run in order: sum, then sign, then outside effort
            ([(None, 0.1, 0.5), (0, 0.0, -0.1)], [(0, 0.0, 1.0)], "low-type probabilities sum to 0.4"),
            ([(None, 0.1, 1.5), (0, 0.0, -0.5)], [(0, 0.0, 1.0)], "low-type probabilities must be nonnegative"),
        ],
    )
    def test_from_dict_rejects(self, low, high, match):
        def atoms(triples):
            return [{"school": s, "effort": e, "prob": p} for s, e, p in triples]

        with pytest.raises(InputError, match=match):
            PopulationStrategy.from_dict({"L": atoms(low), "H": atoms(high)})
