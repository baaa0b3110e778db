import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

from sigmarket import (
    BeliefSystem,
    CostFamily,
    D1WageSets,
    DeviationGrid,
    InputError,
    MarketParams,
    Policy,
    PolicyProfile,
    PopulationStrategy,
    Signal,
    StepMonitoringPolicy,
    StrategyAtom,
    SubgameEquilibrium,
    WageInterval,
    WageSchedule,
    brute_force_equilibria,
    check_minimality,
    construct_epbe,
    d1_wage_sets,
    outcome_equivalent,
    riley_effort,
    riley_rpbe,
    strictly_included,
    verify_extended_d1,
    verify_pbe,
)
from sigmarket.market import bayes_high, wage_offer
from sigmarket.refinement import Violation

LIN = CostFamily.linear(2.0, 1.0)


def idle_equilibrium(profile, payoff_l=0.0, payoff_h=0.0):
    """Everybody outside; beliefs zero everywhere (for D1 set arithmetic)."""
    strat = PopulationStrategy(
        low=(StrategyAtom(None, 0.0, 1.0),), high=(StrategyAtom(None, 0.0, 1.0),)
    )
    offers = {s: 0.0 for s in profile.signals()}
    mus = {s: 0.0 for s in profile.signals()}
    return SubgameEquilibrium(
        profile=profile,
        strategy=strat,
        wages=WageSchedule(offers=offers),
        beliefs=BeliefSystem(mu_high=mus),
        payoff_L=payoff_l,
        payoff_H=payoff_h,
        construction_tag="separating",
    )


class TestD1WageSets:
    """The three documented interval examples, on theta bounds [0, 2]."""

    PARAMS = MarketParams(theta_L=0.0, theta_H=2.0, lam=0.5, cost=LIN)

    def profile(self, threshold):
        return PolicyProfile.of(Policy(fee=0.0, monitoring=StepMonitoringPolicy.cutoff(threshold)))

    def test_low_type_halfway(self):
        prof = self.profile(0.5)
        sets = d1_wage_sets(idle_equilibrium(prof), Signal(0, 1), "L", self.PARAMS)
        assert not sets.weak.empty and sets.weak.lower == pytest.approx(1.0)
        assert sets.weak.closed

    def test_high_type_free_deviation(self):
        prof = self.profile(0.5)
        sets = d1_wage_sets(idle_equilibrium(prof), Signal(0, 0), "H", self.PARAMS)
        assert not sets.weak.empty and sets.weak.lower == pytest.approx(0.0)

    def test_unaffordable_signal_empty(self):
        prof = self.profile(1.5)
        sets = d1_wage_sets(idle_equilibrium(prof), Signal(0, 1), "L", self.PARAMS)
        assert sets.weak.empty

    def test_on_path_signal_rejected(self, sorting):
        prof = self.profile(0.5)
        eq = construct_epbe(prof, sorting)
        sent = next(iter(eq.strategy.sent_signals(prof)))
        with pytest.raises(InputError):
            d1_wage_sets(eq, sent, "L", sorting)

    def test_strict_subset_of_weak_always(self):
        rng = np.random.default_rng(3)
        prof = self.profile(0.7)
        for _ in range(50):
            eq = idle_equilibrium(prof, payoff_l=float(rng.uniform(0, 2)), payoff_h=float(rng.uniform(0, 2)))
            for t in ("L", "H"):
                sets = d1_wage_sets(eq, Signal(0, 1), t, self.PARAMS)
                if sets.weak.empty:
                    assert sets.strict.empty
                elif not sets.strict.empty:
                    assert sets.strict.lower >= sets.weak.lower - 1e-12

    def test_verdict_flips_at_the_bound(self):
        """Exclusion toggles as the rival payoff crosses the threshold by 1e-6."""
        prof = self.profile(0.5)
        threshold_gap = LIN.cost("L", 0.5) - LIN.cost("H", 0.5)  # 0.5
        base = idle_equilibrium(prof, payoff_l=0.0, payoff_h=threshold_gap)
        s = Signal(0, 1)
        at = {
            t: d1_wage_sets(base, s, t, self.PARAMS) for t in ("L", "H")
        }
        # exactly at the boundary: no exclusion (ties are not strict)
        assert not strictly_included(at["L"].weak, at["H"].strict)
        below = idle_equilibrium(prof, payoff_l=0.0, payoff_h=threshold_gap - 1e-6)
        sets_b = {t: d1_wage_sets(below, s, t, self.PARAMS) for t in ("L", "H")}
        assert strictly_included(sets_b["L"].weak, sets_b["H"].strict)
        above = idle_equilibrium(prof, payoff_l=0.0, payoff_h=threshold_gap + 1e-6)
        sets_a = {t: d1_wage_sets(above, s, t, self.PARAMS) for t in ("L", "H")}
        assert not strictly_included(sets_a["L"].weak, sets_a["H"].strict)

    def test_strictly_included_with_an_empty_side(self):
        empty = WageInterval(lower=2.0, closed=True, empty=True)
        full = WageInterval(lower=0.5, closed=True, empty=False)
        assert strictly_included(empty, full)
        assert not strictly_included(full, empty)
        assert not strictly_included(empty, empty)

    def test_fields_are_read_only(self):
        sets = D1WageSets(
            weak=WageInterval(lower=1.0, closed=True, empty=False),
            strict=WageInterval(lower=1.0, closed=False, empty=False),
        )
        with pytest.raises(AttributeError):
            sets.weak = sets.strict
        with pytest.raises(AttributeError):
            sets.weak.lower = 0.0

    def test_values_of_the_documented_cases(self):
        def sets(threshold, s, t):
            prof = self.profile(threshold)
            return d1_wage_sets(idle_equilibrium(prof), s, t, self.PARAMS)

        assert sets(0.5, Signal(0, 1), "L") == D1WageSets(WageInterval(1.0, True, False), WageInterval(1.0, False, False))
        assert sets(0.5, Signal(0, 0), "H") == D1WageSets(WageInterval(0.0, True, False), WageInterval(0.0, False, False))
        assert sets(1.5, Signal(0, 1), "L") == D1WageSets(WageInterval(3.0, True, True), WageInterval(3.0, False, True))


class TestVerifyPbe:
    def test_constructed_pooling_passes(self, sorting):
        prof = PolicyProfile.of(Policy(fee=1.5, monitoring=StepMonitoringPolicy.uninformative()))
        eq = construct_epbe(prof, sorting)
        assert verify_pbe(eq, sorting).passed

    def test_wage_belief_mismatch_flagged(self, sorting):
        prof = PolicyProfile.of(Policy(fee=1.5, monitoring=StepMonitoringPolicy.uninformative()))
        eq = construct_epbe(prof, sorting)
        bad = SubgameEquilibrium(
            profile=prof,
            strategy=eq.strategy,
            wages=WageSchedule(offers={Signal(0, 0): 2.0}),
            beliefs=eq.beliefs,
            payoff_L=eq.payoff_L,
            payoff_H=eq.payoff_H,
            construction_tag=eq.construction_tag,
        )
        report = verify_pbe(bad, sorting)
        assert not report.passed
        assert any(v.kind == "wage_belief_consistency" for v in report.violations)

    def test_excess_effort_flagged(self, screening):
        out = riley_rpbe(screening.with_(n_schools=2))
        eq = out.to_subgame(screening)
        e_r = riley_effort(screening)
        bumped = PopulationStrategy(
            low=eq.strategy.low,
            high=tuple(StrategyAtom(a.school, e_r + 0.1, a.prob) for a in eq.strategy.high),
        )
        bad = SubgameEquilibrium(
            profile=eq.profile,
            strategy=bumped,
            wages=eq.wages,
            beliefs=eq.beliefs,
            payoff_L=eq.payoff_L,
            payoff_H=eq.payoff_H,
            construction_tag="separating",
        )
        report = verify_pbe(bad, screening)
        assert not report.passed
        assert any(v.kind == "student_best_response" for v in report.violations)


def riley_bundle(params):
    """Certified duopoly riley bundle: every signal has an offer under sorting,
    and under screening the low type stays out and only the cutoff messages
    are sent."""
    out = riley_rpbe(params.with_(n_schools=2))
    eq = out.to_subgame(params)
    assert verify_pbe(eq, params).passed
    return eq


def tampered(eq, offers=None, beliefs=None, high=None):
    """A copy of eq with some wage offers, beliefs or high-type atoms replaced."""
    return dataclasses.replace(
        eq,
        wages=WageSchedule(offers={**eq.wages.offers, **(offers or {})}),
        beliefs=BeliefSystem(mu_high={**eq.beliefs.mu_high, **(beliefs or {})}),
        strategy=eq.strategy if high is None else PopulationStrategy(low=eq.strategy.low, high=high),
    )


class TestTamperedBundles:
    """Each verifier branch catches one tampering of a certified bundle."""

    def test_belief_outside_the_unit_interval(self, sorting):
        bad = tampered(riley_bundle(sorting), beliefs={Signal(0, 0): 1.5})
        violations = verify_pbe(bad, sorting).violations
        assert Violation("wage_belief_consistency", Signal(0, 0), 0.5) in violations

    def test_no_offer_at_a_positive_posterior(self, sorting):
        # belief 0 at (0, 0) has posterior mean theta_L = 1, so some offer is due
        bad = tampered(riley_bundle(sorting), offers={Signal(0, 0): None})
        violations = verify_pbe(bad, sorting).violations
        assert Violation("wage_belief_consistency", Signal(0, 0), 1.0) in violations

    def test_belief_off_bayes_on_path(self, sorting):
        # only high types send (0, 1); belief and wage agree with each other, not with Bayes
        bad = tampered(riley_bundle(sorting), offers={Signal(0, 1): 1.5}, beliefs={Signal(0, 1): 0.5})
        violations = verify_pbe(bad, sorting).violations
        assert Violation("bayes_on_path", Signal(0, 1), 0.5) in violations
        assert not any(v.kind == "wage_belief_consistency" for v in violations)

    def test_equivalence_needs_the_same_atom_count(self, screening):
        # every share and matched atom moves by less than the share tolerance, so
        # only the third atom, above the tolerance and in an already sent band, tells
        eq = riley_bundle(screening)
        (school0, e, p0), (school1, _, p1) = eq.strategy.high
        d = 0.9e-6
        extra = (
            StrategyAtom(school0, e, p0 - d),
            StrategyAtom(school1, e, p1 - d),
            StrategyAtom(school1, e + 1.0, 2 * d),
        )
        assert outcome_equivalent(eq, eq)
        assert not outcome_equivalent(eq, tampered(eq, high=extra))

    def test_equivalence_needs_the_same_sent_signals(self, screening):
        # a sliver below the share tolerance leaves every share and atom alike but sends (0, 0)
        eq = riley_bundle(screening)
        (school0, e, p), rest = eq.strategy.high[0], eq.strategy.high[1:]
        sliver = 1e-7
        moved = tampered(eq, high=(StrategyAtom(school0, e, p - sliver), *rest, StrategyAtom(school0, 0.0, sliver)))
        assert Signal(0, 0) in moved.strategy.sent_signals(eq.profile) - eq.strategy.sent_signals(eq.profile)
        assert not outcome_equivalent(eq, moved)

    def test_equivalence_needs_an_offer_where_the_other_makes_one(self, screening):
        eq = riley_bundle(screening)
        assert not outcome_equivalent(eq, tampered(eq, offers={Signal(0, 1): None}))

    def test_equivalence_needs_close_wages(self, screening):
        eq = riley_bundle(screening)
        assert not outcome_equivalent(eq, tampered(eq, offers={Signal(0, 1): 2.0 + 1e-3}))

    def test_equivalence_needs_the_same_profile(self, screening):
        # same play and wages, but school 1 posts another fee: a bundle of another subgame
        eq = riley_bundle(screening)
        other = dataclasses.replace(eq, profile=eq.profile.replace(1, dataclasses.replace(eq.profile[1], fee=0.25)))
        assert outcome_equivalent(other, other)
        assert not outcome_equivalent(eq, other) and not outcome_equivalent(other, eq)


class TestVerifyExtendedD1:
    def test_punishing_belief_below_frontier_violates(self, screening):
        """A cheap unsent message cannot carry a low-type belief when the
        low type is priced out of it but the high type is not."""
        e_r = riley_effort(screening)
        prof = PolicyProfile.of(
            Policy(fee=0.0, monitoring=StepMonitoringPolicy(thresholds=(0.05, e_r), messages=(0, 1, 2)))
        )
        eq = construct_epbe(prof, screening)
        # construct assigns mu=0 below the marginal band; plant an unsent
        # mid-band contradiction by moving the high types' payoff down
        sabotaged = SubgameEquilibrium(
            profile=prof,
            strategy=eq.strategy,
            wages=eq.wages,
            beliefs=eq.beliefs,
            payoff_L=eq.payoff_L,
            payoff_H=-0.4,  # now the mid band rationalizes only high wages for H
            construction_tag=eq.construction_tag,
        )
        report = verify_extended_d1(sabotaged, screening)
        assert not report.passed
        assert all(v.kind == "d1_belief" for v in report.violations)

    def test_pessimistic_no_enrollment_fails_under_tuned_fee(self, screening):
        """The surplus-extracting deviation: a cutoff at eps with a fee only
        the high type can clear.  The 'nobody enrolls, beliefs stay low'
        candidate puts weight on an excluded type and must be flagged."""
        eps, gamma = 0.01, 0.001
        fee = screening.theta_H - LIN.cost("H", eps) - gamma
        prof = PolicyProfile.of(Policy(fee=fee, monitoring=StepMonitoringPolicy.cutoff(eps)))
        eq = idle_equilibrium(prof)  # both types outside, mu = 0 everywhere
        report = verify_extended_d1(eq, screening)
        assert not report.passed
        assert [v.signal for v in report.violations] == [Signal(0, 1)]

    def test_riley_bundle_passes(self, screening):
        out = riley_rpbe(screening.with_(n_schools=2))
        eq = out.to_subgame(screening)
        assert verify_extended_d1(eq, screening).passed

    def test_cost_advantage_widens_high_wage_sets(self):
        """weak(H) contains weak(L) at any costly unsent signal whenever the
        high type's payoff deficit stays within the cost gap."""
        rng = np.random.default_rng(11)
        params = MarketParams(theta_L=0.2, theta_H=2.5, lam=0.5, cost=LIN)
        for _ in range(60):
            e = float(rng.uniform(0.05, 1.2))
            prof = PolicyProfile.of(Policy(fee=float(rng.uniform(0, 1)), monitoring=StepMonitoringPolicy.cutoff(e)))
            u_l = float(rng.uniform(0.0, 1.5))
            gap = LIN.cost("L", e) - LIN.cost("H", e)
            u_h = u_l + float(rng.uniform(0.0, gap))
            eq = idle_equilibrium(prof, payoff_l=u_l, payoff_h=u_h)
            sets_l = d1_wage_sets(eq, Signal(0, 1), "L", params)
            sets_h = d1_wage_sets(eq, Signal(0, 1), "H", params)
            if sets_l.weak.empty:
                continue
            assert not sets_h.weak.empty
            assert sets_h.weak.lower <= sets_l.weak.lower + 1e-12

    def test_vacuous_without_unsent_signals(self, sorting):
        prof = PolicyProfile.of(Policy(fee=1.5, monitoring=StepMonitoringPolicy.uninformative()))
        eq = construct_epbe(prof, sorting)
        assert verify_extended_d1(eq, sorting).passed


class TestCheckMinimality:
    def test_pooled_single_message_passes(self, sorting):
        prof = PolicyProfile.of(Policy(fee=1.5, monitoring=StepMonitoringPolicy.uninformative()))
        eq = construct_epbe(prof, sorting)
        assert check_minimality(eq, sorting).passed

    def test_riley_two_messages_pass_both_regimes(self, sorting, screening):
        for params in (sorting, screening):
            out = riley_rpbe(params.with_(n_schools=2))
            eq = out.to_subgame(params)
            assert check_minimality(eq, params).passed

    def test_unsent_third_message_flagged(self, sorting):
        # separating outcome on a three-band policy: the middle band is waste
        prof = PolicyProfile.of(
            Policy(fee=0.0, monitoring=StepMonitoringPolicy(thresholds=(0.3, 0.6), messages=(0, 1, 2)))
        )
        eq = construct_epbe(prof, sorting)
        sent = eq.strategy.sent_signals(prof)
        assert Signal(0, 1) not in sent
        report = check_minimality(eq, sorting)
        assert not report.passed
        assert report.violations[0].kind == "minimality"

    def test_cascading_reduction_counts_removable_messages(self, sorting):
        # four bands, two sent: both stray bands merge away, gap reports two
        pol = StepMonitoringPolicy(thresholds=(0.2, 0.35, 0.9), messages=(0, 1, 2, 3))
        prof = PolicyProfile.of(Policy(fee=0.0, monitoring=pol))
        eq = construct_epbe(prof, sorting)
        assert {s.message for s in eq.strategy.sent_signals(prof)} == {0, 2}
        report = check_minimality(eq, sorting)
        assert not report.passed
        assert report.violations[0].gap == 2.0


class TestBruteForce:
    def test_monopoly_pooling_is_found(self, sorting):
        prof = PolicyProfile.of(Policy(fee=1.5, monitoring=StepMonitoringPolicy.uninformative()))
        eqs = brute_force_equilibria(prof, sorting)
        target = construct_epbe(prof, sorting)
        assert any(outcome_equivalent(target, eq) for eq in eqs)

    def test_riley_outcome_is_found(self, screening):
        out = riley_rpbe(screening.with_(n_schools=2))
        eqs = brute_force_equilibria(out.profile, screening)
        bundle = out.to_subgame(screening)
        assert any(outcome_equivalent(bundle, eq) for eq in eqs)

    def test_fee_above_surplus_yields_nothing(self, sorting):
        # fee admissible (= theta_H) but the outside option weakly dominates:
        # only no-enrollment-style outcomes remain, never positive enrollment
        prof = PolicyProfile.of(Policy(fee=2.0, monitoring=StepMonitoringPolicy.uninformative()))
        eqs = brute_force_equilibria(prof, sorting)
        for eq in eqs:
            assert eq.strategy.enrollment_total("L") == pytest.approx(0.0, abs=1e-9)
        over = PolicyProfile.of(Policy(fee=2.4, monitoring=StepMonitoringPolicy.uninformative()))
        assert brute_force_equilibria(over, sorting) == []

    def test_members_self_verify(self, screening):
        params = screening.with_(n_schools=2)
        prof = PolicyProfile.of(
            Policy(fee=0.2, monitoring=StepMonitoringPolicy.cutoff(0.5)),
            Policy(fee=0.0, monitoring=StepMonitoringPolicy.cutoff(0.9)),
        )
        eqs = brute_force_equilibria(prof, params)
        assert eqs
        for eq in eqs:
            assert verify_pbe(eq, params).passed
            assert verify_extended_d1(eq, params).passed

    def test_oracle_rediscovers_semipooling_mix(self):
        """On a pooling-band profile, the enumerator independently finds a
        member with high types split across two effort levels, at the same
        type payoffs the closed-form family produces."""
        from sigmarket import semipooling_family

        params = MarketParams(
            theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.8), n_schools=2
        )
        member = semipooling_family(params, "zero_fee", q_h=0.8)[0]
        prof = member.profile
        oracle = brute_force_equilibria(prof, params)
        mixes = [
            o
            for o in oracle
            if len({round(a.effort, 6) for a in o.strategy.high}) == 2
            and o.construction_tag == "semi_pooling"
        ]
        assert mixes
        for o in mixes:
            assert o.payoff_L == pytest.approx(member.payoffs[0], abs=1e-6)
            assert o.payoff_H == pytest.approx(member.payoffs[1], abs=1e-6)

    def test_deterministic_order(self, sorting):
        params = sorting.with_(n_schools=2)
        prof = PolicyProfile.of(
            Policy(fee=0.1, monitoring=StepMonitoringPolicy.cutoff(0.4)),
            Policy(fee=0.0, monitoring=StepMonitoringPolicy.uninformative()),
        )
        first = [eq.to_dict() for eq in brute_force_equilibria(prof, params)]
        second = [eq.to_dict() for eq in brute_force_equilibria(prof, params)]
        assert first == second

    def test_action_count_and_support_cap(self, sorting, monkeypatch):
        from sigmarket import refinement

        def profile(n_actions):
            # the outside option plus one action per band
            thresholds = tuple(0.05 * k for k in range(1, n_actions - 1))
            return PolicyProfile.of(
                Policy(fee=0.0, monitoring=StepMonitoringPolicy(thresholds, tuple(range(len(thresholds) + 1))))
            )

        for n in (2, 4, refinement.MAX_ORACLE_ACTIONS + 1):
            assert refinement.oracle_actions(profile(n)) == n == len(refinement._candidate_actions(profile(n), sorting))
        # the cap bounds oracle-compare requests; the library enumerates past it
        monkeypatch.setattr(refinement, "MAX_ORACLE_ACTIONS", 2)
        assert brute_force_equilibria(profile(4), sorting)


def grid_scan_verify_pbe(profile, eq, params, grid, tol=1e-9):
    """Reference verify_pbe with the grid-scan best response: every school at
    every grid effort.  Everything after the best response is unchanged."""
    from sigmarket.refinement import VerificationReport, Violation

    def payoff(t, school, effort):
        if school is None:
            return 0.0
        s = profile.signal_of(school, effort)
        return eq.wages.income(s) - profile[school].fee - params.cost.cost(t, effort)

    violations = []
    for t in ("L", "H"):
        best = 0.0
        for i in range(profile.n):
            for e in grid.effort_grid:
                best = max(best, payoff(t, i, e))
        recomputed = 0.0
        for atom in eq.strategy.atoms(t):
            pay = payoff(t, atom.school, atom.effort)
            recomputed += atom.prob * pay
            if pay < best - tol:
                sig = None if atom.school is None else profile.signal_of(atom.school, atom.effort)
                violations.append(Violation("student_best_response", sig, best - pay, f"type {t}"))
        if abs(recomputed - eq.payoff(t)) > max(tol, 1e-9):
            violations.append(
                Violation(
                    "student_best_response",
                    None,
                    abs(recomputed - eq.payoff(t)),
                    f"stored payoff for type {t} off by recomputation",
                )
            )
    for s in profile.signals():
        mu = eq.beliefs.mu(s)
        if not -tol <= mu <= 1.0 + tol:
            violations.append(Violation("wage_belief_consistency", s, abs(mu - 0.5) - 0.5))
            continue
        posterior = mu * params.theta_H + (1.0 - mu) * params.theta_L
        offer = eq.wages.offer(s)
        if offer is None:
            if posterior > tol:
                violations.append(Violation("wage_belief_consistency", s, posterior))
        elif abs(offer - posterior) > tol:
            violations.append(Violation("wage_belief_consistency", s, abs(offer - posterior)))
    mass_high = eq.strategy.signal_mass(profile, "H")
    mass_low = eq.strategy.signal_mass(profile, "L")
    for s in set(mass_high) | set(mass_low):
        r = params.lam * mass_high.get(s, 0.0)
        q = (1.0 - params.lam) * mass_low.get(s, 0.0)
        mu_hat = r / (r + q)
        if abs(eq.beliefs.mu(s) - mu_hat) > tol:
            violations.append(Violation("bayes_on_path", s, abs(eq.beliefs.mu(s) - mu_hat)))
    return VerificationReport.from_violations(violations)


def price_on_path(params, sup_h, w_h, sup_l, w_l):
    """A weighted support pair priced on path in full: (mass_high, mass_low,
    Bayes beliefs and their wages at every sent signal (_price_on_path), each
    type's pay at each of its support actions)."""
    from sigmarket.refinement import _price_on_path, _signal_mass

    mass_high, mass_low = _signal_mass(sup_h, w_h), _signal_mass(sup_l, w_l)
    beliefs, offers = _price_on_path(mass_high, mass_low, params)

    def pay(t, a):
        return 0.0 if a.signal is None else ((0.0 if (w := offers[a.signal]) is None else w) - a.fee) - a.cost[t]

    return mass_high, mass_low, beliefs, offers, {t: [pay(t, a) for a in sup] for t, sup in (("L", sup_l), ("H", sup_h))}


def floor_refuses(params, actions, offers, pays, tol):
    """The reference floor pass: a pair priced on path (price_on_path), every
    signal it does not send read at the floor wage wage_offer(0), then
    _best_response_gaps for each type's support pays."""
    from sigmarket.refinement import _best_response_gaps

    floor = wage_offer(0.0, params)
    nets = [(0.0 if (w := offers.get(a.signal, floor)) is None else w) - a.fee for a in actions[1:]]
    return any(_best_response_gaps(nets, [a.cost[t] for a in actions[1:]], pays[t], tol) for t in ("L", "H"))


def priced_pairs(profile, params, tol=1e-9):
    """The oracle's candidates by definition: every weighted pair it
    enumerates, priced with Bayes beliefs on path and punishing D1 beliefs
    off path (_price_off_path), as (bundle, whether the reference floor pass
    refuses it before D1 pricing)."""
    from sigmarket.refinement import _candidate_actions, _price_off_path, _weighted_pairs

    actions = _candidate_actions(profile, params)
    for sup_h, w_h, sup_l, w_l in _weighted_pairs(params, actions, tol):
        mass_high, mass_low, beliefs, offers, pays = price_on_path(params, sup_h, w_h, sup_l, w_l)
        at_floor = floor_refuses(params, actions, offers, pays, tol)
        _price_off_path(params, actions, {t: vals[0] for t, vals in pays.items()}, beliefs, offers, tol)
        low, high = (tuple(StrategyAtom(a.school, a.effort, w) for a, w in zip(sup, ws)) for sup, ws in ((sup_l, w_l), (sup_h, w_h)))
        strategy = PopulationStrategy(low=low, high=high)
        tag = "semi_pooling" if set(mass_high) & set(mass_low) else "separating"
        bundle = SubgameEquilibrium(profile, strategy, WageSchedule(offers), BeliefSystem(beliefs), pays["L"][0], pays["H"][0], tag)
        yield bundle, at_floor


def best_response_fails(eq, params, tol=1e-9):
    return any(v.kind == "student_best_response" for v in verify_pbe(eq, params, tol).violations)


def record_oracle_verdicts(monkeypatch) -> list[bool]:
    """The passed flag of every verify_pbe and verify_extended_d1 report that
    brute_force_equilibria receives from here on (the names in refinement
    are patched; the tests' own verifier calls are not recorded)."""
    from sigmarket import refinement

    verdicts = []
    for name in ("verify_pbe", "verify_extended_d1"):

        def recorded(*args, verify=getattr(refinement, name), **kwargs):
            report = verify(*args, **kwargs)
            verdicts.append(report.passed)
            return report

        monkeypatch.setattr(refinement, name, recorded)
    return verdicts


def defined_oracle(profile, params, tol):
    """brute_force_equilibria by its definition: the fully priced candidates
    (priced_pairs) that pass both verifiers, in enumeration order."""
    return [
        eq.to_dict()
        for eq, _ in priced_pairs(profile, params, tol)
        if verify_pbe(eq, params, tol).passed and verify_extended_d1(eq, params, tol).passed
    ]


class TestExactBestResponse:
    """verify_pbe takes each type's best deviation over band-minimum efforts;
    on a threshold-covering grid that is the same float as scanning the grid."""

    TABLE = CostFamily.tabulated(
        [0.5 * j for j in range(9)], [2.0 * (0.5 * j) ** 1.5 for j in range(9)], [(0.5 * j) ** 1.5 for j in range(9)]
    )
    COSTS = (LIN, CostFamily.power(2.0, 1.0, 1.5), TABLE)
    MARKETS = ((0.5, 0.5), (-1.0, 0.4))  # (theta_L, lam): sorting, screening

    @staticmethod
    def policy(fee, *thresholds):
        return Policy(fee=fee, monitoring=StepMonitoringPolicy(tuple(thresholds), tuple(range(len(thresholds) + 1))))

    def profiles(self):
        p = self.policy
        fixed = [
            PolicyProfile.of(p(0.0)),
            PolicyProfile.of(p(0.25, 0.5)),
            PolicyProfile.of(p(0.1, 0.3, 0.9), p(0.0, 0.6)),
            PolicyProfile.of(p(0.5, 0.4), p(0.0), p(0.2, 0.4, 1.1)),
        ]
        # tie-style draws: repeated fees and thresholds make identical schools
        rng = np.random.default_rng(7)
        ties = [
            PolicyProfile.of(
                *(
                    p(float(rng.choice([0.0, 0.25, 0.5, 1.0])), *sorted(map(float, rng.choice([0.25, 0.5, 0.75, 1.0, 1.5], k, replace=False))))
                    for k in rng.integers(0, 3, size=n)
                )
            )
            for n in (2, 3, 3)
        ]
        return fixed + ties

    def test_matches_grid_scan_on_every_oracle_candidate(self):
        checked = failing = 0
        for cost in self.COSTS:
            for theta_l, lam in self.MARKETS:
                params = MarketParams(theta_L=theta_l, theta_H=2.0, lam=lam, cost=cost)
                for prof in self.profiles():
                    grids = [DeviationGrid.for_profile(prof, params, n_points=k) for k in (4, 15, 21)]
                    for eq, _ in priced_pairs(prof, params):
                        exact = verify_pbe(eq, params).to_dict()
                        for grid in grids:
                            assert exact == grid_scan_verify_pbe(prof, eq, params, grid).to_dict()
                            checked += 1
                            failing += any(v["kind"] == "student_best_response" for v in exact["violations"])
        assert failing > 1000 and checked - failing > 100

    def test_oracle_refuses_exactly_the_best_response_failures(self, monkeypatch):
        """The oracle's screen and D1 re-test refuse a pair if and only if
        verify_pbe reports a student_best_response violation for the fully
        priced candidate: brute_force_equilibria hands verify_pbe exactly the
        other candidates, in order.  At tol = 0 a kept candidate's support
        pays exactly its best payoff, so the comparison's strictness shows
        too."""
        from sigmarket import refinement

        verified = []
        verify = refinement.verify_pbe
        monkeypatch.setattr(refinement, "verify_pbe", lambda eq, *a: verified.append(eq.to_dict()) or verify(eq, *a))
        refused = kept = 0
        for cost in self.COSTS:
            for theta_l, lam in self.MARKETS:
                params = MarketParams(theta_L=theta_l, theta_H=2.0, lam=lam, cost=cost)
                for prof, tol in itertools.product(self.profiles(), (1e-9, 0.0)):
                    fails = [(eq, best_response_fails(eq, params, tol)) for eq, _ in priced_pairs(prof, params, tol)]
                    verified.clear()
                    refinement.brute_force_equilibria(prof, params, tol)
                    assert verified == [eq.to_dict() for eq, refuses in fails if not refuses]
                    refused += sum(refuses for _, refuses in fails)
                    kept += len(verified)
        assert refused > 1000 and kept > 100

    def test_floor_screen_refuses_only_what_the_reject_refuses(self):
        """Reading every unsent signal at the floor wage wage_offer(0) never
        raises a net above its D1-priced value, so a candidate the screen
        refuses before D1 pricing is one the full reject refuses too."""
        screened = passed = 0
        for cost in self.COSTS:
            for theta_l, lam in self.MARKETS:
                params = MarketParams(theta_L=theta_l, theta_H=2.0, lam=lam, cost=cost)
                for prof, tol in itertools.product(self.profiles(), (1e-9, 0.0)):
                    for eq, at_floor in priced_pairs(prof, params, tol):
                        refuses = best_response_fails(eq, params, tol)
                        assert refuses or not at_floor
                        screened += at_floor
                        passed += not refuses
        assert screened > 1000 and passed > 100

    def cases(self):
        """(profile, params) over the corpus, tie_three, and the market
        `below`, where a pooled signal's Bayes wage rounds one ulp below the
        floor wage."""
        cases = [
            (prof, MarketParams(theta_L=theta_l, theta_H=2.0, lam=lam, cost=cost))
            for cost in self.COSTS
            for theta_l, lam in self.MARKETS
            for prof in self.profiles()
        ]
        below = MarketParams(theta_L=0.1, theta_H=0.100000000000001, lam=6.907478462473493e-17, cost=LIN)
        assert wage_offer(bayes_high(0.5, 0.5, below), below) < wage_offer(0.0, below)
        cases += [(PolicyProfile.of(*[self.policy(0.0)] * n), below) for n in (1, 3)]
        tie_three = (
            PolicyProfile.of(*[self.policy(0.25, 0.5)] * 3),
            MarketParams(theta_L=0.5, theta_H=2.0, lam=0.5, cost=LIN, n_schools=3),
        )
        return cases + [tie_three]

    def test_table_screen_refuses_exactly_what_the_floor_pass_refuses(self):
        """_screen, reading the pair's sent signals and _floor_table, refuses
        a pair if and only if the reference floor pass does, and prices a
        pair it passes exactly as price_on_path does.  The cases hold tables
        shorter than their depth (one-signal profiles), no floor wage
        (theta_L < 0), pairs that send every signal, and tied table values.
        In the market `below` a sent signal must be read at its Bayes wage
        even where its floor value heads the table."""
        from sigmarket.refinement import _candidate_actions, _floor_table, _screen, _weighted_pairs

        seen = dict.fromkeys(("refused", "passed", "short", "no_floor", "sends_all", "tied"), 0)
        for (prof, params), tol in itertools.product(self.cases(), (1e-9, 0.0)):
            actions = _candidate_actions(prof, params)
            table = _floor_table(params, actions)
            values = [v for v, _ in table["L"] + table["H"]]
            for sup_h, w_h, sup_l, w_l in _weighted_pairs(params, actions, tol):
                priced = price_on_path(params, sup_h, w_h, sup_l, w_l)
                reference = floor_refuses(params, actions, priced[3], priced[4], tol)
                screened = _screen(params, table, sup_h, w_h, sup_l, w_l, tol)
                assert screened == (None if reference else priced)
                seen["refused" if reference else "passed"] += 1
                seen["short"] += len(actions) - 1 < 5
                seen["no_floor"] += params.theta_L < 0
                seen["sends_all"] += {a.signal for a in sup_h + sup_l} >= {a.signal for a in actions[1:]}
                seen["tied"] += len(set(values)) < len(values)
        assert seen["refused"] > 1000 and seen["passed"] > 100
        assert all(seen.values()), seen

    def test_oracle_is_its_definition(self, monkeypatch):
        """brute_force_equilibria equals, member by member and in order, the
        fully priced candidates that pass both verifiers (defined_oracle).
        Its closing verify_pbe and verify_extended_d1 calls never refuse."""
        verdicts = record_oracle_verdicts(monkeypatch)
        members = 0
        for (prof, params), tol in itertools.product(self.cases(), (1e-9, 0.0)):
            oracle = [eq.to_dict() for eq in brute_force_equilibria(prof, params, tol)]
            assert oracle == defined_oracle(prof, params, tol)
            members += len(oracle)
        assert members > 100
        assert all(verdicts) and len(verdicts) == 2 * members

    def test_oracle_is_its_definition_at_a_knife_edge(self):
        """Two identical schools at tol = 0.  Six members price the unsent
        twin of their top band at belief 1, yet U_H + f + c_H there rounds
        one ulp below theta_H, so the high type does not gain by it: a
        belief-1 signal alone does not refuse a pair."""
        params = MarketParams(
            theta_L=0.8902561089040905, theta_H=2.9154245987733325, lam=0.5,
            cost=CostFamily.linear(2.4552986153723237, 1.0149510169889495), n_schools=2,
        )  # fmt: skip
        policy = Policy(fee=0.09322504444002822, monitoring=StepMonitoringPolicy.cutoff(1.9292050963806013))
        prof = PolicyProfile.of(policy, policy)
        for tol, count, raised in ((0.0, 12, 6), (1e-9, 16, 0)):
            oracle = brute_force_equilibria(prof, params, tol)
            assert [eq.to_dict() for eq in oracle] == defined_oracle(prof, params, tol)
            unsent = [[s for s in prof.signals() if s not in eq.strategy.sent_signals(prof)] for eq in oracle]
            assert len(oracle) == count
            assert sum(any(eq.beliefs.mu(s) == 1.0 for s in sig) for eq, sig in zip(oracle, unsent)) == raised

    def test_oracle_is_its_definition_on_the_bench_pool(self, tmp_path, monkeypatch):
        """The first profiles of the seed-5 bench oracle pool, at the tol
        oracle-compare uses there and at 0.  The oracle's closing verifier
        calls never refuse."""
        verdicts = record_oracle_verdicts(monkeypatch)
        members = 0
        for (params, prof), tol in itertools.product(bench_oracle_pool(tmp_path)[:100], (1e-9, 0.0)):
            oracle = [eq.to_dict() for eq in brute_force_equilibria(prof, params, tol)]
            assert oracle == defined_oracle(prof, params, tol)
            members += len(oracle)
        assert members > 200
        assert all(verdicts) and len(verdicts) == 2 * members

    def test_weighted_pairs_emit_each_support_pair_once(self):
        """_weighted_pairs emits an (H support, L support) pair at most once,
        so two oracle members never share their atoms and need no dedup."""
        from sigmarket.refinement import _candidate_actions, _weighted_pairs

        emitted = 0
        for cost in self.COSTS:
            for theta_l, lam in self.MARKETS:
                params = MarketParams(theta_L=theta_l, theta_H=2.0, lam=lam, cost=cost)
                for prof, tol in itertools.product(self.profiles(), (1e-9, 0.0)):
                    pairs = [
                        tuple(tuple((a.school, a.effort) for a in sup) for sup in (sup_h, sup_l))
                        for sup_h, _, sup_l, _ in _weighted_pairs(params, _candidate_actions(prof, params), tol)
                    ]
                    assert len(pairs) == len(set(pairs))
                    emitted += len(pairs)
        assert emitted > 1000

    @pytest.mark.parametrize("case", ["tie_three", "linear-screening-5", "power-sorting-6"])
    def test_oracle_verifies_only_survivors(self, case, monkeypatch):
        """brute_force_equilibria prices off path (_price_off_path) exactly
        the pairs the reference floor pass lets through, fewer than
        _weighted_pairs emits, and calls verify_pbe once per fully priced
        candidate without a best-response violation, fewer times than
        _weighted_pairs emits pairs."""
        from sigmarket import refinement

        if case == "tie_three":
            params = MarketParams(theta_L=0.5, theta_H=2.0, lam=0.5, cost=LIN, n_schools=3)
            prof = PolicyProfile.of(*[self.policy(0.25, 0.5)] * 3)
        else:
            kind, market, j = case.split("-")
            theta_l, lam = self.MARKETS[("sorting", "screening").index(market)]
            cost = next(c for c in self.COSTS if c.kind == kind)
            params = MarketParams(theta_L=theta_l, theta_H=2.0, lam=lam, cost=cost)
            prof = self.profiles()[int(j)]
        verdicts = [(best_response_fails(eq, params), at_floor) for eq, at_floor in priced_pairs(prof, params)]
        priced, calls = [], []
        price, verify = refinement._price_off_path, refinement.verify_pbe
        monkeypatch.setattr(refinement, "_price_off_path", lambda *a, **k: priced.append(1) or price(*a, **k))
        monkeypatch.setattr(refinement, "verify_pbe", lambda *a, **k: calls.append(1) or verify(*a, **k))
        assert brute_force_equilibria(prof, params)
        assert len(priced) == [at_floor for _, at_floor in verdicts].count(False) < len(verdicts)
        assert len(calls) == [refuses for refuses, _ in verdicts].count(False) < len(verdicts)

    def test_zero_effort_band_counts(self, sorting):
        """With everybody outside, the best deviation is enrolling at zero
        effort for the wage theta_L, a band-0 signal."""
        prof = PolicyProfile.of(self.policy(0.25, 0.75))
        eq = idle_equilibrium(prof)
        offers = {s: (1.0 if s.message == 0 else 2.0) for s in prof.signals()}
        mus = {s: (0.0 if s.message == 0 else 1.0) for s in prof.signals()}
        eq = SubgameEquilibrium(prof, eq.strategy, WageSchedule(offers), BeliefSystem(mus), 0.0, 0.0, "separating")
        report = verify_pbe(eq, sorting)
        gaps = {v.detail: v.gap for v in report.violations}
        # L: max(1 - 0.25, 2 - 0.25 - 2 * 0.75) = 0.75; H: max(0.75, 2 - 0.25 - 0.75) = 1
        assert gaps == {"type L": pytest.approx(0.75), "type H": pytest.approx(1.0)}


def bench_oracle_pool(tmp_path, seed=5):
    """(params, profile) of every operation of the seed's bench oracle pool,
    bench/workloads.py loaded by path."""
    import importlib.util
    import json
    import random
    from pathlib import Path

    spec = importlib.util.spec_from_file_location("bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = workloads.Inputs(tmp_path)
    workloads._build_oracle(random.Random(f"oracle:{seed}"), inputs)
    return [
        (MarketParams.from_dict(json.loads(Path(op["params"]).read_text())), PolicyProfile.from_list(json.loads(Path(op["profile"]).read_text())))
        for op in inputs.ops
    ]


def reference_check_minimality(eq, params, tol):
    """check_minimality by its definition: for each school with an unsent
    band, the profile with that school coarsened (reduce_minimal) is priced
    afresh, Bayes on path and punishing D1 off path, and the school fails
    when that bundle passes both verifiers."""
    from sigmarket.monitoring import reduce_minimal
    from sigmarket.refinement import VerificationReport, _candidate_actions, _price_off_path, _price_on_path

    profile = eq.profile
    violations = []
    sent = eq.strategy.sent_signals(profile)
    for i, policy in enumerate(profile):
        sent_i = {s.message for s in sent if s.school == i} or {policy.monitoring.message_of(0.0)}
        reduced = reduce_minimal(policy.monitoring, sent_i)
        if reduced == policy.monitoring:
            continue
        red_profile = profile.replace(i, Policy(fee=policy.fee, monitoring=reduced))
        beliefs, offers = _price_on_path(eq.strategy.signal_mass(red_profile, "H"), eq.strategy.signal_mass(red_profile, "L"), params)
        _price_off_path(params, _candidate_actions(red_profile, params), {"L": eq.payoff_L, "H": eq.payoff_H}, beliefs, offers, tol)
        red_eq = SubgameEquilibrium(red_profile, eq.strategy, WageSchedule(offers), BeliefSystem(beliefs), eq.payoff_L, eq.payoff_H, eq.construction_tag)
        if verify_pbe(red_eq, params, tol).passed and verify_extended_d1(red_eq, params, tol).passed:
            n_kept = len(reduced.messages)
            gap = float(len(policy.monitoring.messages) - n_kept)
            violations.append(Violation("minimality", Signal(i, reduced.messages[0]), gap, f"school {i} supports the same outcome with {n_kept} messages"))
    return VerificationReport.from_violations(violations)


def perturbed(eq, params, rng):
    """eq with random wages and beliefs at every signal.  Its play is either
    the constructed one plus two zero-probability atoms (copies of its own,
    or random ones, outside included) or drawn at random; its payoffs are
    kept, random, or what each type's first positive atom earns at the
    play's Bayes wages."""
    from sigmarket.refinement import _price_on_path

    prof = eq.profile

    def atom(prob):
        if rng.random() < 0.25:
            return StrategyAtom(None, 0.0, prob)
        school = int(rng.integers(prof.n))
        efforts = prof[school].monitoring.band_starts() + (float(rng.uniform(0.0, 2.0)),)
        return StrategyAtom(school, float(rng.choice(efforts)), prob)

    def play(atoms):
        if rng.random() < 0.5:  # zero-probability copies keep best responses; a random atom may not
            extra = (atom(0.0) if rng.random() < 0.25 else atoms[int(rng.integers(len(atoms)))]._replace(prob=0.0) for _ in range(2))
            return atoms + tuple(extra)
        probs = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        if len(probs) > 1 and rng.random() < 0.5:
            probs[0], probs[-1] = 0.0, probs[0] + probs[-1]
        return tuple(atom(float(p)) for p in probs)

    strategy = PopulationStrategy(low=play(eq.strategy.low), high=play(eq.strategy.high))
    _, offers = _price_on_path(strategy.signal_mass(prof, "H"), strategy.signal_mass(prof, "L"), params)

    def earned(t):
        a = next(a for a in strategy.atoms(t) if a.prob > 0.0)
        if a.school is None:
            return 0.0
        wage = offers[prof.signal_of(a.school, a.effort)]
        return (0.0 if wage is None else wage) - prof[a.school].fee - params.cost.cost(t, a.effort)

    payoffs = [(eq.payoff_L, eq.payoff_H), (earned("L"), earned("H")), tuple(float(x) for x in rng.uniform(-0.5, 2.0, 2))]
    payoff_l, payoff_h = payoffs[int(rng.integers(3))]
    wages = {s: None if rng.random() < 0.1 else float(rng.uniform(params.theta_L, params.theta_H)) for s in prof.signals()}
    beliefs = {s: float(rng.uniform(-0.1, 1.1)) for s in prof.signals()}
    return SubgameEquilibrium(prof, strategy, WageSchedule(wages), BeliefSystem(beliefs), payoff_l, payoff_h, eq.construction_tag)


def minimality_corpus(count=600, seed=28):
    """(bundle, params, perturbed?): constructed bundles on random profiles
    of 1-4 schools with 0-4 thresholds each, arbitrary message ids, fees in
    {0, .1, .25, .5} and all three cost kinds; every other one perturbed."""
    rng = np.random.default_rng(seed)
    grid = np.arange(1, 16) * 0.125
    for k in range(count):
        n = int(rng.integers(1, 5))
        theta_l, lam = (float(rng.choice(v)) for v in ((-1.0, 0.0, 0.5, 1.0), (0.25, 0.5, 0.75)))
        params = MarketParams(theta_L=theta_l, theta_H=2.0, lam=lam, cost=TestExactBestResponse.COSTS[k % 3], n_schools=n)
        policies = []
        for _ in range(n):
            m = int(rng.integers(0, 5))
            drawn = rng.choice(grid, m, replace=False) if rng.random() < 0.5 else rng.uniform(0.05, 2.0, m)
            messages = tuple(int(x) for x in rng.permutation(9)[: m + 1])
            fee = float(rng.choice([0.0, 0.1, 0.25, 0.5]))
            policies.append(Policy(fee=fee, monitoring=StepMonitoringPolicy(tuple(sorted(map(float, drawn))), messages)))
        eq = construct_epbe(PolicyProfile.of(*policies), params)
        yield (perturbed(eq, params, rng), params, True) if k % 2 else (eq, params, False)


class TestMinimalityPricesOnce:
    """check_minimality prices the play once and asks verify_pbe on each
    coarsened profile; it equals the per-school definition
    (reference_check_minimality) report for report."""

    def test_matches_the_reference_on_the_bench_oracle_pool(self, tmp_path):
        pool = bench_oracle_pool(tmp_path)
        assert len(pool) == 720
        flagged = 0
        for params, prof in pool:
            eq = construct_epbe(prof, params)
            report = check_minimality(eq, params).to_dict()
            assert report == reference_check_minimality(eq, params, 1e-9).to_dict()
            flagged += not report["passed"]
        assert 50 < flagged < 670

    @pytest.mark.parametrize("tol", [1e-9, 0.0, 0.05])
    def test_matches_the_reference_on_a_random_corpus(self, tol):
        """Perturbed bundles are needed: a check that verified eq's own
        wages and beliefs instead of re-pricing them agrees with the
        reference on every constructed bundle."""
        violations = Counter()
        for eq, params, perturb in minimality_corpus():
            report = check_minimality(eq, params, tol).to_dict()
            assert report == reference_check_minimality(eq, params, tol).to_dict()
            violations[perturb] += len(report["violations"])
        assert violations[False] > 300 and violations[True] > 20, violations

    @pytest.mark.parametrize("tol", [1e-9, 0.0, 0.05])
    def test_d1_priced_bundles_pass_the_d1_check(self, tol):
        """A bundle priced as check_minimality prices it, Bayes on path and
        punishing D1 beliefs off path at its stored payoffs, never fails
        verify_extended_d1: belief 1 sits exactly where D1 excludes the low
        type, so the high type is never excluded there."""
        from sigmarket.refinement import _candidate_actions, _price_off_path, _price_on_path

        raised = 0
        for eq, params, _ in minimality_corpus():
            prof = eq.profile
            beliefs, offers = _price_on_path(eq.strategy.signal_mass(prof, "H"), eq.strategy.signal_mass(prof, "L"), params)
            raised += len(_price_off_path(params, _candidate_actions(prof, params), {"L": eq.payoff_L, "H": eq.payoff_H}, beliefs, offers, tol))
            priced = dataclasses.replace(eq, wages=WageSchedule(offers), beliefs=BeliefSystem(beliefs))
            assert verify_extended_d1(priced, params, tol).passed
        assert raised > 100
