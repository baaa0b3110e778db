"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Canonical parameters throughout: an even type split (lam = 0.5), linear
costs with slopes (kappa_H, kappa_L) = (1, 2), and theta_H = 2 against
theta_L = +1 (sorting) or theta_L = -1 (screening).  The terminal summary
prints one PASS/FAIL line per criterion.
"""

import numpy as np
import pytest

from conftest import record_acceptance

from sigmarket import (
    CostFamily,
    DeviationGrid,
    EquilibriumOutcome,
    MarketParams,
    Policy,
    PolicyProfile,
    PopulationStrategy,
    Signal,
    StepMonitoringPolicy,
    StrategyAtom,
    WageSchedule,
    brute_force_equilibria,
    check_minimality,
    construct_epbe,
    credit_monopoly_rpbe,
    d1_wage_sets,
    deviation_audit,
    expected_type,
    is_fierce,
    max_welfare,
    mild_fee_set,
    monopoly_rpbe,
    outcome_equivalent,
    riley_effort,
    riley_rpbe,
    semipooling_family,
    strictly_included,
    verify_extended_d1,
    verify_pbe,
    welfare,
)
from sigmarket.refinement import MAX_ORACLE_ACTIONS, oracle_actions

LIN = CostFamily.linear(2.0, 1.0)
SORTING = MarketParams(theta_L=1.0, theta_H=2.0, lam=0.5, cost=LIN)
SCREENING = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=LIN)
TOL = 1e-9


@pytest.mark.acceptance("01 monopoly extraction")
def test_criterion_01_monopoly_optimality_and_extraction():
    results = []
    for params, profit in ((SORTING, 1.5), (SCREENING, 1.0)):
        out = monopoly_rpbe(params)
        rep = welfare(out, params)
        assert out.profits[0] == pytest.approx(profit, abs=TOL)
        assert rep.total == pytest.approx(rep.max_welfare, abs=TOL)
        assert abs(out.payoffs[0]) <= TOL and abs(out.payoffs[1]) <= TOL
        results.append(f"{out.label} profit={out.profits[0]:.10g}")
    record_acceptance("01 monopoly extraction", "; ".join(results))


@pytest.mark.acceptance("02 riley outcome")
def test_criterion_02_riley_outcome():
    details = []
    for params, e_r_expected, welfare_expected in ((SCREENING, 1.0, 0.5), (SORTING, 0.5, 1.25)):
        e_r = riley_effort(params)
        assert e_r == pytest.approx(e_r_expected, abs=TOL)
        out = riley_rpbe(params.with_(n_schools=2))
        rep = welfare(out, params)
        assert rep.total == pytest.approx(welfare_expected, abs=TOL)
        assert all(p.fee == 0.0 for p in out.profile)
        assert out.profits == (0.0, 0.0)
        bundle = out.to_subgame(params)
        assert verify_pbe(bundle, params).passed
        assert verify_extended_d1(bundle, params).passed
        assert check_minimality(bundle, params).passed
        details.append(f"e^R={e_r:.10g} welfare={rep.total:.10g}")
    record_acceptance("02 riley outcome", "; ".join(details))


@pytest.mark.acceptance("03 competition is inefficient")
def test_criterion_03_competition_never_attains_max_welfare():
    """100-point sweep: every competition outcome strictly below the ceiling
    while monopoly attains it at the same parameters."""
    rng = np.random.default_rng(2026)
    checked = 0
    points = 0
    while points < 100:
        theta_h = float(rng.uniform(0.8, 3.5))
        theta_l = float(rng.uniform(-2.0, theta_h - 0.3))
        lam = float(rng.uniform(0.15, 0.85))
        kap_h = float(rng.uniform(0.3, 1.8))
        kap_l = kap_h + float(rng.uniform(0.1, 1.6))
        params = MarketParams(
            theta_L=theta_l, theta_H=theta_h, lam=lam, cost=CostFamily.linear(kap_l, kap_h), n_schools=2
        )
        points += 1
        ceiling = max_welfare(params)
        mono = monopoly_rpbe(params.with_(n_schools=1))
        assert welfare(mono, params).total == pytest.approx(ceiling, abs=TOL)
        outcomes = [riley_rpbe(params)]
        for q_h in (0.25, 0.5, 0.75):
            outcomes.extend(semipooling_family(params, "zero_fee", q_h=q_h))
        for out in outcomes:
            total = welfare(out, params).total
            assert total < ceiling - TOL, (params.to_dict(), out.label)
            checked += 1
    record_acceptance(
        "03 competition is inefficient",
        f"{points} parameter points, {checked} competition outcomes strictly below max welfare",
    )


FIERCE_INSTANCES = (
    # (theta_L, theta_H, lam, n, expected_fierce)
    (-1.0, 2.0, 0.4, 3, True),  # n > 1/lam
    (1.0, 2.0, 0.5, 2, True),  # n*theta_L > mean
    (-1.0, 2.0, 0.5, 2, False),
    (0.5, 2.0, 0.5, 2, False),
    (-1.0, 2.0, 0.5, 2, False),  # screening mild (same as row 3, listed twice in examples)
    (-3.0, 2.0, 0.5, 2, True),  # losses dominate
)


@pytest.mark.acceptance("04 fierce classification and zero fees")
def test_criterion_04_fierce_classification_and_zero_fees():
    fierce_count = 0
    for theta_l, theta_h, lam, n, expected in FIERCE_INSTANCES:
        params = MarketParams(theta_L=theta_l, theta_H=theta_h, lam=lam, cost=LIN, n_schools=n)
        verdict = is_fierce(params)
        assert verdict.fierce == expected, (theta_l, theta_h, lam, n)
        if not verdict.fierce:
            continue
        fierce_count += 1
        # every emitted symmetric equilibrium charges exactly zero
        out = riley_rpbe(params)
        assert all(p.fee == 0.0 for p in out.profile)
        for q_h in (0.3, 0.6, 0.9):
            for member in semipooling_family(params, "zero_fee", q_h=q_h):
                assert all(p.fee == 0.0 for p in member.profile)
        fee_set = mild_fee_set(params)
        assert fee_set.points == (0.0,) and fee_set.intervals == ()
        with_fee = semipooling_family(params, "with_fee", q_h=0.5, fee=0.1)
        assert len(with_fee) == 0
    record_acceptance(
        "04 fierce classification and zero fees",
        f"6 boundary instances classified; {fierce_count} fierce instances emit only zero fees",
    )


@pytest.mark.acceptance("05 semi-pooling family")
def test_criterion_05_semipooling_family():
    params = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.8), n_schools=2)
    fam = semipooling_family(params, "zero_fee", e_l=0.0)
    assert len(fam) == 1
    m = fam[0]
    q_h = sum(a.prob for a in m.on_path.high if a.effort < 1e-9)
    w_l = m.wages.offer(Signal(0, 0))
    assert q_h == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert w_l == pytest.approx(0.2, abs=1e-6)
    efforts = sorted({a.effort for a in m.on_path.high})
    cf = params.cost
    lhs = w_l - cf.cost("H", efforts[0])
    rhs = params.theta_H - cf.cost("H", efforts[1])
    assert lhs == pytest.approx(rhs, abs=1e-6)

    flat = params.with_(cost=LIN)
    empty = semipooling_family(flat, "zero_fee", e_l=0.0)
    assert len(empty) == 0
    cert = empty.certificate
    assert cert is not None
    assert cert.sup_pooled_wage == pytest.approx(expected_type(flat), abs=TOL)
    assert cert.required_pooled_wage == pytest.approx(
        flat.theta_H - flat.cost.cost("H", riley_effort(flat)), abs=1e-8
    )
    assert cert.sup_pooled_wage < cert.required_pooled_wage
    record_acceptance(
        "05 semi-pooling family",
        f"(e_l=0, q_h={q_h:.8f}, w_l={w_l:.8f}); flat-cost family empty with bound "
        f"{cert.sup_pooled_wage:.3g} < {cert.required_pooled_wage:.3g}",
    )


@pytest.mark.acceptance("06 credit constraint")
def test_criterion_06_credit_constraint():
    out = credit_monopoly_rpbe(SCREENING.with_(credit_cap=1.0))
    assert out.enrollment[0] == pytest.approx(0.5, abs=TOL)
    assert out.profits[0] == pytest.approx(0.75, abs=TOL)
    assert out.wages.offer(Signal(0, 0)) == pytest.approx(1.0, abs=TOL)

    fam = credit_monopoly_rpbe(SORTING.with_(credit_cap=1.0))
    assert fam.e_prime == pytest.approx(0.25, abs=TOL)
    record_acceptance(
        "06 credit constraint",
        f"alpha_K={out.enrollment[0]:.10g}, profit={out.profits[0]:.10g}, e'={fam.e_prime:.10g}",
    )


@pytest.mark.acceptance("07 mild-competition fee sets")
def test_criterion_07_mild_fee_sets():
    srt = MarketParams(theta_L=0.5, theta_H=2.0, lam=0.5, cost=LIN, n_schools=2)
    fee_set = mild_fee_set(srt)
    assert fee_set.points == (0.0,)
    (iv,) = fee_set.intervals
    assert (iv.lo, iv.hi, iv.closed_lo, iv.closed_hi) == (1.0, 1.25, True, False)

    scr = SCREENING.with_(n_schools=2)
    fee_set2 = mild_fee_set(scr)
    assert fee_set2.points == ()
    (iv2,) = fee_set2.intervals
    assert (iv2.lo, iv2.hi, iv2.closed_lo, iv2.closed_hi) == (0.0, 0.5, True, True)
    record_acceptance(
        "07 mild-competition fee sets", "{0} u [1, 1.25) and [0, 0.5], exact endpoints"
    )


def _random_instance(rng):
    theta_h = float(rng.uniform(0.8, 3.5))
    theta_l = float(rng.uniform(-2.0, theta_h - 0.3))
    lam = float(rng.uniform(0.15, 0.85))
    kap_h = float(rng.uniform(0.3, 1.8))
    kap_l = kap_h + float(rng.uniform(0.1, 1.6))
    n = int(rng.integers(1, 3))
    params = MarketParams(
        theta_L=theta_l, theta_H=theta_h, lam=lam, cost=CostFamily.linear(kap_l, kap_h), n_schools=n
    )
    e_r = riley_effort(params)
    policies = []
    for _ in range(n):
        k = int(rng.integers(0, 3))
        ts = tuple(sorted(set(round(t, 6) for t in rng.uniform(0.05 * e_r, 1.4 * e_r, size=k))))
        fee = float(rng.uniform(0.0, 0.9 * theta_h))
        policies.append(
            Policy(fee=fee, monitoring=StepMonitoringPolicy(thresholds=ts, messages=tuple(range(len(ts) + 1))))
        )
    return params, PolicyProfile.of(*policies)


@pytest.mark.acceptance("08 constructor-oracle equivalence")
def test_criterion_08_constructor_matches_oracle():
    rng = np.random.default_rng(20260810)
    mismatches = 0
    profiles = 0
    oracle_members = 0
    while profiles < 24:
        params, prof = _random_instance(rng)
        profiles += 1
        eq = construct_epbe(prof, params)
        assert oracle_actions(prof) <= MAX_ORACLE_ACTIONS
        oracle = brute_force_equilibria(prof, params)
        oracle_members += len(oracle)
        for member in oracle:
            assert verify_extended_d1(member, params).passed
        if not any(outcome_equivalent(eq, member) for member in oracle):
            mismatches += 1
    assert mismatches == 0
    record_acceptance(
        "08 constructor-oracle equivalence",
        f"{profiles} randomized profiles, {oracle_members} oracle members, 0 mismatches",
    )


@pytest.mark.acceptance("09 refinement unit layer")
def test_criterion_09_d1_interval_algebra():
    params = MarketParams(theta_L=0.0, theta_H=2.0, lam=0.5, cost=LIN)

    def idle(profile, u_l=0.0, u_h=0.0):
        strat = PopulationStrategy(
            low=(StrategyAtom(None, 0.0, 1.0),), high=(StrategyAtom(None, 0.0, 1.0),)
        )
        from sigmarket import BeliefSystem, SubgameEquilibrium

        return SubgameEquilibrium(
            profile=profile,
            strategy=strat,
            wages=WageSchedule(offers={s: 0.0 for s in profile.signals()}),
            beliefs=BeliefSystem(mu_high={s: 0.0 for s in profile.signals()}),
            payoff_L=u_l,
            payoff_H=u_h,
            construction_tag="separating",
        )

    half = PolicyProfile.of(Policy(fee=0.0, monitoring=StepMonitoringPolicy.cutoff(0.5)))
    sets = d1_wage_sets(idle(half), Signal(0, 1), "L", params)
    assert (sets.weak.lower, sets.weak.empty) == (pytest.approx(1.0), False)
    sets = d1_wage_sets(idle(half), Signal(0, 0), "H", params)
    assert (sets.weak.lower, sets.weak.empty) == (0.0, False)
    steep = PolicyProfile.of(Policy(fee=0.0, monitoring=StepMonitoringPolicy.cutoff(1.5)))
    assert d1_wage_sets(idle(steep), Signal(0, 1), "L", params).weak.empty

    # the strict-inclusion verdict flips as U(H) crosses the cost-gap bound
    gap = LIN.cost("L", 0.5) - LIN.cost("H", 0.5)
    s = Signal(0, 1)
    for delta, expected in ((-1e-6, True), (0.0, False), (1e-6, False)):
        eq = idle(half, u_l=0.0, u_h=gap + delta)
        pair = {t: d1_wage_sets(eq, s, t, params) for t in ("L", "H")}
        assert strictly_included(pair["L"].weak, pair["H"].strict) is expected, delta
    record_acceptance(
        "09 refinement unit layer",
        "3 interval examples exact; exclusion verdict flips across the bound at ±1e-6",
    )


@pytest.mark.acceptance("10 deviation audits")
def test_criterion_10_deviation_audits():
    gains = []
    for params in (SORTING, SCREENING):
        out = riley_rpbe(params.with_(n_schools=2))
        grid = DeviationGrid.for_profile(out.profile, params, n_points=21)
        canonical = deviation_audit(out, params, grid)
        pessimistic = deviation_audit(out, params, grid, pessimistic=True)
        assert canonical.max_gain <= TOL
        assert pessimistic.max_gain <= TOL
        gains.append(f"riley max gain {max(canonical.max_gain, pessimistic.max_gain):.2e}")

    prof = PolicyProfile.symmetric(Policy(fee=1.5, monitoring=StepMonitoringPolicy.uninformative()), 2)
    planted = EquilibriumOutcome(
        profile=prof,
        on_path=PopulationStrategy(
            low=tuple(StrategyAtom(i, 0.0, 0.5) for i in range(2)),
            high=tuple(StrategyAtom(i, 0.0, 0.5) for i in range(2)),
        ),
        wages=WageSchedule(offers={Signal(i, 0): 1.5 for i in range(2)}),
        profits=(0.75, 0.75),
        payoffs=(0.0, 0.0),
        label="riley",
    )
    grid = DeviationGrid.for_profile(prof, SORTING, n_points=21)
    rep = deviation_audit(planted, SORTING, grid)
    assert rep.max_gain >= 0.1
    gains.append(f"planted gain {rep.max_gain:.3f}")
    record_acceptance("10 deviation audits", "; ".join(gains))
