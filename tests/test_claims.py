"""The abstract's claims, each stated as one test on certified outcomes.

A claim compares outcomes, so every outcome a test compares must first be
an equilibrium by the library's own checks: its subgame bundle passes
verify_pbe and verify_extended_d1, and the deviation audit, canonical and
pessimistic, finds no school deviation that gains anything.
"""

import pytest

from sigmarket import (
    CostFamily,
    CreditFamily,
    DeviationGrid,
    EquilibriumOutcome,
    MarketParams,
    WelfareReport,
    credit_monopoly_rpbe,
    deviation_audit,
    max_welfare,
    monopoly_rpbe,
    riley_rpbe,
    verify_extended_d1,
    verify_pbe,
    welfare,
)


# The paper-style points: cheap high-type effort under screening, and a
# sorting market where both types are worth hiring.
SCREENING = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 0.3))
SORTING = MarketParams(theta_L=0.5, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.0))


def audit_gains(outcome: EquilibriumOutcome, params: MarketParams) -> list[float]:
    """The canonical and pessimistic audits' max gains, after checking the
    outcome's subgame bundle with verify_pbe and verify_extended_d1."""
    eq = outcome.to_subgame(params)
    assert verify_pbe(eq, params).passed, outcome.label
    assert verify_extended_d1(eq, params).passed, outcome.label
    grid = DeviationGrid.for_profile(outcome.profile, params)
    return [deviation_audit(outcome, params, grid, pessimistic=p).max_gain for p in (False, True)]


def certified_welfare(outcome: EquilibriumOutcome, params: MarketParams) -> float:
    """Total welfare of an outcome, after checking that it is an equilibrium."""
    for gain in audit_gains(outcome, params):
        assert gain == 0.0, outcome.label
    return welfare(outcome, params).total


def certified(outcome: EquilibriumOutcome, params: MarketParams) -> WelfareReport:
    """Welfare report of an outcome whose bundle verifies and against which no
    school deviation gains (a deviation may lose: gains <= 0)."""
    assert max(audit_gains(outcome, params)) <= 0.0, outcome.label
    return welfare(outcome, params)


@pytest.mark.parametrize("params, fee, profit", [(SCREENING, 2.0, 1.0), (SORTING, 1.25, 1.25)])
def test_a_monopolist_extracts_all_surplus_with_a_low_information_policy(params, fee, profit):
    """First claim: a monopolist posts no threshold at all and sets a fee that
    takes the whole, maximal, welfare, leaving both types nothing."""
    outcome = monopoly_rpbe(params)
    report = certified(outcome, params)
    assert outcome.profile.thresholds() == ()
    assert outcome.fee == pytest.approx(fee, abs=1e-12)
    assert outcome.profits == pytest.approx((profit,), abs=1e-12)
    assert profit == pytest.approx(max_welfare(params), abs=1e-12)
    assert report.total == pytest.approx(profit, abs=1e-12)
    assert outcome.payoffs == pytest.approx((0.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("params, cutoff, payoffs", [(SCREENING, 1.0, (0.0, 1.7)), (SORTING, 0.75, (0.5, 1.25))])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_competition_moves_surplus_to_students(params, cutoff, payoffs, n):
    """Second claim: competing schools earn nothing, and the students keep
    the whole welfare, where the monopolist kept it all."""
    monopoly = certified(monopoly_rpbe(params), params)
    assert monopoly.school_profit_total == pytest.approx(monopoly.total, abs=1e-12)
    assert sum(monopoly.student_surplus) == pytest.approx(0.0, abs=1e-12)
    market = params.with_(n_schools=n)
    outcome = riley_rpbe(market)
    report = certified(outcome, market)
    assert outcome.profile.thresholds() == pytest.approx((cutoff,), abs=1e-12)
    assert outcome.profits == (0.0,) * n
    assert outcome.payoffs == pytest.approx(payoffs, abs=1e-12)
    assert sum(report.student_surplus) == pytest.approx(report.total, abs=1e-12)


@pytest.mark.parametrize("params, waste, total", [(SCREENING, 0.15, 0.85), (SORTING, 0.375, 0.875)])
def test_competition_signals_more_and_burns_effort(params, waste, total):
    """Third claim: competing schools post a cutoff where the monopolist posts
    none, and the effort it makes students burn lowers welfare."""
    monopoly = monopoly_rpbe(params)
    unburnt = certified(monopoly, params)
    assert unburnt.effort_waste == 0.0
    for n in (2, 3, 4):
        market = params.with_(n_schools=n)
        outcome = riley_rpbe(market)
        report = certified(outcome, market)
        assert len(outcome.profile.thresholds()) > len(monopoly.profile.thresholds())
        assert report.effort_waste == pytest.approx(waste, abs=1e-12)
        assert report.total == pytest.approx(total, abs=1e-12)
        assert report.total < unburnt.total


def test_binding_fee_caps_reverse_the_welfare_ranking():
    """Last claim of the abstract: binding fee caps or credit constraints can
    reverse the welfare ranking of monopoly and competition.

    Screening market with cheap high-type effort: the unconstrained monopoly
    reaches maximal welfare and beats competition, whose separating effort
    burns a little.  A capped monopolist pools with low types, whose hiring
    destroys value; a slack-enough cap still beats competition, tighter ones
    lose to it.

    For a cap c from mean productivity (0.5) up to theta_H (2), the capped
    monopolist hires every high type plus alpha = (2 - c)/(c + 1) low types,
    all at zero effort, for a pooled wage of exactly c: welfare is
    3c / (2(c + 1)).  Competition's separating effort 1 costs high types 0.3,
    so its welfare is 0.5 * (2 - 0.3) = 0.85, and the ranking flips where
    the two formulas meet, at c* = 17/13.
    """
    params = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 0.3))
    duopoly = params.with_(n_schools=2)
    competition = certified_welfare(riley_rpbe(duopoly), duopoly)
    assert competition == pytest.approx(0.5 * (2.0 - 0.3), abs=1e-12)
    assert certified_welfare(monopoly_rpbe(params), params) == pytest.approx(1.0, abs=1e-12)

    def capped_welfare(cap):
        return 3.0 * cap / (2.0 * (cap + 1.0))

    capped = {}
    for cap in (0.5, 0.6, 0.75, 1.3, 1.31, 1.5, 1.9):
        at_cap = params.with_(credit_cap=cap)
        outcome = credit_monopoly_rpbe(at_cap)
        assert not isinstance(outcome, CreditFamily)  # every cap here is at or above mean productivity
        assert outcome.label == "monopoly_credit"
        assert outcome.employment == pytest.approx(((2.0 - cap) / (cap + 1.0), 1.0), abs=1e-12)
        assert {a.effort for a in outcome.on_path.low + outcome.on_path.high} == {0.0}
        capped[cap] = certified_welfare(outcome, at_cap)
        assert capped[cap] == pytest.approx(capped_welfare(cap), abs=1e-12)
    assert capped[1.5] == pytest.approx(0.9, abs=1e-12)
    assert capped[0.75] == pytest.approx(9.0 / 14.0, abs=1e-12)
    assert capped[0.6] == pytest.approx(0.5625, abs=1e-12)
    assert capped[1.5] > competition > capped[0.75] > capped[0.6]

    # capped_welfare(c) = competition solves to c* = 2w / (3 - 2w) at w = competition
    crossover = 2.0 * competition / (3.0 - 2.0 * competition)
    assert crossover == pytest.approx(17.0 / 13.0, abs=1e-12)
    assert capped_welfare(crossover) == pytest.approx(competition, abs=1e-12)
    assert 1.30 < crossover < 1.31
    assert capped[1.3] == pytest.approx(0.84783, abs=1e-5) and capped[1.3] < competition
    assert capped[1.31] == pytest.approx(0.85065, abs=1e-5) and capped[1.31] > competition
