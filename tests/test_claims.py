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
    credit_monopoly_rpbe,
    deviation_audit,
    monopoly_rpbe,
    riley_rpbe,
    verify_extended_d1,
    verify_pbe,
    welfare,
)


def certified_welfare(outcome: EquilibriumOutcome, params: MarketParams) -> float:
    """Total welfare of an outcome, after checking that it is an equilibrium."""
    eq = outcome.to_subgame(params)
    assert verify_pbe(outcome.profile, eq, params).passed, outcome.label
    assert verify_extended_d1(outcome.profile, eq, params).passed, outcome.label
    grid = DeviationGrid.for_profile(outcome.profile, params)
    for pessimistic in (False, True):
        assert deviation_audit(outcome, params, grid, pessimistic=pessimistic).max_gain == 0.0, outcome.label
    return welfare(outcome, params).total


def test_binding_fee_caps_reverse_the_welfare_ranking():
    """Last claim of the abstract: binding fee caps or credit constraints can
    reverse the welfare ranking of monopoly and competition.

    Screening market with cheap high-type effort: the unconstrained monopoly
    reaches maximal welfare and beats competition, whose separating effort
    burns a little.  A capped monopolist pools with low types, whose hiring
    destroys value; a slack-enough cap still beats competition, tighter ones
    lose to it.
    """
    params = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 0.3))
    duopoly = params.with_(n_schools=2)
    competition = certified_welfare(riley_rpbe(duopoly, 2), duopoly)
    assert competition == pytest.approx(0.85, abs=1e-12)
    assert certified_welfare(monopoly_rpbe(params), params) == pytest.approx(1.0, abs=1e-12)

    capped = {}
    for cap in (1.5, 0.75, 0.6):
        at_cap = params.with_(credit_cap=cap)
        outcome = credit_monopoly_rpbe(at_cap)
        assert not isinstance(outcome, CreditFamily)  # every cap here is at or above mean productivity
        assert outcome.label == "monopoly_credit"
        capped[cap] = certified_welfare(outcome, at_cap)
    assert capped[1.5] == pytest.approx(0.9, abs=1e-12)
    assert capped[0.75] == pytest.approx(9.0 / 14.0, abs=1e-12)
    assert capped[0.6] == pytest.approx(0.5625, abs=1e-12)
    assert capped[1.5] > competition > capped[0.75] > capped[0.6]
