import dataclasses
import json
import math
import time
from collections import Counter

import pytest

from sigmarket import (
    AuditReport,
    CostFamily,
    CreditFamily,
    DeviationGrid,
    EquilibriumOutcome,
    FeeInterval,
    InputError,
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
    deviation_audit,
    expected_type,
    is_fierce,
    low_per_high,
    max_welfare,
    mild_fee_set,
    monopoly_rpbe,
    riley_effort,
    riley_rpbe,
    semipooling_family,
    verify_extended_d1,
    verify_pbe,
    welfare,
)
from sigmarket import outer, subgame
from sigmarket.outer import AuditEntry, _audit_deviations, _rank, _school_profits

LIN = CostFamily.linear(2.0, 1.0)


class TestMonopoly:
    def test_sorting(self, sorting):
        out = monopoly_rpbe(sorting)
        assert out.fee == pytest.approx(1.5)
        assert out.profits == (pytest.approx(1.5),)
        rep = welfare(out, sorting)
        assert rep.total == pytest.approx(1.5)
        assert rep.total == rep.max_welfare
        assert out.payoffs == (0.0, 0.0)

    def test_screening(self, screening):
        out = monopoly_rpbe(screening)
        assert out.fee == 2.0
        assert out.profits == (pytest.approx(1.0),)
        assert out.enrollment == (0.0, 1.0)
        rep = welfare(out, screening)
        assert rep.total == pytest.approx(1.0) == rep.max_welfare

    def test_boundary_theta_l_zero(self, sorting):
        p = sorting.with_(theta_L=0.0)
        out = monopoly_rpbe(p)
        assert out.fee == pytest.approx(p.lam * p.theta_H)
        assert out.enrollment == (1.0, 1.0)

    def test_needs_single_school(self, sorting):
        with pytest.raises(InputError):
            monopoly_rpbe(sorting.with_(n_schools=2))

    @pytest.mark.parametrize("market, cap", [("screening", 0.5), ("screening", 1.9), ("sorting", 1.4)])
    def test_binding_cap_is_refused(self, request, market, cap):
        """A cap below the fee it would charge (theta_H under screening, the
        mean under sorting) is the credit solver's case; students could not pay."""
        params = request.getfixturevalue(market).with_(credit_cap=cap)
        with pytest.raises(InputError, match="credit_cap.*credit_monopoly_rpbe"):
            monopoly_rpbe(params)

    @pytest.mark.parametrize("market, cap", [("screening", 2.0), ("sorting", 1.5), ("sorting", 1.9)])
    def test_slack_cap_keeps_the_outcome(self, request, market, cap):
        params = request.getfixturevalue(market)
        assert monopoly_rpbe(params.with_(credit_cap=cap)).to_dict() == monopoly_rpbe(params).to_dict()

    def test_bundle_verifies(self, sorting, screening):
        for params in (sorting, screening):
            out = monopoly_rpbe(params)
            eq = out.to_subgame(params)
            assert verify_pbe(eq, params).passed
            assert verify_extended_d1(eq, params).passed
            assert check_minimality(eq, params).passed


class TestCreditMonopoly:
    def test_screening_binding_cap(self, screening):
        out = credit_monopoly_rpbe(screening.with_(credit_cap=1.0))
        assert isinstance(out, EquilibriumOutcome)
        assert out.fee == 1.0
        assert out.enrollment[1] == 1.0
        assert out.enrollment[0] == pytest.approx(0.5, abs=1e-9)
        assert out.profits[0] == pytest.approx(0.75, abs=1e-9)
        assert out.wages.offer(Signal(0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_interior_and_pinned_wage(self, screening):
        for cap in (0.6, 1.0, 1.5, 1.9):
            out = credit_monopoly_rpbe(screening.with_(credit_cap=cap))
            alpha = out.enrollment[0]
            assert 0.0 < alpha <= 1.0
            # pooled wage equals the cap exactly
            assert out.wages.offer(Signal(0, 0)) == pytest.approx(cap, abs=1e-9)

    def test_sorting_slack_cap_delegates(self, sorting):
        out = credit_monopoly_rpbe(sorting.with_(credit_cap=1.8))
        assert out.label == "monopoly_sorting"
        assert out.fee == pytest.approx(1.5)

    def test_high_cap_delegates(self, screening):
        out = credit_monopoly_rpbe(screening.with_(credit_cap=5.0))
        assert out.label == "monopoly_screening"

    def test_tight_cap_family(self, sorting):
        fam = credit_monopoly_rpbe(sorting.with_(credit_cap=1.0))
        assert isinstance(fam, CreditFamily)
        assert fam.fee == 1.0
        assert fam.e_prime == pytest.approx(0.25, abs=1e-9)
        zero = fam.pooling_member(0.0)
        assert zero.wages.offer(Signal(0, 0)) == pytest.approx(1.5)
        assert zero.payoffs == (pytest.approx(0.5), pytest.approx(0.5))
        assert zero.profits == (pytest.approx(1.0),)
        edge = fam.pooling_member(fam.e_limit)
        assert edge.boundary
        with pytest.raises(InputError):
            fam.pooling_member(fam.e_limit + 0.05)

    def test_family_members_share_fee_and_profit(self, sorting):
        fam = credit_monopoly_rpbe(sorting.with_(credit_cap=1.0))
        for member in fam.sample(4):
            assert member.fee == 1.0
            assert member.profits == (pytest.approx(1.0),)
            assert member.enrollment == (1.0, 1.0)

    def test_partial_member_indifference(self, screening):
        fam = credit_monopoly_rpbe(screening.with_(theta_L=-0.2, credit_cap=0.5))
        assert isinstance(fam, CreditFamily)
        m = fam.partial_member(0.0, 0.6)
        if m is None:
            pytest.skip("no feasible partial member at this point")
        cf = fam.params.cost
        high_atoms = {round(a.effort, 9): a for a in m.on_path.high}
        efforts = sorted(high_atoms)
        w_l = m.wages.offer(m.profile.signal_of(0, efforts[0]))
        u_pool = w_l - cf.cost("H", efforts[0]) - fam.fee
        u_top = fam.params.theta_H - cf.cost("H", efforts[1]) - fam.fee
        assert u_pool == pytest.approx(u_top, abs=1e-8)

    def test_cap_below_theta_l_limits_the_pooling_cutoff(self, sorting):
        # low types could drop to the below-cutoff wage theta_L > K, so e_limit < e_prime
        params = sorting.with_(credit_cap=0.5)
        fam = credit_monopoly_rpbe(params)
        e_limit = params.cost.inverse("L", expected_type(params) - params.theta_L)
        assert fam.e_limit == e_limit < fam.e_prime == params.cost.inverse("L", expected_type(params) - 0.5)

    def test_partial_member_boundary_at_zero_slack(self, screening):
        fam = credit_monopoly_rpbe(screening.with_(theta_L=-0.2, credit_cap=0.5))
        # the pooled wage equals the cap: low types clear fee plus effort with no slack
        edge = fam.partial_member(0.0, 1.0 / low_per_high(0.5, fam.params))
        assert edge is not None and edge.payoffs[0] == pytest.approx(0.0, abs=1e-12)
        assert edge.boundary
        assert not fam.partial_member(0.0, 0.6).boundary

    def test_alpha_equals_subgame_mixing_weight(self, screening, sorting):
        """The capped-pooling enrollment fraction is exactly the mixing
        weight the subgame constructor derives on the fee-capped profile."""
        from sigmarket import construct_epbe

        for cap in (0.8, 1.3, 1.7):
            out = credit_monopoly_rpbe(screening.with_(credit_cap=cap))
            eq = construct_epbe(out.profile, screening.with_(credit_cap=cap))
            assert eq.strategy.enrollment_total("L") == pytest.approx(out.enrollment[0], abs=1e-12)
            assert eq.wages.offer(Signal(0, 0)) == pytest.approx(cap, abs=1e-12)
        fam = credit_monopoly_rpbe(sorting.with_(credit_cap=1.0))
        member = fam.pooling_member(0.0)
        eq = construct_epbe(member.profile, sorting.with_(credit_cap=1.0))
        assert eq.strategy.enrollment_total("L") == 1.0
        assert eq.wages.offer(Signal(0, 0)) == pytest.approx(1.5)


SCREENING = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=LIN)
TIGHT_CAP = MarketParams(theta_L=1.0, theta_H=2.0, lam=0.5, cost=LIN, credit_cap=1.0)  # a credit family
CUTOFF_ONE = PolicyProfile.of(Policy(fee=0.0, monitoring=StepMonitoringPolicy.cutoff(1.0)))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: semipooling_family(SCREENING, "zero_fee", q_h=0.5), "n >= 2 schools, got 1"),
        (lambda: semipooling_family(SCREENING.with_(n_schools=2), "zero_fee", q_h=0.5, fee=0.1), "does not take a fee"),
        (lambda: semipooling_family(SCREENING.with_(n_schools=2), "no_fee", q_h=0.5), "unknown variant"),
        (lambda: credit_monopoly_rpbe(SCREENING.with_(n_schools=2, credit_cap=1.0)), "n_schools == 1, got 2"),
        (lambda: credit_monopoly_rpbe(TIGHT_CAP).partial_member(0.0, 1.0), "q_h must lie"),
        (lambda: credit_monopoly_rpbe(TIGHT_CAP).partial_member(-0.1, 0.5), "nonnegative"),
        (lambda: SCREENING.with_(n_schools=0), "n_schools must be >= 1"),
    ],
    ids=[
        "family-one-school",
        "zero_fee-with-fee",
        "unknown-variant",
        "credit-two-schools",
        "partial-q_h",
        "partial-e_l",
        "no-school",
    ],
)
def test_market_guards(call, match):
    """Each guard on the market a solver reads raises InputError."""
    with pytest.raises(InputError, match=match):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: SCREENING.with_(n_schools=2.5), "n_schools"),
        (lambda: SCREENING.with_(n_schools=True), "n_schools"),
        (lambda: credit_monopoly_rpbe(TIGHT_CAP).sample(0), "num"),
        (lambda: credit_monopoly_rpbe(TIGHT_CAP).sample(-1), "num"),
        (lambda: credit_monopoly_rpbe(TIGHT_CAP).sample(2.0), "num"),
        (lambda: DeviationGrid.for_profile(CUTOFF_ONE, SCREENING, n_points=2.5), "n_points"),
        (lambda: DeviationGrid.for_profile(CUTOFF_ONE, SCREENING, n_points=True), "n_points"),
    ],
    ids=[
        "n_schools-fraction",
        "n_schools-bool",
        "sample-zero",
        "sample-negative",
        "sample-float",
        "n_points-fraction",
        "n_points-bool",
    ],
)
def test_integer_parameters_refuse_bad_values(call, name):
    """A count passed in code must be a true int in range: a fraction, a bool
    or too small a value raises InputError naming the parameter."""
    with pytest.raises(InputError, match=f"^{name} must be >= "):
        call()


class TestFierce:
    def test_documented_instances(self):
        base = dict(theta_H=2.0, lam=0.5, cost=LIN)
        v = is_fierce(MarketParams(theta_L=-1.0, **{**base, "lam": 0.4}).with_(n_schools=3))
        assert v.fierce and "n_exceeds_inv_lambda" in v.reasons
        v = is_fierce(MarketParams(theta_L=1.0, **base).with_(n_schools=2))
        assert v.fierce and v.reasons == ("n_thetaL_exceeds_mean",)
        v = is_fierce(MarketParams(theta_L=-1.0, **base).with_(n_schools=2))
        assert not v.fierce
        with pytest.raises(InputError):
            is_fierce(MarketParams(theta_L=-1.0, **base))


class TestRiley:
    def test_screening_values(self, screening):
        out = riley_rpbe(screening.with_(n_schools=2))
        assert out.fee == 0.0
        assert out.profits == (0.0, 0.0)
        assert out.payoffs == (0.0, pytest.approx(1.0, abs=1e-9))
        rep = welfare(out, screening)
        assert rep.total == pytest.approx(0.5, abs=1e-9)

    def test_sorting_values(self, sorting):
        out = riley_rpbe(sorting.with_(n_schools=2))
        rep = welfare(out, sorting)
        assert rep.total == pytest.approx(1.25, abs=1e-9)
        assert out.enrollment == (1.0, 1.0)

    def test_needs_competition(self, sorting):
        with pytest.raises(InputError):
            riley_rpbe(sorting)

    def test_many_schools_in_linear_time(self, sorting):
        """Every school's profit comes from one pass over the atoms, so a
        20000-school outcome is built in well under 5 s; per-school scans
        are quadratic in n."""
        start = time.perf_counter()
        out = riley_rpbe(sorting.with_(n_schools=20000))
        assert time.perf_counter() - start < 5.0
        assert set(out.profits) == {0.0} and len(out.profits) == 20000


class TestOutcomeFromDict:
    def test_round_trip(self, screening):
        out = riley_rpbe(screening.with_(n_schools=2))
        assert EquilibriumOutcome.from_dict(out.to_dict()).to_dict() == out.to_dict()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("profits", ["x"]),
            ("payoffs", [0, 0]),
            ("payoffs", {"L": 1.0}),
            ("label", None),
            ("profits", [float("nan"), 0.0]),
            ("payoffs", {"L": 0.0, "H": float("inf")}),
        ],
    )
    def test_malformed_field_is_input_error(self, screening, field, value):
        data = riley_rpbe(screening.with_(n_schools=2)).to_dict()
        if value is None:
            del data[field]
        else:
            data[field] = value
        with pytest.raises(InputError, match=field):
            EquilibriumOutcome.from_dict(data)

    @pytest.mark.parametrize("profits", [[5.0], [0.0, 0.0, 0.0]], ids=["one", "three"])
    def test_one_profit_per_school(self, screening, profits):
        """A 2-school record with one profit or three is refused, naming the
        field, so welfare and the CSV row never sum a wrong count."""
        data = riley_rpbe(screening.with_(n_schools=2)).to_dict()
        data["profits"] = profits
        with pytest.raises(InputError, match=f"'profits' lists {len(profits)} profits for 2 schools"):
            EquilibriumOutcome.from_dict(data)

    @pytest.mark.parametrize("school", [-1, 2])
    def test_atom_at_a_school_outside_the_profile(self, screening, school):
        """An atom at school -1 would index the last school, and one at 2
        would crash welfare; both are refused, naming the field."""
        data = riley_rpbe(screening.with_(n_schools=2)).to_dict()
        data["on_path"]["H"][0]["school"] = school
        with pytest.raises(InputError, match=f"'on_path' sends students to school {school}; the profile has 2"):
            EquilibriumOutcome.from_dict(data)

    def test_wage_at_a_signal_outside_the_profile(self, screening):
        """A stray wage at 5:3, a signal the 2-school profile does not emit,
        is refused, naming the field, instead of being kept."""
        data = riley_rpbe(screening.with_(n_schools=2)).to_dict()
        data["wages"]["5:3"] = 1.0
        with pytest.raises(InputError, match="outcome field 'wages' names signal 5:3"):
            EquilibriumOutcome.from_dict(data)

    def test_derived_fields_are_read_off_the_strategy(self, screening):
        # enrollment and employment in a file are accepted and ignored
        out = riley_rpbe(screening.with_(n_schools=2))
        data = out.to_dict()
        data["enrollment"] = data["employment"] = {"L": 7.0, "H": 7.0}
        assert EquilibriumOutcome.from_dict(data).to_dict() == out.to_dict()
        assert out.enrollment == out.employment == (0.0, 1.0)


class TestSemipooling:
    PARAMS = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.8), n_schools=2)

    def test_zero_fee_at_e_l_zero(self):
        fam = semipooling_family(self.PARAMS, "zero_fee", e_l=0.0)
        assert len(fam) == 1
        m = fam[0]
        q_h = sum(a.prob for a in m.on_path.high if a.effort < 1e-9)
        assert q_h == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert m.wages.offer(Signal(0, 0)) == pytest.approx(0.2, abs=1e-6)

    def test_zero_fee_at_e_l_tenth(self):
        fam = semipooling_family(self.PARAMS, "zero_fee", e_l=0.1)
        m = fam[0]
        q_h = sum(a.prob for a in m.on_path.high if abs(a.effort - 0.1) < 1e-9)
        assert q_h == pytest.approx(1.38 / 1.62, abs=1e-6)
        assert m.wages.offer(Signal(0, 1)) == pytest.approx(0.38, abs=1e-6)

    def test_free_parameter_inversion_consistency(self):
        fam_e = semipooling_family(self.PARAMS, "zero_fee", e_l=0.05)
        m = fam_e[0]
        q_h = sum(a.prob for a in m.on_path.high if abs(a.effort - 0.05) < 1e-9)
        fam_q = semipooling_family(self.PARAMS, "zero_fee", q_h=q_h)
        m2 = fam_q[0]
        e_l = min(a.effort for a in m2.on_path.high)
        assert e_l == pytest.approx(0.05, abs=1e-6)

    def test_empty_family_certificate(self, screening):
        fam = semipooling_family(screening.with_(n_schools=2), "zero_fee", e_l=0.0)
        assert len(fam) == 0
        cert = fam.certificate
        assert cert is not None
        assert cert.sup_pooled_wage == pytest.approx(expected_type(screening))
        assert cert.required_pooled_wage == pytest.approx(
            screening.theta_H - screening.cost.cost("H", riley_effort(screening)), abs=1e-8
        )
        assert cert.sup_pooled_wage < cert.required_pooled_wage

    def test_member_indifference_and_interval(self):
        for q in (0.3, 0.5, 0.8):
            fam = semipooling_family(self.PARAMS, "zero_fee", q_h=q)
            if not len(fam):
                continue
            m = fam[0]
            efforts = sorted({a.effort for a in m.on_path.high})
            assert len(efforts) == 2
            e_l, e_h = efforts
            w_l = m.wages.offer(m.profile.signal_of(0, e_l))
            cf = self.PARAMS.cost
            assert w_l - cf.cost("H", e_l) == pytest.approx(
                self.PARAMS.theta_H - cf.cost("H", e_h), abs=1e-8
            )
            assert max(self.PARAMS.theta_L, 0.0) < w_l < self.PARAMS.theta_H
            assert e_l < riley_effort(self.PARAMS) + 1e-9

    def test_with_fee_member(self):
        params = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.8), n_schools=2)
        fee_set = mild_fee_set(params)
        fee = 0.2
        assert fee_set.contains(fee)
        # q_h = 0.8 puts the pooled wage at 1/3 > fee, so low types clear it
        fam = semipooling_family(params, "with_fee", q_h=0.8, fee=fee)
        assert len(fam) == 1
        m = fam[0]
        assert m.fee == fee
        assert m.payoffs[0] == pytest.approx(0.0, abs=1e-8)
        efforts = sorted({a.effort for a in m.on_path.high})
        w_l = m.wages.offer(m.profile.signal_of(0, efforts[0]))
        assert w_l == pytest.approx(1.0 / 3.0, abs=1e-9)
        cf = params.cost
        assert w_l - cf.cost("H", efforts[0]) == pytest.approx(
            params.theta_H - cf.cost("H", efforts[1]), abs=1e-8
        )

    def test_boundary_marks_the_squeezed_low_payoff(self):
        # with_fee squeezes low types to max(0, theta_L - fee) = 0; zero_fee leaves them above it
        params = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.8), n_schools=2)
        (squeezed,) = semipooling_family(params, "with_fee", q_h=0.8, fee=0.2)
        assert squeezed.payoffs[0] == pytest.approx(0.0, abs=1e-12) and squeezed.boundary
        (interior,) = semipooling_family(params, "zero_fee", e_l=0.05)
        assert interior.payoffs[0] > 0.1 and not interior.boundary

    def test_with_fee_infeasible_probe_is_empty(self):
        params = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.8), n_schools=2)
        fam = semipooling_family(params, "with_fee", q_h=0.6, fee=0.2)
        assert len(fam) == 0 and fam.certificate is None

    def test_with_fee_rejected_under_fierce(self):
        fierce = MarketParams(theta_L=-3.0, theta_H=2.0, lam=0.5, cost=LIN, n_schools=2)
        fam = semipooling_family(fierce, "with_fee", q_h=0.5, fee=0.2)
        assert len(fam) == 0
        assert "fierce" in fam.certificate.reason

    def test_mixed_wage_inversion_round_trip(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from sigmarket.outer import _mixed_wage

        @given(
            lam=st.floats(0.05, 0.95),
            theta_h=st.floats(0.5, 5.0),
            gap=st.floats(0.1, 5.0),
            q=st.floats(0.01, 0.99),
        )
        @settings(max_examples=80)
        def check(lam, theta_h, gap, q):
            p = MarketParams(theta_L=theta_h - gap, theta_H=theta_h, lam=lam, cost=LIN)
            w = _mixed_wage(q, p)
            # raw formula ranges over (theta_L, theta_H); the equilibrium
            # filters are what pin members above max(theta_L, 0)
            assert p.theta_L < w < p.theta_H
            assert 1.0 / low_per_high(w, p) == pytest.approx(q, rel=1e-9)

        check()

    def test_bad_free_params(self):
        with pytest.raises(InputError):
            semipooling_family(self.PARAMS, "zero_fee", e_l=5.0)
        with pytest.raises(InputError):
            semipooling_family(self.PARAMS, "zero_fee", q_h=1.5)
        with pytest.raises(InputError):
            semipooling_family(self.PARAMS, "zero_fee")
        with pytest.raises(InputError):
            semipooling_family(self.PARAMS, "with_fee", q_h=0.5)


class TestFamilyBundlesVerify:
    """Every emitted family member is a refined equilibrium of its own subgame."""

    def test_semipooling_members(self):
        params = MarketParams(
            theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.8), n_schools=2
        )
        probes = [("zero_fee", dict(q_h=q)) for q in (0.7, 0.8, 0.95)]
        probes.append(("with_fee", dict(q_h=0.8, fee=0.2)))
        checked = 0
        for variant, kwargs in probes:
            for m in semipooling_family(params, variant, **kwargs):
                eq = m.to_subgame(params)
                assert verify_pbe(eq, params).passed
                assert verify_extended_d1(eq, params).passed
                assert check_minimality(eq, params).passed
                checked += 1
        assert checked >= 3

    def test_credit_members(self, sorting, screening):
        out = credit_monopoly_rpbe(screening.with_(credit_cap=1.0))
        members = [(out, screening.with_(credit_cap=1.0))]
        fam = credit_monopoly_rpbe(sorting.with_(credit_cap=1.0))
        members += [(m, sorting.with_(credit_cap=1.0)) for m in fam.sample(3)]
        for m, params in members:
            eq = m.to_subgame(params)
            assert verify_pbe(eq, params).passed, m.label
            assert verify_extended_d1(eq, params).passed, m.label


class TestToSubgame:
    def test_tag_reads_whether_the_types_share_a_signal(self, sorting, screening):
        capped = screening.with_(credit_cap=1.0)
        two = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.8), n_schools=2)
        pooled = [
            (monopoly_rpbe(sorting), sorting),
            (credit_monopoly_rpbe(capped), capped),
            *((m, two) for m in semipooling_family(two, "zero_fee", q_h=0.8)),
            *((m, two) for m in semipooling_family(two, "with_fee", q_h=0.8, fee=0.2)),
            *((m, sorting) for m in credit_monopoly_rpbe(sorting.with_(credit_cap=1.0)).sample(3)),
        ]
        separated = [(monopoly_rpbe(screening), screening)]
        separated += [(riley_rpbe(p.with_(n_schools=2)), p) for p in (sorting, screening)]
        assert len(pooled) >= 7
        assert {m.to_subgame(p).construction_tag for m, p in pooled} == {"semi_pooling"}
        assert {m.to_subgame(p).construction_tag for m, p in separated} == {"separating"}

    def test_tag_ignores_the_label(self, sorting):
        planted = TestDeviationAudit().planted(sorting)  # pooled play labelled "riley"
        assert planted.label == "riley" and planted.to_subgame(sorting).construction_tag == "semi_pooling"


class TestMildFeeSet:
    def test_sorting_instance(self):
        p = MarketParams(theta_L=0.5, theta_H=2.0, lam=0.5, cost=LIN, n_schools=2)
        fs = mild_fee_set(p)
        assert fs.points == (0.0,)
        (iv,) = fs.intervals
        assert (iv.lo, iv.hi, iv.closed_lo, iv.closed_hi) == (1.0, 1.25, True, False)
        assert fs.contains(1.0) and fs.contains(1.2499999) and not fs.contains(1.25)
        assert fs.contains(0.0) and not fs.contains(0.5)

    def test_screening_instance(self, screening):
        fs = mild_fee_set(screening.with_(n_schools=2))
        (iv,) = fs.intervals
        assert (iv.lo, iv.hi, iv.closed_lo, iv.closed_hi) == (0.0, 0.5, True, True)
        assert fs.contains(0.5) and not fs.contains(0.51)

    def test_fierce_collapses(self):
        p = MarketParams(theta_L=-3.0, theta_H=2.0, lam=0.5, cost=LIN, n_schools=2)
        fs = mild_fee_set(p)
        assert fs.points == (0.0,) and fs.intervals == ()

    def test_open_lower_end(self):
        iv = FeeInterval(lo=1.0, hi=1.25, closed_lo=False)
        assert not iv.contains(1.0) and iv.contains(1.0000001)


class TestWelfare:
    def test_identity_on_all_solver_outputs(self, sorting, screening):
        outcomes = []
        for params in (sorting, screening):
            outcomes.append((monopoly_rpbe(params), params))
            p2 = params.with_(n_schools=2)
            outcomes.append((riley_rpbe(p2), p2))
        sp = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.8), n_schools=2)
        for m in semipooling_family(sp, "zero_fee", q_h=0.5):
            outcomes.append((m, sp))
        cr = credit_monopoly_rpbe(screening.with_(credit_cap=1.0))
        outcomes.append((cr, screening.with_(credit_cap=1.0)))
        for out, params in outcomes:
            rep = welfare(out, params)
            lhs = rep.total
            rhs = (
                params.lam * out.payoffs[1]
                + (1.0 - params.lam) * out.payoffs[0]
                + sum(out.profits)
            )
            assert lhs == pytest.approx(rhs, abs=1e-9), out.label

    def test_nobody_enrolls_is_zero(self, screening):
        prof = PolicyProfile.of(Policy(fee=2.0, monitoring=StepMonitoringPolicy.uninformative()))
        strat = PopulationStrategy(
            low=(StrategyAtom(None, 0.0, 1.0),), high=(StrategyAtom(None, 0.0, 1.0),)
        )
        out = EquilibriumOutcome(
            profile=prof,
            on_path=strat,
            wages=WageSchedule(offers={Signal(0, 0): None}),
            profits=(0.0,),
            payoffs=(0.0, 0.0),
            label="monopoly_screening",
        )
        assert welfare(out, screening).total == 0.0

    def test_max_welfare_switches_at_zero(self, sorting):
        assert max_welfare(sorting) == expected_type(sorting)
        assert max_welfare(sorting.with_(theta_L=-0.5)) == sorting.lam * sorting.theta_H


def per_school_audit(outcome, params, grids, tol=1e-9):
    """Reference audit: every school replays every deviation itself.

    Returns the (canonical, pessimistic) reports that `deviation_audit`
    must reproduce exactly while answering one school per class.
    """
    base = outcome.profile
    entries = []
    for school in range(base.n):
        for fee, mon, template in _audit_deviations(outcome, params, grids):
            attempt = base.replace(school, Policy(fee=fee, monitoring=mon))
            eq = construct_epbe(attempt, params, tol)
            gain = _school_profits(attempt, params, eq.strategy)[school] - outcome.profits[school]
            entries.append(AuditEntry(school, fee, mon.thresholds, template, gain, "canonical"))
    entries.sort(key=lambda e: (-e.gain, e.school, e.fee, e.thresholds))
    canonical = AuditReport(
        max_gain=entries[0].gain if entries else 0.0, best=entries[0] if entries else None, entries=tuple(entries)
    )
    best_gain, best_entry, pess_entries = float("-inf"), None, []
    for entry in entries:
        if entry.gain <= max(best_gain, tol):
            pess_entries.append(entry)
            if entry.gain > best_gain:
                best_gain, best_entry = entry.gain, entry
            continue
        mon = StepMonitoringPolicy(
            thresholds=entry.thresholds, messages=tuple(range(len(entry.thresholds) + 1))
        )
        attempt = base.replace(entry.school, Policy(fee=entry.fee, monitoring=mon))
        candidates = brute_force_equilibria(attempt, params, tol)
        gain = entry.gain
        if candidates:
            worst = min(_school_profits(attempt, params, eq.strategy)[entry.school] for eq in candidates)
            gain = worst - outcome.profits[entry.school]
        pess = AuditEntry(entry.school, entry.fee, entry.thresholds, entry.template, gain, "pessimistic")
        pess_entries.append(pess)
        if gain > best_gain:
            best_gain, best_entry = gain, pess
    pess_entries.sort(key=lambda e: (-e.gain, e.school, e.fee, e.thresholds))
    return canonical, AuditReport(max_gain=best_gain, best=best_entry, entries=tuple(pess_entries))


def two_class_outcome(params):
    """Schools 0 and 2 form one class, school 1 (other fee and cutoff) another."""
    same = Policy(fee=0.5, monitoring=StepMonitoringPolicy.cutoff(riley_effort(params)))
    other = Policy(fee=0.25, monitoring=StepMonitoringPolicy.cutoff(0.2))
    profile = PolicyProfile.of(same, other, same)
    eq = construct_epbe(profile, params)
    profits = tuple(_school_profits(profile, params, eq.strategy))
    return EquilibriumOutcome(profile, eq.strategy, eq.wages, profits, (eq.payoff_L, eq.payoff_H), "constructed")


class TestDeviationAudit:
    def planted(self, sorting, n=2, high_at=None):
        """n schools pooling everybody at fee 1.5; `high_at` puts every high type there."""
        prof = PolicyProfile.symmetric(
            Policy(fee=1.5, monitoring=StepMonitoringPolicy.uninformative()), n
        )
        low = tuple(StrategyAtom(i, 0.0, 1.0 / n) for i in range(n))
        high = low if high_at is None else (StrategyAtom(high_at, 0.0, 1.0),)
        strat = PopulationStrategy(low=low, high=high)
        wages = WageSchedule(offers={Signal(i, 0): 1.5 for i in range(n)})
        profits = tuple(
            1.5 * (sorting.lam * strat.enrollment("H", i) + (1.0 - sorting.lam) * strat.enrollment("L", i))
            for i in range(n)
        )
        return EquilibriumOutcome(
            profile=prof,
            on_path=strat,
            wages=wages,
            profits=profits,
            payoffs=(0.0, 0.0),
            label="riley",
        )

    def assert_matches_per_school(self, outcome, params):
        grid = DeviationGrid.for_profile(outcome.profile, params)
        canonical, pessimistic = per_school_audit(outcome, params, grid)
        assert deviation_audit(outcome, params, grid).to_dict() == canonical.to_dict()
        assert deviation_audit(outcome, params, grid, pessimistic=True).to_dict() == pessimistic.to_dict()

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_class_audit_matches_per_school_on_riley(self, sorting, screening, n):
        for params in (sorting, screening):
            self.assert_matches_per_school(riley_rpbe(params.with_(n_schools=n)), params)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("theta_L", [1.0, 0.5])
    def test_class_audit_matches_per_school_on_planted(self, sorting, n, theta_L):
        # at theta_L = 0.5 the pessimistic pass replays the same deviation for several members
        params = sorting.with_(theta_L=theta_L)
        self.assert_matches_per_school(self.planted(params, n), params)

    def test_class_audit_matches_per_school_on_two_classes(self, sorting):
        self.assert_matches_per_school(two_class_outcome(sorting), sorting)

    def test_class_audit_subtracts_each_members_own_profit(self, sorting):
        params = sorting.with_(theta_L=0.5)
        outcome = self.planted(params, 2, high_at=0)
        assert outcome.profits[0] != outcome.profits[1]
        self.assert_matches_per_school(outcome, params)

    def test_profits_off_the_strategy_are_refused(self, sorting):
        outcome = self.planted(sorting)
        grid = DeviationGrid.for_profile(outcome.profile, sorting)
        doubled = dataclasses.replace(outcome, profits=tuple(2 * p for p in outcome.profits))
        with pytest.raises(InputError, match="profit of school 0"):
            deviation_audit(doubled, sorting, grid)
        with pytest.raises(InputError, match="1 profits for 2 schools"):
            deviation_audit(dataclasses.replace(outcome, profits=outcome.profits[:1]), sorting, grid)

    @pytest.mark.parametrize("tol", [-1e-9, -0.1, math.nan, math.inf])
    def test_negative_nan_or_infinite_tol_refused(self, screening, tol):
        """Refused before the stored profits are checked against tol: a
        negative or NaN one used to blame a matching profit."""
        params = screening.with_(n_schools=2)
        out = riley_rpbe(params)
        grid = DeviationGrid.for_profile(out.profile, params)
        with pytest.raises(InputError, match=f"tol must be a finite number >= 0, got {tol!r}"):
            deviation_audit(out, params, grid, tol)

    def test_riley_certified_both_modes(self, sorting, screening):
        for params in (sorting, screening):
            out = riley_rpbe(params.with_(n_schools=2))
            grid = DeviationGrid.for_profile(out.profile, params)
            assert deviation_audit(out, params, grid).max_gain <= 1e-9
            assert deviation_audit(out, params, grid, pessimistic=True).max_gain <= 1e-9

    def test_planted_profile_is_dominated(self, sorting):
        planted = self.planted(sorting)
        grid = DeviationGrid.for_profile(planted.profile, sorting)
        rep = deviation_audit(planted, sorting, grid)
        assert rep.max_gain >= 0.1
        assert rep.best.template in ("undercut_cutoff", "grid", "reveal_undercut")

    def test_pessimistic_replays_are_not_capped(self, sorting, monkeypatch):
        """MAX_ORACLE_ACTIONS bounds oracle-compare requests, not the audit's replays."""
        from sigmarket import refinement

        planted = self.planted(sorting)
        grid = DeviationGrid.for_profile(planted.profile, sorting)
        expected = deviation_audit(planted, sorting, grid, pessimistic=True)
        assert any(e.mode == "pessimistic" for e in expected.entries)
        monkeypatch.setattr(refinement, "MAX_ORACLE_ACTIONS", 1)
        assert deviation_audit(planted, sorting, grid, pessimistic=True).to_dict() == expected.to_dict()

    def test_semipooling_members_certified(self):
        params = MarketParams(
            theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.8), n_schools=2
        )
        for q in (0.7, 0.85):
            m = semipooling_family(params, "zero_fee", q_h=q)[0]
            grid = DeviationGrid.for_profile(m.profile, params)
            assert deviation_audit(m, params, grid).max_gain <= 1e-9
            assert deviation_audit(m, params, grid, pessimistic=True).max_gain <= 1e-9

    def test_credit_outcomes_certified_within_cap(self, sorting, screening):
        """Deviations respect the fee cap; the capped monopolist cannot gain."""
        capped = screening.with_(credit_cap=1.0)
        out = credit_monopoly_rpbe(capped)
        grid = DeviationGrid.for_profile(out.profile, capped)
        assert deviation_audit(out, capped, grid).max_gain <= 1e-9
        fam = credit_monopoly_rpbe(sorting.with_(credit_cap=1.0))
        member = fam.pooling_member(0.0)
        grid2 = DeviationGrid.for_profile(member.profile, sorting.with_(credit_cap=1.0))
        assert deviation_audit(member, sorting.with_(credit_cap=1.0), grid2).max_gain <= 1e-9

    def test_grid_must_cover_thresholds(self, sorting):
        out = riley_rpbe(sorting.with_(n_schools=2))
        e_r = riley_effort(sorting)
        assert out.profile.thresholds() == (e_r,)
        with pytest.raises(InputError, match="every policy threshold"):
            deviation_audit(out, sorting, DeviationGrid(effort_grid=(0.0, 0.37, 1.0)))
        # a point within 1e-12 of the threshold covers it, one 1e-11 away does not
        assert DeviationGrid(effort_grid=(0.0, e_r + 1e-13, 1.0)).covers(out.profile)
        assert not DeviationGrid(effort_grid=(0.0, e_r + 1e-11, 1.0)).covers(out.profile)

    def test_grid_needs_a_positive_point(self, sorting):
        # (0.0,) covers any outcome without thresholds, such as the monopoly one,
        # and has no step for the undercut and extract templates
        with pytest.raises(InputError, match="positive point"):
            DeviationGrid(effort_grid=(0.0,))
        out = monopoly_rpbe(sorting)
        assert deviation_audit(out, sorting, DeviationGrid(effort_grid=(0.0, 1.0))).max_gain <= 1e-9

    def test_own_policy_is_gainless(self, screening):
        out = riley_rpbe(screening.with_(n_schools=2))
        grid = DeviationGrid.for_profile(out.profile, screening)
        rep = deviation_audit(out, screening, grid)
        e_r = riley_effort(screening)
        own = [
            e
            for e in rep.entries
            if e.fee == 0.0 and len(e.thresholds) == 1 and abs(e.thresholds[0] - e_r) < 2e-2
        ]
        assert own and all(abs(e.gain) <= 1e-9 for e in own)


def test_school_profit_is_one_entry_of_school_profits(sorting):
    """_school_profit, which prices the audit's deviator alone, sums that
    school's atoms in atom order as _school_profits does, bit for bit, on
    plays with several atoms at one school and atoms outside."""
    import random

    from sigmarket.outer import _school_profit

    prof = PolicyProfile.of(
        Policy(fee=0.25, monitoring=StepMonitoringPolicy.cutoff(0.5)),
        Policy(fee=0.1, monitoring=StepMonitoringPolicy.uninformative()),
        Policy(fee=0.3, monitoring=StepMonitoringPolicy.cutoff(0.3)),
    )
    rng = random.Random(29)

    def play():
        weights = [rng.random() for _ in range(rng.randint(1, 6))]
        schools = [rng.choice([None, 0, 0, 1, 2, 2]) for _ in weights]
        return tuple(StrategyAtom(i, 0.0 if i is None else 0.5, w / sum(weights)) for i, w in zip(schools, weights))

    for _ in range(300):
        strategy = PopulationStrategy(low=play(), high=play())
        profits = _school_profits(prof, sorting, strategy)
        for school, policy in enumerate(prof):
            assert repr(_school_profit(policy.fee, school, sorting, strategy)) == repr(profits[school])


class TestAuditWorkCount:
    """Every deviation of every class of identical schools is answered by one
    construct_epbe call, looked up on `outer`, which calls mimic_frontier once,
    looked up on `subgame`.  Tracers that wrap those module attributes count
    exactly these calls.  Each deviation's Policy is built once per audit, and
    the pessimistic pass replays a deviation once per class."""

    @staticmethod
    def counting(calls, name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def audits(sorting, screening):
        """(outcome, params, number of classes): riley at n = 2, 4, 8 and the two-class profile."""
        audits = [
            (riley_rpbe(params.with_(n_schools=n)), params, 1)
            for market in (sorting, screening)
            for params in (market, market.with_(cost=CostFamily.power(3.0, 1.0, 1.5)))
            for n in (2, 4, 8)
        ]
        audits.append((two_class_outcome(sorting), sorting, 2))
        return audits

    @pytest.mark.parametrize("pessimistic", [False, True])
    def test_calls_per_audit(self, monkeypatch, sorting, screening, pessimistic):
        calls = Counter()
        monkeypatch.setattr(outer, "construct_epbe", self.counting(calls, "construct_epbe", outer.construct_epbe))
        monkeypatch.setattr(subgame, "mimic_frontier", self.counting(calls, "mimic_frontier", subgame.mimic_frontier))
        for outcome, params, classes in self.audits(sorting, screening):
            grid = DeviationGrid.for_profile(outcome.profile, params)
            calls.clear()
            deviation_audit(outcome, params, grid, pessimistic=pessimistic)
            per_kind = classes * len(_audit_deviations(outcome, params, grid))
            assert calls == {"construct_epbe": per_kind, "mimic_frontier": per_kind}

    def test_identical_schools_priced_once(self, monkeypatch, sorting, screening):
        """mimic_frontier prices each distinct policy object once: a riley
        deviation profile holds two, the deviation and the one object
        PolicyProfile.symmetric repeats, so CostFamily.affordable_count runs
        at most twice per construction at every n (n times before)."""
        calls = Counter()
        monkeypatch.setattr(subgame, "mimic_frontier", self.counting(calls, "mimic_frontier", subgame.mimic_frontier))
        monkeypatch.setattr(CostFamily, "affordable_count", self.counting(calls, "affordable_count", CostFamily.affordable_count))
        for outcome, params, classes in self.audits(sorting, screening):
            if classes != 1:
                continue
            grid = DeviationGrid.for_profile(outcome.profile, params)
            calls.clear()
            deviation_audit(outcome, params, grid)
            assert calls["mimic_frontier"] == len(_audit_deviations(outcome, params, grid))
            assert 0 < calls["affordable_count"] <= 2 * calls["mimic_frontier"], (outcome.profile.n, calls)

    @pytest.mark.parametrize("pessimistic", [False, True])
    def test_one_policy_per_deviation(self, monkeypatch, sorting, screening, pessimistic):
        built = Counter()
        monkeypatch.setattr(Policy, "__post_init__", self.counting(built, "Policy", Policy.__post_init__))
        for outcome, params, _ in self.audits(sorting, screening):
            grid = DeviationGrid.for_profile(outcome.profile, params)
            built.clear()
            deviation_audit(outcome, params, grid, pessimistic=pessimistic)
            assert built == {"Policy": len(_audit_deviations(outcome, params, grid))}

    @pytest.mark.parametrize("theta_L, n, replays", [(1.0, 2, 1), (1.0, 4, 1), (0.5, 2, 14), (0.5, 4, 14)])
    def test_replays_per_planted_audit(self, monkeypatch, sorting, theta_L, n, replays):
        """At theta_L = 0.5 several members of the one class gain; each deviation is still replayed once."""
        calls = Counter()
        replay = self.counting(calls, "brute_force_equilibria", outer.brute_force_equilibria)
        monkeypatch.setattr(outer, "brute_force_equilibria", replay)
        monkeypatch.setattr(Policy, "__post_init__", self.counting(calls, "Policy", Policy.__post_init__))
        params = sorting.with_(theta_L=theta_L)
        outcome = TestDeviationAudit().planted(params, n)
        grid = DeviationGrid.for_profile(outcome.profile, params)
        calls.clear()
        deviation_audit(outcome, params, grid, pessimistic=True)
        assert calls == {"brute_force_equilibria": replays, "Policy": len(_audit_deviations(outcome, params, grid))}


class TestAuditEntry:
    def entry(self):
        return AuditEntry(1, 0.25, (0.5, 1.0), "grid", -0.125, "canonical")

    def test_is_the_plain_tuple(self):
        plain = (1, 0.25, (0.5, 1.0), "grid", -0.125, "canonical")
        assert self.entry() == plain
        assert hash(self.entry()) == hash(plain)

    def test_fields_are_read_only(self):
        e = self.entry()
        for field in AuditEntry._fields:
            with pytest.raises(AttributeError):
                setattr(e, field, 0)

    def test_dict_round_trip(self, screening):
        out = riley_rpbe(screening.with_(n_schools=2))
        grid = DeviationGrid.for_profile(out.profile, screening)
        for pessimistic in (False, True):
            report = deviation_audit(out, screening, grid, pessimistic=pessimistic)
            for e in report.entries + (self.entry(),):
                data = json.loads(json.dumps(e.to_dict()))
                assert AuditEntry(**{**data, "thresholds": tuple(data["thresholds"])}) == e

    def test_rank_matches_the_single_key(self):
        entries = [
            AuditEntry(school, fee, thresholds, "grid", gain, "canonical")
            for gain in (0.5, 0.0, -0.0, -0.25)
            for school in (1, 0)
            for fee in (0.5, 0.0)
            for thresholds in ((1.0,), (), (0.5, 2.0), (0.5,))
        ]
        ranked = list(entries)
        _rank(ranked)
        assert ranked == sorted(entries, key=lambda e: (-e.gain, e.school, e.fee, e.thresholds))
        # 0.0 and -0.0 tie; of two entries equal on every key the earlier stays first
        assert [(e.school, e.fee, e.thresholds) for e in ranked[16:18]] == [(0, 0.0, ())] * 2
        assert [math.copysign(1.0, e.gain) for e in ranked[16:18]] == [1.0, -1.0]
