import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmarket import (
    CostFamily,
    InputError,
    MarketParams,
    RangeError,
    bayes_high,
    expected_type,
    low_per_high,
    posterior_mean,
    riley_effort,
    wage_offer,
)

LIN = CostFamily.linear(2.0, 1.0)
TAB = CostFamily.tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 5.0], [0.0, 1.0, 2.0])


class TestExpectedType:
    def test_hand_values(self):
        p = MarketParams(theta_L=1.0, theta_H=2.0, lam=0.5, cost=LIN)
        assert expected_type(p) == 1.5
        assert expected_type(p.with_(theta_L=-1.0, theta_H=1.0)) == 0.0
        assert expected_type(p.with_(theta_L=-1.0)) == 0.5

    @given(
        theta_h=st.floats(0.1, 50),
        gap=st.floats(0.01, 50),
        lam=st.floats(0.01, 0.99),
    )
    @settings(max_examples=60)
    def test_strictly_between_bounds(self, theta_h, gap, lam):
        p = MarketParams(theta_L=theta_h - gap, theta_H=theta_h, lam=lam, cost=LIN)
        assert p.theta_L < expected_type(p) < p.theta_H


class TestWageRule:
    def test_hand_values(self):
        p = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=LIN)
        assert posterior_mean(1.0, p) == 2.0 and posterior_mean(0.0, p) == -1.0
        assert wage_offer(0.5, p) == 0.5 and wage_offer(0.0, p) is None
        assert bayes_high(1.0, 1.0, p) == 0.5 and bayes_high(1.0, 0.0, p) == 1.0
        assert low_per_high(0.5, p) == 1.0  # a full pool earns the mean

    @given(
        theta_h=st.floats(0.5, 5.0),
        gap=st.floats(0.1, 5.0),
        lam=st.floats(0.05, 0.95),
        share=st.floats(0.01, 0.99),
    )
    @settings(max_examples=60)
    def test_low_per_high_inverts_bayes(self, theta_h, gap, lam, share):
        p = MarketParams(theta_L=theta_h - gap, theta_H=theta_h, lam=lam, cost=LIN)
        w = p.theta_L + share * gap
        assert posterior_mean(bayes_high(1.0, low_per_high(w, p), p), p) == pytest.approx(w, rel=1e-9, abs=1e-12)


class TestCost:
    def test_normalization_and_linearity(self):
        assert LIN.cost("H", 0.0) == 0.0
        assert LIN.cost("L", 0.5) == 1.0
        assert CostFamily.power(2.0, 1.0, 2.0).cost("H", 3.0) == 9.0

    def test_power_cost_beyond_the_float_range_is_infinite(self):
        # 1.25 ** 1e5 overflows a float; no budget affords that effort
        assert CostFamily.power(2, 1, 1e5).cost("L", 1.25) == math.inf
        assert CostFamily.power(2, 1, 1e5).cost("H", 0.5) == 0.0

    def test_tabulated_interpolates(self):
        tab = CostFamily.tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 5.0], [0.0, 1.0, 2.0])
        assert tab.cost("L", 0.5) == 1.0
        assert tab.cost("H", 1.5) == 1.5
        with pytest.raises(RangeError):
            tab.cost("L", 3.0)

    def test_negative_effort_rejected(self):
        with pytest.raises(InputError):
            LIN.cost("L", -0.1)

    def test_bad_constructions(self):
        with pytest.raises(InputError):
            CostFamily.linear(0.0, 1.0)
        with pytest.raises(InputError):
            CostFamily.power(2.0, 1.0, 0.5)
        with pytest.raises(InputError):
            CostFamily.tabulated([0.0, 1.0], [0.0, 1.0], [0.1, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        for make in (
            lambda: CostFamily.linear(bad, 1.0),
            lambda: CostFamily.power(2.0, 1.0, bad),
            lambda: CostFamily.tabulated([0.0, 1.0, bad], [0.0, 2.0, 3.0], [0.0, 1.0, 1.5]),
            lambda: CostFamily.tabulated([0.0, 1.0], [0.0, bad], [0.0, 1.0]),
        ):
            with pytest.raises(InputError, match="finite"):
                make()


class TestCostInverse:
    def test_hand_values(self):
        assert LIN.inverse("L", 1.0) == pytest.approx(0.5, abs=1e-9)
        assert LIN.inverse("H", 0.0) == 0.0
        assert CostFamily.power(2.0, 1.0, 2.0).inverse("H", 9.0) == pytest.approx(
            3.0, abs=1e-8
        )

    @given(effort=st.floats(0.0, 100.0), kind=st.sampled_from(["linear", "power"]))
    @settings(max_examples=80)
    def test_round_trip(self, effort, kind):
        cf = LIN if kind == "linear" else CostFamily.power(2.0, 1.0, 1.7)
        target = cf.cost("L", effort)
        back = cf.inverse("L", target)
        assert cf.cost("L", back) == pytest.approx(target, abs=1e-10)

    def test_tabulated_out_of_range(self):
        tab = CostFamily.tabulated([0.0, 1.0], [0.0, 2.0], [0.0, 1.0])
        with pytest.raises(RangeError):
            tab.inverse("L", 3.0)

    def test_closed_forms_are_exact(self):
        assert LIN.inverse("L", 1.0) == 0.5
        assert LIN.inverse("H", 3.0) == 3.0
        assert CostFamily.power(2.0, 1.0, 2.0).inverse("H", 9.0) == 3.0
        assert CostFamily.power(2.0, 1.0, 2.0).inverse("L", 8.0) == 2.0
        assert TAB.inverse("L", 3.5) == 1.5  # halfway along the (1, 2) -> (2, 5) segment
        assert TAB.inverse("H", 0.0) == 0.0

    def test_tabulated_knot_cost_maps_to_its_knot(self):
        for type_label, table in (("L", TAB.cost_L), ("H", TAB.cost_H)):
            assert [TAB.inverse(type_label, c) for c in table] == list(TAB.efforts)

    def test_tabulated_above_last_knot_raises(self):
        for type_label, table in (("L", TAB.cost_L), ("H", TAB.cost_H)):
            assert TAB.inverse(type_label, table[-1]) == TAB.efforts[-1]
            with pytest.raises(RangeError):
                TAB.inverse(type_label, math.nextafter(table[-1], math.inf))

    @given(
        kind=st.sampled_from(["linear", "power", "tabulated"]),
        type_label=st.sampled_from(["L", "H"]),
        share=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_closed_form_round_trip(self, kind, type_label, share):
        cf = {"linear": LIN, "power": CostFamily.power(2.0, 1.0, 1.7), "tabulated": TAB}[kind]
        top = (TAB.cost_L if type_label == "L" else TAB.cost_H)[-1] if kind == "tabulated" else 1e6
        target = share * top
        assert cf.cost(type_label, cf.inverse(type_label, target)) == pytest.approx(target, rel=1e-14, abs=1e-300)


class TestAffordableCount:
    def test_exact_comparison_counts_the_knife_edge(self):
        # c(L, 1) = 2 exactly: an effort costing the budget is affordable
        assert LIN.affordable_count("L", (0.5, 1.0, 1.5), 2.0) == 2
        assert LIN.affordable_count("L", (0.5, math.nextafter(1.0, 2.0)), 2.0) == 1
        assert LIN.affordable_count("L", (), 2.0) == 0

    def test_tabulated_is_never_extrapolated(self):
        # efforts beyond the last knot are over any budget the table covers
        assert TAB.affordable_count("L", (1.0, 2.0, 3.0), 5.0) == 2
        with pytest.raises(RangeError):
            TAB.affordable_count("L", (), 5.5)


# Cost families whose gap c(L, e) - c(H, e) fails to rise strictly with effort.
IRREGULAR = {
    "equal_slopes": {"kind": "linear", "kappa_L": 2.0, "kappa_H": 2.0},
    "flipped_slopes": {"kind": "linear", "kappa_L": 1.0, "kappa_H": 2.0},
    "equal_power": {"kind": "power", "kappa_L": 1.5, "kappa_H": 1.5, "exponent": 2.0},
    "flipped_power": {"kind": "power", "kappa_L": 1.0, "kappa_H": 2.0, "exponent": 1.5},
    "flipped_table": {"kind": "tabulated", "efforts": [0.0, 1.0, 2.0], "cost_L": [0.0, 1.0, 2.0], "cost_H": [0.0, 2.0, 4.0]},
    "flattening_table": {"kind": "tabulated", "efforts": [0.0, 1.0, 2.0], "cost_L": [0.0, 2.0, 3.0], "cost_H": [0.0, 1.0, 2.0]},
}


class TestDecreasingDifferences:
    @pytest.mark.parametrize("cost", IRREGULAR.values(), ids=IRREGULAR.keys())
    def test_irregular_family_is_rejected(self, cost):
        build = getattr(CostFamily, cost["kind"])
        # the message names the two efforts and their gaps
        with pytest.raises(InputError, match=r"decreasing differences: .* goes from \S+ at effort \S+ to \S+ at \S+"):
            build(**{k: v for k, v in cost.items() if k != "kind"})
        with pytest.raises(InputError, match="decreasing differences"):
            MarketParams.from_dict({"theta_L": -1.0, "theta_H": 2.0, "lambda": 0.5, "cost": cost})

    @given(
        kap_h=st.floats(0.1, 5.0),
        extra=st.floats(0.01, 5.0),
        order=st.sampled_from(["above", "equal", "below"]),
        kind=st.sampled_from(["linear", "power"]),
    )
    @settings(max_examples=60)
    def test_slope_order_decides(self, kap_h, extra, order, kind):
        kap_l = {"above": kap_h + extra, "equal": kap_h, "below": kap_h / (1.0 + extra)}[order]
        if order == "above":
            assert CostFamily(kind, kappa_L=kap_l, kappa_H=kap_h, exponent=1.5).kappa_L == kap_l
        else:
            with pytest.raises(InputError, match="decreasing differences"):
                CostFamily(kind, kappa_L=kap_l, kappa_H=kap_h, exponent=1.5)


class TestRileyEffort:
    def test_hand_values(self, sorting, screening):
        assert riley_effort(screening) == pytest.approx(1.0, abs=1e-9)
        assert riley_effort(sorting) == pytest.approx(0.5, abs=1e-9)
        small = screening.with_(theta_H=1.0)
        assert riley_effort(small) == pytest.approx(0.5, abs=1e-9)

    def test_monotone_in_theta_h(self, screening):
        ladder = [riley_effort(screening.with_(theta_H=th)) for th in (1.0, 1.5, 2.0, 3.0)]
        assert all(b > a for a, b in zip(ladder, ladder[1:]))

    def test_weakly_decreasing_in_low_outside_value(self, sorting):
        # raising max(theta_L, 0) shrinks the wage premium the low type forgoes
        ladder = [riley_effort(sorting.with_(theta_L=tl)) for tl in (0.0, 0.5, 1.0, 1.5)]
        assert all(b <= a + 1e-12 for a, b in zip(ladder, ladder[1:]))
        # negative theta_L values all behave like 0
        assert riley_effort(sorting.with_(theta_L=-2.0)) == pytest.approx(
            riley_effort(sorting.with_(theta_L=-0.001)), abs=1e-8
        )


class TestMarketParams:
    def test_validation(self):
        with pytest.raises(InputError):
            MarketParams(theta_L=1.0, theta_H=-2.0, lam=0.5, cost=LIN)
        with pytest.raises(InputError):
            MarketParams(theta_L=3.0, theta_H=2.0, lam=0.5, cost=LIN)
        with pytest.raises(InputError):
            MarketParams(theta_L=1.0, theta_H=2.0, lam=1.0, cost=LIN)
        with pytest.raises(InputError):
            MarketParams(theta_L=1.0, theta_H=2.0, lam=0.5, cost=LIN, credit_cap=0.0)

    @pytest.mark.parametrize("field", ["theta_L", "theta_H", "lam", "credit_cap"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, field, bad):
        values = dict(theta_L=1.0, theta_H=2.0, lam=0.5, cost=LIN, credit_cap=1.0)
        values[field] = bad
        with pytest.raises(InputError, match=field):
            MarketParams(**values)

    def test_regime_boundary(self):
        p = MarketParams(theta_L=0.0, theta_H=2.0, lam=0.5, cost=LIN)
        assert p.is_sorting

    def test_json_round_trip(self, screening):
        p = screening.with_(credit_cap=1.0, n_schools=2)
        assert MarketParams.from_dict(p.to_dict()) == p
        tab = CostFamily.tabulated([0.0, 1.0], [0.0, 2.0], [0.0, 1.0])
        q = p.with_(cost=tab)
        assert MarketParams.from_dict(q.to_dict()) == q

    def test_missing_field_names_offender(self):
        with pytest.raises(InputError, match="lambda"):
            MarketParams.from_dict({"theta_L": 0.0, "theta_H": 1.0, "cost": LIN.to_dict()})


def test_public_names_resolve_once():
    import sigmarket

    assert len(sigmarket.__all__) == len(set(sigmarket.__all__))
    for name in sigmarket.__all__:
        assert hasattr(sigmarket, name), name


def test_every_export_has_a_caller():
    """Each name in sigmarket.__all__ is loaded, as a name or an attribute,
    somewhere in the library's own modules, the benchmark, the demos or the
    acceptance suite: an export that only unit tests call has no caller.  No
    export is a submodule."""
    import ast
    import pathlib
    import types

    import sigmarket

    root = pathlib.Path(__file__).resolve().parents[1]
    package = root / "src" / "sigmarket"
    files = [f for f in package.glob("*.py") if f.name != "__init__.py"]
    files += [*(root / "bench").glob("*.py"), *(root / "demos").glob("*.py"), root / "tests" / "test_acceptance.py"]
    loaded = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert [name for name in sigmarket.__all__ if name not in loaded] == []
    assert [name for name in sigmarket.__all__ if isinstance(getattr(sigmarket, name), types.ModuleType)] == []
