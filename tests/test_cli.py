import argparse
import importlib.util
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from sigmarket import (
    CostFamily,
    DeviationGrid,
    EquilibriumOutcome,
    MarketParams,
    NumericError,
    Policy,
    PolicyProfile,
    StepMonitoringPolicy,
    brute_force_equilibria,
    construct_epbe,
    credit_monopoly_rpbe,
    deviation_audit,
    outcome_equivalent,
    riley_effort,
    riley_rpbe,
    semipooling_family,
    verify_extended_d1,
    verify_pbe,
)
from sigmarket.cli import COMMANDS, _dump, _parse_range, _solve_outcomes, build_parser, main
from sigmarket.outer import CSV_COLUMNS, outcome_csv_row
from sigmarket.market import MAX_GRID_POINTS, MAX_SCHOOLS, MAX_SWEEP_VALUES, MAX_THRESHOLDS, expected_type, low_per_high

LIN = CostFamily.linear(2.0, 1.0)


def write_params(tmp_path, params, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(params.to_dict()), encoding="utf-8")
    return str(path)


class TestSolve:
    def test_screening_monopoly_profit(self, tmp_path, screening):
        params_path = write_params(tmp_path, screening)
        out_path = tmp_path / "out.json"
        assert main(["solve", "--params", params_path, "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert len(payload) == 1
        assert payload[0]["label"] == "monopoly_screening"
        assert payload[0]["profits"] == [1.0]

    def test_competition_solve_emits_riley_first(self, tmp_path, screening):
        from sigmarket import mild_fee_set

        params = screening.with_(n_schools=2)
        params_path = write_params(tmp_path, params)
        out_path = tmp_path / "out.json"
        assert main(["solve", "--params", params_path, "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload[0]["label"] == "riley"
        fee_set = mild_fee_set(params)
        for entry in payload:
            fee = entry["profile"][0]["fee"]
            if entry["label"] == "semipooling_with_fee":
                assert fee > 0.0 and fee_set.contains(fee)
            else:
                assert fee == 0.0

    def test_malformed_params_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"theta_L": 1.0, "theta_H": 2.0}), encoding="utf-8")
        assert main(["solve", "--params", str(bad)]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["solve", "--params", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("solve", "theta_H", float("inf")),
            ("solve", "theta_L", -float("inf")),
            ("welfare", "kappa_L", float("nan")),
        ],
    )
    def test_non_finite_input_exit_2(self, tmp_path, screening, command, field, value):
        data = screening.with_(n_schools=2).to_dict()
        (data["cost"] if field.startswith("kappa") else data)[field] = value
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data), encoding="utf-8")  # bare Infinity / NaN tokens
        out_path = tmp_path / "out.json"
        assert main([command, "--params", str(path), "--out", str(out_path)]) == 2
        assert not out_path.exists()

    @pytest.mark.parametrize("field, value", [("kappa_L", "x"), ("theta_L", "abc"), ("kappa_L", True), ("theta_H", True)])
    def test_non_numeric_field_exit_2(self, tmp_path, screening, capsys, field, value):
        data = screening.with_(n_schools=2).to_dict()
        (data["cost"] if field.startswith("kappa") else data)[field] = value
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out_path = tmp_path / "out.json"
        assert main(["solve", "--params", str(path), "--out", str(out_path)]) == 2
        assert not out_path.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and repr(field) in captured.err

    @pytest.mark.parametrize(
        "cost",
        [
            {"kind": "linear", "kappa_L": 1.0, "kappa_H": 2.0},
            {"kind": "linear", "kappa_L": 2.0, "kappa_H": 2.0},
            {"kind": "tabulated", "efforts": [0.0, 1.0, 2.0], "cost_L": [0.0, 1.0, 2.0], "cost_H": [0.0, 2.0, 4.0]},
        ],
        ids=["kappa_L<kappa_H", "kappa_L=kappa_H", "flipped_table"],
    )
    def test_cost_without_decreasing_differences_exit_2(self, tmp_path, screening, capsys, cost):
        data = dict(screening.with_(n_schools=2).to_dict(), cost=cost)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out_path = tmp_path / "out.json"
        assert main(["solve", "--params", str(path), "--out", str(out_path)]) == 2
        assert not out_path.exists()
        assert "decreasing differences" in capsys.readouterr().err
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"points": [screening.to_dict(), data]}), encoding="utf-8")
        assert main(["sweep", "--params", str(sweep), "--out", str(out_path)]) == 2
        assert not out_path.exists()
        for command, (_, _, flags) in COMMANDS.items():
            if command in ("solve", "sweep"):
                continue
            extra = ["--profile", str(tmp_path / "unread.json")] if "--profile" in flags else []
            assert main([command, "--params", str(path), "--out", str(out_path), *extra]) == 2
            assert not out_path.exists()
            assert "decreasing differences" in capsys.readouterr().err, command

    @pytest.mark.parametrize("command", ["solve", "audit"])
    def test_one_school_cap_at_mean_productivity(self, tmp_path, command):
        """A one-school screening market capped exactly at its mean
        productivity, where the low types' share per high type rounds above
        1: every low type enrolls, at a wage equal to the cap."""
        params = MarketParams(theta_L=-0.5, theta_H=2.0, lam=0.4, cost=LIN, credit_cap=0.5)
        assert expected_type(params) == 0.5 and low_per_high(0.5, params) > 1.0
        out = tmp_path / "out.json"
        assert main([command, "--params", write_params(tmp_path, params), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        if command == "audit":
            assert payload["label"] == "monopoly_credit" and payload["certified"] is True
            return
        [outcome] = payload
        assert outcome["label"] == "monopoly_credit"
        assert outcome["enrollment"] == {"L": 1.0, "H": 1.0}
        assert outcome["wages"] == {"0:0": 0.5}

    def test_non_finite_result_is_not_written(self, tmp_path):
        with pytest.raises(NumericError):
            _dump({"x": float("nan")}, str(tmp_path / "out.json"))
        assert not (tmp_path / "out.json").exists()

    def test_tol_reaches_the_one_school_credit_family(self, tmp_path):
        """A one-school market capped at .2 emits six credit-family members at
        the default tolerance and seven at --tol 0.3: the extra one is the
        q_h = .5 partial member, whose low types clear the fee-plus-effort
        outlay only within 0.3."""
        params = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=LIN, credit_cap=0.2)
        path = write_params(tmp_path, params)
        runs = []
        for extra in ([], ["--tol", "0.3"]):
            out = tmp_path / "out.json"
            assert main(["solve", "--params", path, "--out", str(out), *extra]) == 0
            runs.append(json.loads(out.read_text()))
        default, loose = runs
        assert len(default) == 6 and len(loose) == 7
        member = credit_monopoly_rpbe(params).partial_member(0.0, 0.5, tol=0.3)
        assert [o for o in loose if o not in default] == [json.loads(json.dumps(member.to_dict()))]


class TestVerify:
    def test_constructed_bundle_passes(self, tmp_path, sorting):
        prof = PolicyProfile.of(Policy(fee=1.5, monitoring=StepMonitoringPolicy.uninformative()))
        eq = construct_epbe(prof, sorting)
        params_path = write_params(tmp_path, sorting)
        eq_path = tmp_path / "eq.json"
        eq_path.write_text(json.dumps(eq.to_dict()), encoding="utf-8")
        out_path = tmp_path / "rep.json"
        code = main(["verify", "--params", params_path, "--profile", str(eq_path), "--out", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["passed"] is True

    def test_corrupted_bundle_fails(self, tmp_path, sorting):
        prof = PolicyProfile.of(Policy(fee=1.5, monitoring=StepMonitoringPolicy.uninformative()))
        eq = construct_epbe(prof, sorting)
        payload = eq.to_dict()
        payload["wages"]["0:0"] = 2.0  # inconsistent with pooled beliefs
        eq_path = tmp_path / "eq.json"
        eq_path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["verify", "--params", write_params(tmp_path, sorting), "--profile", str(eq_path)])
        assert code == 1

    def test_tampered_payoff_names_the_type(self, tmp_path, sorting):
        prof = PolicyProfile.of(Policy(fee=1.5, monitoring=StepMonitoringPolicy.uninformative()))
        payload = construct_epbe(prof, sorting).to_dict()
        payload["payoff_H"] += 0.5
        eq_path = tmp_path / "eq.json"
        eq_path.write_text(json.dumps(payload), encoding="utf-8")
        out_path = tmp_path / "rep.json"
        code = main(
            ["verify", "--params", write_params(tmp_path, sorting), "--profile", str(eq_path), "--out", str(out_path)]
        )
        assert code == 1
        violations = json.loads(out_path.read_text())["reports"]["pbe"]["violations"]
        assert any(v["kind"] == "student_best_response" and "type H" in v["detail"] for v in violations)


    @pytest.mark.parametrize("tol, code", [(None, 1), ("1e-6", 0)], ids=["default", "1e-6"])
    def test_tol_reaches_the_verifiers(self, tmp_path, screening, tol, code):
        """A stored payoff 1e-7 off its recomputation fails at the default
        tolerance and passes at --tol 1e-6."""
        params = screening.with_(n_schools=2)
        payload = riley_rpbe(params).to_subgame(params).to_dict()
        payload["payoff_H"] += 1e-7
        eq_path = tmp_path / "eq.json"
        eq_path.write_text(json.dumps(payload), encoding="utf-8")
        out_path = tmp_path / "rep.json"
        argv = ["verify", "--params", write_params(tmp_path, params), "--profile", str(eq_path), "--out", str(out_path)]
        assert main(argv + ([] if tol is None else ["--tol", tol])) == code
        details = [v["detail"] for v in json.loads(out_path.read_text())["reports"]["pbe"]["violations"]]
        assert ("stored payoff for type H off by recomputation" in details) == (code == 1)


    @pytest.mark.parametrize("school", [-1, 2])
    def test_atom_at_a_school_outside_the_profile_exit_2(self, tmp_path, screening, capsys, school):
        """The n = 2 riley bundle with its first high atom moved to school -1
        (which would index the last school) or 2 (past the end), and a wage
        and belief for that school's top band, is malformed input, refused
        naming the field."""
        params = screening.with_(n_schools=2)
        payload = riley_rpbe(params).to_subgame(params).to_dict()
        payload["strategy"]["H"][0]["school"] = school
        payload["wages"][f"{school}:1"] = payload["wages"]["0:1"]
        payload["beliefs"][f"{school}:1"] = payload["beliefs"]["0:1"]
        eq_path, out_path = tmp_path / "eq.json", tmp_path / "rep.json"
        eq_path.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["verify", "--params", write_params(tmp_path, params), "--profile", str(eq_path), "--out", str(out_path)]
        assert main(argv) == 2
        assert not out_path.exists()
        assert f"'strategy' sends students to school {school}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "field, key", [("wages", "7:0"), ("wages", "0:9"), ("beliefs", "7:0")], ids=["wage_school", "wage_message", "belief"]
    )
    def test_key_naming_a_signal_outside_the_profile_exit_2(self, tmp_path, screening, capsys, field, key):
        """The n = 2 riley bundle plus a wage or belief at a signal its profile
        does not emit (school 7, or message 9 of school 0) is malformed
        input, refused naming the field."""
        params = screening.with_(n_schools=2)
        payload = riley_rpbe(params).to_subgame(params).to_dict()
        payload[field][key] = 0.0
        eq_path, out_path = tmp_path / "eq.json", tmp_path / "rep.json"
        eq_path.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["verify", "--params", write_params(tmp_path, params), "--profile", str(eq_path), "--out", str(out_path)]
        assert main(argv) == 2
        assert not out_path.exists()
        assert f"field {field!r} names signal {key}" in capsys.readouterr().err


    @pytest.mark.parametrize("schools, thresholds, code", [(8, MAX_THRESHOLDS, 0), (257, 0, 2)], ids=["at_cap", "over_cap"])
    def test_school_signal_cap(self, tmp_path, screening, capsys, monkeypatch, schools, thresholds, code):
        """Eight schools of MAX_THRESHOLDS thresholds make MAX_VERIFY_PAIRS
        school x signal pairs, which verify takes; 257 uninformative schools
        (66049 pairs) are refused with exit 2, naming the size, before any
        verifier runs."""
        from sigmarket import cli
        from sigmarket.refinement import MAX_VERIFY_PAIRS, VerificationReport

        monitoring = StepMonitoringPolicy(tuple(0.001 * (k + 1) for k in range(thresholds)), tuple(range(thresholds + 1)))
        prof = PolicyProfile.symmetric(Policy(fee=0.2, monitoring=monitoring), schools)
        pairs = schools * schools * (thresholds + 1)
        assert (pairs == MAX_VERIFY_PAIRS) == (code == 0) and (pairs > MAX_VERIFY_PAIRS) == (code == 2)
        params = screening.with_(n_schools=2)
        eq_path, out_path = tmp_path / "eq.json", tmp_path / "rep.json"
        eq_path.write_text(json.dumps(construct_epbe(prof, params).to_dict()), encoding="utf-8")
        calls = []
        for name in ("verify_pbe", "verify_extended_d1", "check_minimality"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name) or VerificationReport(True, ()))
        argv = ["verify", "--params", write_params(tmp_path, params), "--profile", str(eq_path), "--out", str(out_path)]
        assert main(argv) == code
        if code == 0:
            assert calls == ["verify_pbe", "verify_extended_d1", "check_minimality"]
            return
        assert not calls and not out_path.exists()
        message = f"bundle has {schools} schools x {schools * (thresholds + 1)} signals = {pairs}; verify takes at most {MAX_VERIFY_PAIRS}"
        assert message in capsys.readouterr().err


class TestOracleCompare:
    def test_riley_profile_matches(self, tmp_path, screening):
        params = screening.with_(n_schools=2)
        e_r = riley_effort(params)
        prof = PolicyProfile.symmetric(Policy(fee=0.0, monitoring=StepMonitoringPolicy.cutoff(e_r)), 2)
        prof_path = tmp_path / "profile.json"
        prof_path.write_text(json.dumps(prof.to_list()), encoding="utf-8")
        out_path = tmp_path / "cmp.json"
        code = main(
            [
                "oracle-compare",
                "--params",
                write_params(tmp_path, params),
                "--profile",
                str(prof_path),
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["match"] is True
        assert payload["oracle_count"] >= 1


    def test_non_numeric_fee_exit_2(self, tmp_path, screening, capsys):
        params = screening.with_(n_schools=2)
        prof = PolicyProfile.symmetric(Policy(fee=0.0, monitoring=StepMonitoringPolicy.cutoff(0.5)), 2).to_list()
        for fee in ([1], True):  # a boolean is not read as 0 or 1
            prof[1]["fee"] = fee
            prof_path = tmp_path / "profile.json"
            prof_path.write_text(json.dumps(prof), encoding="utf-8")
            out_path = tmp_path / "cmp.json"
            args = ["oracle-compare", "--params", write_params(tmp_path, params), "--profile", str(prof_path)]
            assert main(args + ["--out", str(out_path)]) == 2
            assert not out_path.exists()
            captured = capsys.readouterr()
            assert captured.out == "" and "'fee'" in captured.err

    def test_oversized_request_exit_2_before_solving(self, tmp_path, screening, capsys, monkeypatch):
        from sigmarket import cli
        from sigmarket.refinement import MAX_ORACLE_ACTIONS

        bands = MAX_ORACLE_ACTIONS  # with the outside option, one action over the cap
        monitoring = {"thresholds": [0.05 * k for k in range(1, bands)], "messages": list(range(bands))}
        prof_path = tmp_path / "profile.json"
        prof_path.write_text(json.dumps([{"fee": 0.0, "monitoring": monitoring}]), encoding="utf-8")
        calls = []
        monkeypatch.setattr(cli, "construct_epbe", lambda *a, **k: calls.append(a))
        out_path = tmp_path / "cmp.json"
        args = ["oracle-compare", "--params", write_params(tmp_path, screening), "--profile", str(prof_path)]
        assert main(args + ["--out", str(out_path)]) == 2
        assert not out_path.exists() and not calls
        assert f"{MAX_ORACLE_ACTIONS + 1} candidate actions" in capsys.readouterr().err


class TestSweep:
    def sweep_spec(self, tmp_path, screening):
        spec = {
            "base": screening.to_dict(),
            "vary": {"lambda": [0.3, 0.5, 0.7], "n_schools": [1, 2]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    def test_csv_schema_and_determinism(self, tmp_path, screening):
        spec_path = self.sweep_spec(tmp_path, screening)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--params", spec_path, "--out", str(out_a)]) == 0
        assert main(["sweep", "--params", spec_path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0].startswith("theta_L,theta_H,lambda,n_schools")
        assert len(lines) > 6

    def test_jobs_flag_is_gone(self, tmp_path, screening):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--params", self.sweep_spec(tmp_path, screening), "--jobs", "3"])
        assert exc.value.code == 2

    def write_vary(self, tmp_path, base, vary):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": base, "vary": vary}), encoding="utf-8")
        return str(path)

    def test_cost_field_vary_moves_the_rows(self, tmp_path, sorting):
        spec = self.write_vary(tmp_path, sorting.with_(n_schools=2).to_dict(), {"kappa_L": [2, 3, 4]})
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--params", spec, "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        kappa_l = header.split(",").index("kappa_L")
        by_point = {}
        for row in rows:
            cells = row.split(",")
            by_point.setdefault(cells.pop(kappa_l), []).append(tuple(cells))
        assert sorted(by_point) == ["2", "3", "4"]
        # the rest of each point's rows (riley effort, payoffs, welfare) moves with kappa_L
        assert len({tuple(v) for v in by_point.values()}) == 3

    def test_unknown_vary_key_exit_2(self, tmp_path, screening, capsys):
        spec = self.write_vary(tmp_path, screening.to_dict(), {"bogus": [2, 3]})
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--params", spec, "--out", str(out)]) == 2
        assert not out.exists()
        assert "'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("vary", [{"kappa_L": [2, 3]}, {"lambda": [0.3, 0.5]}])
    def test_base_without_cost_exit_2(self, tmp_path, screening, capsys, vary):
        base = screening.to_dict()
        del base["cost"]
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--params", self.write_vary(tmp_path, base, vary), "--out", str(out)]) == 2
        assert not out.exists()
        assert "'cost'" in capsys.readouterr().err

    def test_vary_points_do_not_share_the_cost(self, screening):
        from sigmarket.cli import _sweep_points

        base = screening.to_dict()
        points = _sweep_points({"base": base, "vary": {"kappa_L": [2.5, 3.0], "lambda": [0.3, 0.6]}})
        assert [(p.cost.kappa_L, p.lam) for p in points] == [(2.5, 0.3), (2.5, 0.6), (3.0, 0.3), (3.0, 0.6)]
        assert base == screening.to_dict()

    def test_vary_product_beyond_cap_exit_2(self, tmp_path, screening, capsys, monkeypatch):
        """`vary` lists whose lengths multiply to MAX_SWEEP_VALUES + 1 are
        refused before any point is built."""
        from sigmarket import cli

        built = []
        monkeypatch.setattr(cli, "_with_field", lambda *a: built.append(a))
        assert 73 * 137 == MAX_SWEEP_VALUES + 1
        spec = self.write_vary(tmp_path, screening.to_dict(), {"lambda": [0.5] * 73, "theta_H": [2.0] * 137})
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--params", spec, "--out", str(out)]) == 2
        assert not out.exists() and not built
        assert f"make {MAX_SWEEP_VALUES + 1} points; a sweep takes at most {MAX_SWEEP_VALUES}" in capsys.readouterr().err

    def test_points_beyond_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        """A `points` list of MAX_SWEEP_VALUES + 1 entries is refused before
        any point is parsed."""
        from sigmarket import cli

        parsed = []
        monkeypatch.setattr(cli.MarketParams, "from_dict", lambda data: parsed.append(data))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"points": [{}] * (MAX_SWEEP_VALUES + 1)}), encoding="utf-8")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--params", str(path), "--out", str(out)]) == 2
        assert not out.exists() and not parsed
        assert f"lists {MAX_SWEEP_VALUES + 1} points; a sweep takes at most {MAX_SWEEP_VALUES}" in capsys.readouterr().err

    def test_bad_spec_exit_2(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"vary": {}}), encoding="utf-8")
        assert main(["sweep", "--params", str(path)]) == 2

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"points": 3}, "'points'"),
            ({"base": "params", "vary": {"lambda": 0.5}}, "'lambda'"),
            ({"base": "params", "vary": [0.5]}, "'vary'"),
            ({"base": [1, 2], "vary": {"lambda": [0.5]}}, "'base'"),
        ],
        ids=["points_not_array", "values_not_array", "vary_not_object", "base_not_object"],
    )
    def test_malformed_spec_exit_2(self, tmp_path, screening, capsys, spec, named):
        if spec.get("base") == "params":
            spec = dict(spec, base=screening.to_dict())
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--params", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert named in capsys.readouterr().err


class TestWelfareCommand:
    def test_report_and_plot_csv(self, tmp_path, screening):
        params_path = write_params(tmp_path, screening.with_(n_schools=2))
        out_path = tmp_path / "welfare.json"
        code = main(
            [
                "welfare",
                "--params",
                params_path,
                "--out",
                str(out_path),
                "--sweep-param",
                "lambda",
                "--sweep-range",
                "0.2:0.8:7",
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload[0]["label"] == "riley"
        plot = (tmp_path / "welfare_plot.csv").read_text().splitlines()
        assert plot[0] == "lambda,monopoly_welfare,competition_welfare,max_welfare"
        assert len(plot) == 8

    def test_cost_field_sweep_moves_the_rows(self, tmp_path, sorting):
        params_path = write_params(tmp_path, sorting.with_(n_schools=2))
        out_path = tmp_path / "welfare.json"
        argv = ["welfare", "--params", params_path, "--out", str(out_path)]
        assert main(argv + ["--sweep-param", "kappa_L", "--sweep-range", "1.5:3:4"]) == 0
        rows = (tmp_path / "welfare_plot.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        # the riley effort, hence competition welfare, depends on kappa_L
        assert len({row.split(",")[2] for row in rows}) == 4

    @pytest.mark.parametrize("name", ["bogus", "exponent", "cost", "kind"])
    def test_unknown_sweep_param_exit_2(self, tmp_path, sorting, capsys, name):
        out_path = tmp_path / "welfare.json"
        argv = ["welfare", "--params", write_params(tmp_path, sorting), "--out", str(out_path)]
        assert main(argv + ["--sweep-param", name, "--sweep-range", "1.5:3:4"]) == 2
        assert not out_path.exists() and not (tmp_path / "welfare_plot.csv").exists()
        assert repr(name) in capsys.readouterr().err

    def test_bad_range_exit_2(self, tmp_path, screening):
        out_path = tmp_path / "welfare.json"
        for text in ("backwards", "0.1:inf:3", "nan:1:3"):
            argv = ["welfare", "--params", write_params(tmp_path, screening), "--out", str(out_path)]
            assert main(argv + ["--sweep-range", text]) == 2, text
            assert not out_path.exists() and not (tmp_path / "welfare_plot.csv").exists()

    def test_sweep_count_beyond_cap_exit_2(self, tmp_path, screening, capsys):
        """A count above MAX_SWEEP_VALUES is refused by _parse_range before any
        value is listed or solved; the cap itself parses."""
        out_path = tmp_path / "welfare.json"
        argv = ["welfare", "--params", write_params(tmp_path, screening), "--out", str(out_path)]
        assert main(argv + ["--sweep-range", f"0.05:0.95:{MAX_SWEEP_VALUES + 1}"]) == 2
        assert not out_path.exists() and not (tmp_path / "welfare_plot.csv").exists()
        assert f"a count from 2 to {MAX_SWEEP_VALUES}" in capsys.readouterr().err
        assert len(_parse_range(f"0.05:0.95:{MAX_SWEEP_VALUES}")) == MAX_SWEEP_VALUES

    def test_irregular_sweep_values_are_skipped(self, tmp_path, sorting):
        # kappa_H = 1: the values 0.5 and 1 break decreasing differences
        params_path = write_params(tmp_path, sorting.with_(n_schools=2))
        argv = ["welfare", "--params", params_path, "--out", str(tmp_path / "welfare.json")]
        assert main(argv + ["--sweep-param", "kappa_L", "--sweep-range", "0.5:3:6"]) == 0
        rows = (tmp_path / "welfare_plot.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1.5", "2", "2.5", "3"]


class TestAudit:
    def test_riley_certified(self, tmp_path, screening):
        params_path = write_params(tmp_path, screening.with_(n_schools=2))
        out_path = tmp_path / "audit.json"
        code = main(["audit", "--params", params_path, "--out", str(out_path), "--pessimistic"])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["certified"] is True and payload["label"] == "riley"

    def test_monopoly_certified(self, tmp_path, sorting):
        code = main(["audit", "--params", write_params(tmp_path, sorting), "--out", str(tmp_path / "a.json")])
        assert code == 0


class TestJsonRoundTrips:
    def test_solve_output_reparses(self, tmp_path, screening):
        from sigmarket import EquilibriumOutcome

        params_path = write_params(tmp_path, screening.with_(n_schools=2))
        out_path = tmp_path / "out.json"
        main(["solve", "--params", params_path, "--out", str(out_path)])
        for entry in json.loads(out_path.read_text()):
            EquilibriumOutcome.from_dict(entry)

    def test_byte_identical_repeat(self, tmp_path, screening):
        params_path = write_params(tmp_path, screening.with_(n_schools=2))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", "--params", params_path, "--out", str(a)])
        main(["solve", "--params", params_path, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_each_command_takes_only_its_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMANDS)
    for name, (_, _, flags) in COMMANDS.items():
        options = {o for action in sub.choices[name]._actions for o in action.option_strings}
        assert options == set(flags) | {"--params", "--tol", "--out", "-h", "--help"}, name


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--format", "json"],
        ["solve", "--pessimistic"],
        ["audit", "--profile", "p.json"],
        ["verify"],
        ["oracle-compare"],
        ["solve", "--tol", "0"],
        ["solve", "--tol", "-1e-9"],
        ["solve", "--tol", "nan"],
        ["solve", "--tol", "inf"],
        ["solve", "--tol", "abc"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_rejected_command_line_exit_2(tmp_path, screening, capsys, argv):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--params", write_params(tmp_path, screening), "--out", str(out), *argv[1:]])
    assert exc.value.code == 2
    assert not out.exists()
    assert "usage:" in capsys.readouterr().err


# Two schools with three thresholds each: 9 candidate actions for the oracle.
NINE_ACTIONS = [
    {"fee": 0.1, "monitoring": {"thresholds": [0.2, 0.55, 1.1], "messages": [0, 1, 2, 3]}},
    {"fee": 0.0, "monitoring": {"thresholds": [0.35, 0.8, 1.45], "messages": [0, 1, 2, 3]}},
]


def oracle_inputs(tmp_path, screening):
    """Params, the NINE_ACTIONS profile and its constructed bundle, as files."""
    params = screening.with_(n_schools=2)
    profile = PolicyProfile.from_list(NINE_ACTIONS)
    prof_path, bundle_path = tmp_path / "profile.json", tmp_path / "bundle.json"
    prof_path.write_text(json.dumps(NINE_ACTIONS), encoding="utf-8")
    bundle_path.write_text(json.dumps(construct_epbe(profile, params).to_dict()), encoding="utf-8")
    return write_params(tmp_path, params), str(prof_path), str(bundle_path)


@pytest.mark.parametrize(
    "command, field, value",
    [("solve", "n_schools", 2.7), ("solve", "n_schools", True), ("oracle-compare", "messages", [0, 1.5]), ("verify", "school", 0.5)],
    ids=["n_schools=2.7", "n_schools=true", "messages=[0,1.5]", "school=0.5"],
)
def test_non_integral_integer_field_exit_2(tmp_path, screening, capsys, command, field, value):
    params, profile, bundle = oracle_inputs(tmp_path, screening)
    path = {"n_schools": params, "messages": profile, "school": bundle}[field]
    data = json.loads(Path(path).read_text())
    if field == "n_schools":
        data["n_schools"] = value
    elif field == "messages":
        data[0]["monitoring"] = {"thresholds": [0.2], "messages": value}
    else:
        data["strategy"]["H"][0]["school"] = value
    Path(path).write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out.json"
    extra = {"solve": [], "oracle-compare": ["--profile", profile], "verify": ["--profile", bundle]}[command]
    assert main([command, "--params", params, "--out", str(out), *extra]) == 2
    assert not out.exists()
    assert repr(field) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("verify", "0:1", math.nan),
        ("verify", "payoff_H", math.nan),
        ("verify", "prob", math.nan),
        ("verify", "payoff_L", math.inf),
        ("solve", "theta_H", 10**400),
        ("verify", "0:1", True),
        ("solve", "theta_H", True),
    ],
    ids=["wage=NaN", "payoff_H=NaN", "prob=NaN", "payoff_L=Infinity", "theta_H=400 digits", "wage=true", "theta_H=true"],
)
def test_non_finite_number_field_exit_2(tmp_path, capsys, command, field, value):
    """A number that is not finite as a float (NaN, infinities, an integer
    too large to convert) is malformed input, named in the message, and so
    is a boolean, which is never read as 0 or 1."""
    params = MarketParams(theta_L=0.5, theta_H=2.0, lam=0.5, cost=LIN)
    profile = PolicyProfile.of(Policy(fee=0.0, monitoring=StepMonitoringPolicy.cutoff(0.75)))
    bundle = construct_epbe(profile, params).to_dict()
    data = params.to_dict()
    if field == "0:1":
        bundle["wages"][field] = value
    elif field == "prob":
        bundle["strategy"]["H"][0][field] = value
    elif field.startswith("payoff"):
        bundle[field] = value
    else:
        data[field] = value
    params_path, bundle_path = tmp_path / "params.json", tmp_path / "bundle.json"
    params_path.write_text(json.dumps(data), encoding="utf-8")
    bundle_path.write_text(json.dumps(bundle), encoding="utf-8")
    out = tmp_path / "out.json"
    extra = ["--profile", str(bundle_path)] if command == "verify" else []
    assert main([command, "--params", str(params_path), "--out", str(out), *extra]) == 2
    assert not out.exists()
    assert repr(field) in capsys.readouterr().err


def test_power_cost_beyond_the_float_range(tmp_path):
    """A power cost that overflows a float is infinite, so no budget affords
    that effort: on a cutoff at 5.0 with exponent 1e5, audit (both modes),
    oracle-compare and verify run to a verdict and exit 0."""
    params = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.power(2.0, 1.0, 1e5), n_schools=2)
    policies = [{"fee": 0.0, "monitoring": {"thresholds": [5.0], "messages": [0, 1]}}]
    bundle = construct_epbe(PolicyProfile.from_list(policies), params).to_dict()
    paths = {name: tmp_path / f"{name}.json" for name in ("profile", "bundle", "out")}
    paths["profile"].write_text(json.dumps(policies), encoding="utf-8")
    paths["bundle"].write_text(json.dumps(bundle), encoding="utf-8")
    args = ["--params", write_params(tmp_path, params), "--out", str(paths["out"])]
    for pessimistic in ([], ["--pessimistic"]):
        assert main(["audit", *args, *pessimistic]) == 0
        assert json.loads(paths["out"].read_text())["max_gain"] == 0.0
    assert main(["oracle-compare", *args, "--profile", str(paths["profile"])]) == 0
    assert main(["verify", *args, "--profile", str(paths["bundle"])]) == 0


@pytest.mark.parametrize("n, cap", [(1, None), (1, 1.0), (2, None), (3, None)])
@pytest.mark.parametrize("market", ["sorting", "screening"])
def test_outcomes_have_the_markets_school_count(request, market, n, cap):
    """Every outcome solved for a market has its school count, and its CSV
    row says so."""
    params = request.getfixturevalue(market).with_(n_schools=n, credit_cap=cap)
    outcomes = _solve_outcomes(params, 1e-9)
    assert outcomes
    for outcome in outcomes:
        assert outcome.profile.n == n
        assert outcome_csv_row(outcome, params)[CSV_COLUMNS.index("n_schools")] == str(n)


def test_n_schools_cap_parses():
    data = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=LIN).to_dict()
    data["n_schools"] = MAX_SCHOOLS
    assert MarketParams.from_dict(data).n_schools == MAX_SCHOOLS


@pytest.mark.parametrize("command", ["verify", "oracle-compare", "audit"])
def test_grid_points_cap_parses(command):
    argv = [command, "--params", "params.json", "--grid-points", str(MAX_GRID_POINTS)]
    assert build_parser().parse_args(argv + (["--profile", "p.json"] if command != "audit" else [])).grid_points == MAX_GRID_POINTS


@pytest.mark.parametrize("command", ["verify", "oracle-compare", "audit"])
@pytest.mark.parametrize("value", [str(MAX_GRID_POINTS + 1), "1", "2.5"])
def test_grid_points_beyond_cap_exit_2(capsys, command, value):
    """--grid-points outside 2..MAX_GRID_POINTS is refused by the argument
    parser, naming the flag, before a file is read or a grid is built."""
    argv = [command, "--params", "params.json", "--grid-points", value]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + (["--profile", "p.json"] if command != "audit" else []))
    assert exc.value.code == 2
    assert "argument --grid-points" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "audit"])
@pytest.mark.parametrize("value", [MAX_SCHOOLS + 1, 10**400], ids=["cap+1", "400 digits"])
def test_n_schools_beyond_cap_exit_2(tmp_path, capsys, command, value):
    """Too many schools is malformed input, refused while the params are
    parsed, so no profile of that size is ever built."""
    data = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=LIN).to_dict()
    data["n_schools"] = value
    params_path, out = tmp_path / "params.json", tmp_path / "out.json"
    params_path.write_text(json.dumps(data), encoding="utf-8")
    assert main([command, "--params", str(params_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "'n_schools'" in capsys.readouterr().err


def test_thresholds_beyond_cap_exit_2(tmp_path, screening, capsys):
    """A policy listing MAX_THRESHOLDS + 1 thresholds is refused while the
    profile is parsed, naming the field."""
    thresholds = [0.001 * (k + 1) for k in range(MAX_THRESHOLDS + 1)]
    profile = [{"fee": 0.0, "monitoring": {"thresholds": thresholds, "messages": list(range(len(thresholds) + 1))}}]
    prof_path, out = tmp_path / "profile.json", tmp_path / "out.json"
    prof_path.write_text(json.dumps(profile), encoding="utf-8")
    argv = ["oracle-compare", "--params", write_params(tmp_path, screening), "--profile", str(prof_path), "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert f"'thresholds' is malformed: expected at most {MAX_THRESHOLDS} thresholds" in capsys.readouterr().err


def test_bench_command_lines_run(tmp_path, screening):
    """The command lines of the bench harness (bench/workloads.py), argument
    for argument: an option it passes must keep being accepted."""
    params, profile, bundle = oracle_inputs(tmp_path, screening)
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"points": [screening.to_dict()]}), encoding="utf-8")
    out = str(tmp_path / "out")
    assert main(["sweep", "--params", str(sweep), "--out", out]) == 0
    assert main(["audit", "--params", params, "--out", out]) == 0
    assert main(["audit", "--params", params, "--out", out, "--pessimistic"]) == 0
    assert main(["oracle-compare", "--params", params, "--profile", profile, "--grid-points", "15", "--out", out]) == 0
    assert main(["verify", "--params", params, "--profile", bundle, "--grid-points", "15", "--out", out]) == 0


def bench_module(name: str):
    """bench/<name>.py, loaded by path (the bench is not a package)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", Path(__file__).resolve().parents[1] / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_names_resolve():
    """Every library name the bench harness reaches for exists: each traced
    (module, attribute) in bench/tracing.py's SPANS, and the names that
    bench/workloads.py calls.  A rename shows here, not only in the bench's
    own tests."""
    tracing = bench_module("tracing")
    targets = [target for pairs in tracing.SPANS.values() for target in pairs]
    called = ("DeviationGrid.for_profile", "deviation_audit", "EquilibriumOutcome.from_dict", "MarketParams.from_dict", "outer.CSV_COLUMNS")
    targets += [("sigmarket", name) for name in called]
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)


BENCH_OPS = bench_module("test_bench").OPS  # the operation counts the bench's own tests run at seed 7


@pytest.mark.parametrize("workload", sorted(BENCH_OPS))
def test_bench_traced_run_passes_its_self_check(tmp_path, monkeypatch, workload):
    """bench/run.py's traced measurement, in process and in tier-1: no wrong
    answer and every span HOT predicts records a call, with the call
    relations bench/test_bench.py asserts.  The sweep calls the closed-form
    solvers and never a `subgame.*` or `refinement.*` span, so a solver that
    routes through the constructor or a verifier shows here."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    run = bench_module("run")
    args = argparse.Namespace(workload=workload, seed=7, seconds=0.0, trace=1, ops=BENCH_OPS[workload])
    record = run.measure(args, tmp_path)
    assert record["wrong"] == []
    calls = {k[: -len(".calls")]: m["value"] for k, m in record["metrics"].items() if k.endswith(".calls")}
    if workload == "sweep":
        layers = [name for name in importlib.import_module("tracing").SPANS if name.startswith(("subgame.", "refinement."))]
        assert calls["outer.solve"] > 0
        assert len(layers) == 6 and {name: calls[name] for name in layers} == dict.fromkeys(layers, 0)
    elif workload == "oracle":
        assert calls["refinement.verify_pbe"] > calls["subgame.construct_epbe"]
    else:
        assert calls["subgame.construct_epbe"] > calls["refinement.verify_pbe"]
        assert calls["refinement.brute_force"] > 0


def census_cell(outcome: EquilibriumOutcome, params: MarketParams) -> tuple:
    """(kind, both verifiers pass, construct_epbe on the outcome's own profile
    plays the same strategy and wages, and earns the same payoffs)."""
    kind = outcome.label
    if kind.startswith("monopoly_"):
        kind = "monopoly"
    elif kind == "credit_family":
        kind = "credit_pooling" if len({a.effort for a in outcome.on_path.high}) == 1 else "credit_partial"
    eq = outcome.to_subgame(params)
    constructed = construct_epbe(outcome.profile, params)
    assert verify_pbe(constructed, params).passed and verify_extended_d1(constructed, params).passed
    return (
        kind,
        verify_pbe(eq, params).passed and verify_extended_d1(eq, params).passed,
        constructed.strategy == outcome.on_path and constructed.wages == outcome.wages,
        (constructed.payoff_L, constructed.payoff_H) == outcome.payoffs,
    )


def bench_sweep_pool() -> list[tuple[MarketParams, EquilibriumOutcome]]:
    """(params, outcome) for every outcome `solve` emits on the bench's 480
    sweep points: seeds 0-4, files 0-7 drawn in order from one generator per
    seed, as the bench draws them."""
    workloads = bench_module("workloads")
    pool = []
    for seed in range(5):
        rng = random.Random(seed)
        for file_index in range(8):
            for data in workloads._sweep_points(rng, file_index):
                params = MarketParams.from_dict(data)
                pool += [(params, o) for o in _solve_outcomes(params, 1e-9)]
    return pool


def test_census_of_the_bench_sweep_pool():
    """Every outcome `solve` emits on the bench's 480 sweep points (seeds
    0-4, files 0-7 drawn in order from one generator per seed, as the bench
    draws them) passes both verifiers.  construct_epbe on the outcome's own
    profile reproduces the riley and monopoly outcomes bit for bit, and the
    credit-family pooling members' play (94 of their payoffs differ in the
    last bits); for the semi-pooling and partial members it plays another
    verified continuation (ROADMAP items 17 and 18).  The sweep reads these
    closed forms without calling the constructor, so the counts pin both."""
    census = Counter(census_cell(o, params) for params, o in bench_sweep_pool())
    assert census == {
        ("riley", True, True, True): 360,
        ("monopoly", True, True, True): 86,
        ("credit_pooling", True, True, True): 76,
        ("credit_pooling", True, True, False): 94,
        ("credit_partial", True, False, False): 65,
        ("semipooling_zero_fee", True, False, False): 310,
        ("semipooling_with_fee", True, False, False): 32,
    }


def canonically_certified(outcome: EquilibriumOutcome, params: MarketParams) -> bool:
    """The verdict of `audit` without --pessimistic: a 21-point grid."""
    grid = DeviationGrid.for_profile(outcome.profile, params, n_points=21)
    return deviation_audit(outcome, params, grid).max_gain <= 1e-9


def test_census_oracle_caps_and_audits_of_the_bench_sweep_pool():
    """The rest of the census on the same 1023 outcomes (ROADMAP item 17).
    Green cells: no emitted fee exceeds its cap, and the oracle finds every
    n <= 2 riley, monopoly and credit-family outcome as a member.  Red cells,
    each naming the item that owns it: the oracle finds no n = 2 semi-pooling
    outcome, and the canonical audit certifies no with-fee semi-pooling
    outcome; two points off the pool pin items 2 and 12."""
    pool = bench_sweep_pool()
    assert len(pool) == 1023
    assert all(params.credit_cap is None or all(p.fee <= params.credit_cap for p in o.profile) for params, o in pool)

    oracle = Counter()
    for params, o in pool:
        if o.profile.n <= 2:
            eq = o.to_subgame(params)
            oracle[o.label, any(outcome_equivalent(eq, m) for m in brute_force_equilibria(o.profile, params))] += 1
    found = {label: count for (label, hit), count in oracle.items() if hit}
    missed = {label: count for (label, hit), count in oracle.items() if not hit}
    assert found == {"credit_family": 235, "monopoly_credit": 21, "monopoly_screening": 10, "monopoly_sorting": 55, "riley": 120}
    assert missed == {"semipooling_zero_fee": 91, "semipooling_with_fee": 19}, (
        "ROADMAP item 4: the oracle's two-atom supports cannot hold a semi-pooling outcome"
    )

    firsts = {}
    for params, o in pool:
        firsts.setdefault((o.label, o.profile.n), (o, params))
    verdicts = {cell: canonically_certified(*first) for cell, first in firsts.items()}
    with_fee = {cell: verdict for cell, verdict in verdicts.items() if cell[0] == "semipooling_with_fee"}
    assert with_fee == {("semipooling_with_fee", n): False for n in (2, 3, 4)}, (
        "ROADMAP item 2: the canonical audit finds a profitable deviation against every with-fee member"
    )
    assert sorted(cell for cell, verdict in verdicts.items() if verdict) == [
        ("credit_family", 1), ("monopoly_credit", 1), ("monopoly_screening", 1), ("monopoly_sorting", 1),
        ("riley", 2), ("riley", 3), ("riley", 4),
        ("semipooling_zero_fee", 2), ("semipooling_zero_fee", 3), ("semipooling_zero_fee", 4),
    ]

    item_2 = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.8), n_schools=2)
    [member] = semipooling_family(item_2, "with_fee", q_h=0.8, fee=0.2)
    assert not canonically_certified(member, item_2), "ROADMAP item 2: the with-fee member is not certified"
    item_12 = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=LIN, n_schools=2, credit_cap=0.1)
    fees = {o.label: [p.fee for p in o.profile] for o in _solve_outcomes(item_12, 1e-9)}
    assert fees["semipooling_with_fee"] == [0.25, 0.25], "ROADMAP item 12: the competition solvers ignore the cap"


def test_bench_planted_audit_call_shape():
    """The bench's planted pessimistic audit, run as bench/workloads.py runs
    it: a drawn outcome goes through JSON and EquilibriumOutcome.from_dict,
    then a 21-point DeviationGrid and deviation_audit.  A record change that
    breaks the bench's frozen outcome files shows here first."""
    workloads = bench_module("workloads")
    params_data, outcome_data = workloads._planted(random.Random(5), 2, "linear")
    params = MarketParams.from_dict(json.loads(json.dumps(params_data)))
    outcome = EquilibriumOutcome.from_dict(json.loads(json.dumps(outcome_data)))
    grid = DeviationGrid.for_profile(outcome.profile, params, n_points=21)
    assert deviation_audit(outcome, params, grid, pessimistic=True).max_gain >= 0.1


@pytest.mark.parametrize("draw, kind", [("tie", "power"), ("generic", "tabulated")])
def test_bench_oracle_command_lines(tmp_path, draw, kind):
    """The bench's oracle operation on an n = 3 draw, as bench/workloads.py
    makes and runs it: oracle-compare with the bench's --grid-points exits 0
    or 1 and agrees with its `match` field, then verify on the constructed
    bundle exits 0.  A flag cap or an oracle change that breaks the frozen
    bench shows here first."""
    workloads = bench_module("workloads")
    make = workloads._tie_profile if draw == "tie" else workloads._generic_profile
    params, policies = make(random.Random(5), 3, kind, (2, 1, 2))
    paths = {name: tmp_path / f"{name}.json" for name in ("params", "profile", "out", "bundle", "verify")}
    paths["params"].write_text(json.dumps(params), encoding="utf-8")
    paths["profile"].write_text(json.dumps(policies), encoding="utf-8")
    grid = ["--grid-points", str(workloads.ORACLE_GRID_POINTS)]
    args = ["--params", str(paths["params"]), *grid]
    compare = main(["oracle-compare", *args, "--profile", str(paths["profile"]), "--out", str(paths["out"])])
    assert compare in (0, 1)
    payload = json.loads(paths["out"].read_text())
    assert payload["match"] == (compare == 0)
    paths["bundle"].write_text(json.dumps(payload["constructed"]), encoding="utf-8")
    assert main(["verify", *args, "--profile", str(paths["bundle"]), "--out", str(paths["verify"])]) == 0
