"""Byte-identity guard for the CLI artifacts.

Each case runs one command through `cli.main` on the inline inputs below and
compares the exit code and the sha256 of every file the command writes with
the values recorded in DIGESTS.  A refactor that must keep outputs identical
keeps every digest; a change that alters an artifact on purpose re-records the
digest and says why.

The inputs are chosen so that together they emit every outcome label (the
credit family's pooling and partial members and both semi-pooling variants
included), use all three cost kinds, and include a profile of three identical
schools.
"""

import hashlib
import json

import numpy as np
import pytest

import test_refinement
import test_subgame
from sigmarket import (
    DeviationGrid,
    EquilibriumOutcome,
    MarketParams,
    PolicyProfile,
    brute_force_equilibria,
    deviation_audit,
    riley_rpbe,
)
from sigmarket.cli import main

LINEAR = {"kind": "linear", "kappa_L": 2.0, "kappa_H": 1.0}
POWER = {"kind": "power", "kappa_L": 3.0, "kappa_H": 1.0, "exponent": 1.5}
TABULATED = {
    "kind": "tabulated",
    "efforts": [0.0, 0.5, 1.0, 2.0, 4.0],
    "cost_L": [0.0, 1.0, 2.2, 4.6, 9.5],
    "cost_H": [0.0, 0.5, 1.0, 2.0, 4.0],
}


def market(theta_L, theta_H, lam, cost, n=1, cap=None):
    return {"theta_L": theta_L, "theta_H": theta_H, "lambda": lam, "cost": cost, "n_schools": n, "credit_cap": cap}


def policy(fee, thresholds):
    return {"fee": fee, "monitoring": {"thresholds": thresholds, "messages": list(range(len(thresholds) + 1))}}


PARAMS = {
    "monopoly_sorting": market(1.0, 2.0, 0.5, LINEAR),
    "monopoly_screening": market(-1.0, 2.0, 0.5, LINEAR),
    "credit_family": market(1.0, 2.0, 0.5, LINEAR, cap=1.2),
    "credit_family_power": market(-0.5, 2.0, 0.5, {**POWER, "kappa_L": 2.0, "exponent": 2.0}, cap=0.5),
    "monopoly_credit": market(-1.0, 2.0, 0.5, LINEAR, cap=1.0),
    "zero_fee": market(0.5, 2.0, 0.9, {**LINEAR, "kappa_H": 0.5}, n=2),
    "with_fee": market(-1.0, 2.0, 0.5, LINEAR, n=2),
    "with_fee_power": market(-0.2, 2.0, 0.3, {**POWER, "kappa_L": 2.0}, n=3),
    "with_fee_tabulated": market(0.25, 2.0, 0.4, TABULATED, n=2),
}

# (params, profile) pairs for oracle-compare and verify
PROFILES = {
    "sorting_two": (market(1.0, 2.0, 0.5, LINEAR, n=2), [policy(0.1, [0.3]), policy(0.3, [0.25, 0.6])]),
    "screening_two": (market(-1.0, 2.0, 0.5, LINEAR, n=2), [policy(0.0, [0.5, 1.0]), policy(0.25, [0.75])]),
    "tie_three": (market(0.5, 2.0, 0.5, LINEAR, n=3), [policy(0.25, [0.5])] * 3),
    "two_classes": (
        market(0.0, 1.0, 0.75, LINEAR, n=3),
        [policy(0.25, [0.25, 0.75]), policy(0.25, [0.25, 0.75]), policy(0.0, [0.5])],
    ),
    "power_two": (market(-0.5, 2.5, 0.4, POWER, n=2), [policy(0.2, [0.4, 0.9]), policy(0.2, [0.9])]),
    "tabulated_one": (market(0.25, 2.0, 0.6, TABULATED), [policy(0.5, [0.5, 1.0, 2.0])]),
    "pooling_one": (market(0.5, 2.0, 0.6, LINEAR), [policy(0.5, [1.5])]),
    "pooling_two": (
        market(-0.5, 2.0, 0.7, {**LINEAR, "kappa_L": 3.0}, n=2),
        [policy(0.0, [1.2]), policy(0.3, [0.4])],
    ),
}

AUDITED = ("monopoly_sorting", "credit_family", "monopoly_credit", "with_fee", "with_fee_power")


def write(path, payload) -> str:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def run_solve(tmp_path, name, fmt):
    out = tmp_path / f"out.{fmt}"
    code = main(["solve", "--params", write(tmp_path / "params.json", PARAMS[name]), "--format", fmt, "--out", str(out)])
    return code, [out]


def run_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    spec = write(tmp_path / "sweep.json", {"points": list(PARAMS.values())})
    return main(["sweep", "--params", spec, "--out", str(out)]), [out]


def run_welfare(tmp_path):
    out = tmp_path / "welfare.json"
    params = write(tmp_path / "params.json", PARAMS["with_fee"])
    code = main(["welfare", "--params", params, "--sweep-range", "0.1:0.9:5", "--out", str(out)])
    return code, [out, tmp_path / "welfare_plot.csv"]


def run_audit(tmp_path, name, pessimistic):
    out = tmp_path / "audit.json"
    argv = ["audit", "--params", write(tmp_path / "params.json", PARAMS[name]), "--out", str(out)]
    return main(argv + (["--pessimistic"] if pessimistic else [])), [out]


def run_oracle(tmp_path, name):
    params, profile = PROFILES[name]
    out = tmp_path / "oracle.json"
    argv = ["oracle-compare", "--params", write(tmp_path / "params.json", params)]
    argv += ["--profile", write(tmp_path / "profile.json", profile), "--grid-points", "15", "--out", str(out)]
    return main(argv), [out]


def run_verify(tmp_path, name):
    run_oracle(tmp_path, name)
    bundle = write(tmp_path / "bundle.json", json.loads((tmp_path / "oracle.json").read_text())["constructed"])
    out = tmp_path / "verify.json"
    argv = ["verify", "--params", str(tmp_path / "params.json"), "--profile", bundle]
    return main(argv + ["--grid-points", "15", "--out", str(out)]), [out]


CASES = {
    **{f"solve-{name}-{fmt}": (run_solve, name, fmt) for name in PARAMS for fmt in ("json", "csv")},
    "sweep": (run_sweep,),
    "welfare": (run_welfare,),
    **{
        f"audit-{name}-{mode}": (run_audit, name, mode == "pessimistic")
        for name in AUDITED
        for mode in ("canonical", "pessimistic")
    },
    **{f"oracle-compare-{name}": (run_oracle, name) for name in PROFILES},
    **{f"verify-{name}": (run_verify, name) for name in PROFILES},
}

# case -> (exit code, sha256 of the written files, concatenated in order)
DIGESTS = {
    "audit-credit_family-canonical": (0, "3081947614bdf3b497767cc2ea2eead1ef237b8e72c49da514f3bfc0817898fc"),
    "audit-credit_family-pessimistic": (0, "3081947614bdf3b497767cc2ea2eead1ef237b8e72c49da514f3bfc0817898fc"),
    "audit-monopoly_credit-canonical": (0, "3e7d435572bb4001a81f2f98a14ada5e564828263acee84b07165d451745210d"),
    "audit-monopoly_credit-pessimistic": (0, "3e7d435572bb4001a81f2f98a14ada5e564828263acee84b07165d451745210d"),
    "audit-monopoly_sorting-canonical": (0, "e79d1175d2edb2f56e2377079e7ab3c848528adf4450f9eeea136211d3f5370c"),
    "audit-monopoly_sorting-pessimistic": (0, "e79d1175d2edb2f56e2377079e7ab3c848528adf4450f9eeea136211d3f5370c"),
    "audit-with_fee-canonical": (0, "95eb5ee3693fa19e55ef01298c5d623a2fe0338cd62f63b2f56d7365fcc9dde3"),
    "audit-with_fee-pessimistic": (0, "95eb5ee3693fa19e55ef01298c5d623a2fe0338cd62f63b2f56d7365fcc9dde3"),
    "audit-with_fee_power-canonical": (0, "95eb5ee3693fa19e55ef01298c5d623a2fe0338cd62f63b2f56d7365fcc9dde3"),
    "audit-with_fee_power-pessimistic": (0, "95eb5ee3693fa19e55ef01298c5d623a2fe0338cd62f63b2f56d7365fcc9dde3"),
    "oracle-compare-pooling_one": (0, "1829be42f80f18c3593eb6b9d7f521cac99f849b8fb0d35f8f0c08483365507b"),
    "oracle-compare-pooling_two": (0, "5b46d9eb88a0621a73d0358cac933d0d4b1feafde076947a1e437bdb9008d5dc"),
    "oracle-compare-power_two": (0, "15883990c409dae883eb44721f0109b296ce7985a3b9cd77a3a1db6995f77b6d"),
    "oracle-compare-screening_two": (0, "3a22e4552bf06ff0dc0fcd6bc9805710d42139faefb94c93dc6e5645d11006b0"),
    "oracle-compare-sorting_two": (0, "92250ca4fc50f5393c764f318231fa1c78183887e4641b6d0d15c90ea2702720"),
    "oracle-compare-tabulated_one": (0, "9c6c9c77419ab71251b5f36f9dd885cf232a97cc9e2a32c5d63e0f9250473163"),
    "oracle-compare-tie_three": (1, "23b0586eaa5b03a8f7d14ef308557796eb50a40385c66a59bbc2ef7d0862a8ba"),
    "oracle-compare-two_classes": (0, "5afabad92b6d511546d48f4ee1cc62e3fddfc41d08f39debfc101484ba7a0883"),
    "solve-credit_family-csv": (0, "59cdedde626f14e3db4d3670a389922f87c0b440a474c9b98a1b190e890e4bd7"),
    "solve-credit_family-json": (0, "560da6353973e10b055f408e4bc5c65e3fb254aaca05887fb67653750f4b0933"),
    "solve-credit_family_power-csv": (0, "cc9acbde35ae7d798f873872314287cb27cd0f68d83bf8b292eaf97ac0708bcc"),
    "solve-credit_family_power-json": (0, "1d7d51b67ce0ac2d790c58834d9359b1fae559f0ae4bca356c672865f3493fea"),
    "solve-monopoly_credit-csv": (0, "534c63e409eb2d19e6646c8df04924a92a3b2f9f672363a128a21a536b741e5b"),
    "solve-monopoly_credit-json": (0, "2e5f5406bcb30f8320d3d8e7ba82aa8a20bffbecfc352ba94b397826e6d40efe"),
    "solve-monopoly_screening-csv": (0, "71419241dd2f12190def6c79c49ba4c1104c1720d3cefacb55ca20d193c7444e"),
    "solve-monopoly_screening-json": (0, "17048a0127048634cd83d00ddc8ca561a34d193e8ee7a3be995dec50f9313586"),
    "solve-monopoly_sorting-csv": (0, "a6b5d50263b26804db280293008306abcbc3c08de0192d9585b20fc1837ef1f9"),
    "solve-monopoly_sorting-json": (0, "b11c06eba461e962e28abc7e22bb7554f90e1555bc7cc36601086e99bf0b6819"),
    "solve-with_fee-csv": (0, "10fd707ab6b28b4c920deb964fc1e275d29a7bf2bbb7f19a58367ba5fc959ba9"),
    "solve-with_fee-json": (0, "7d4d3c45d6fdef66a9bca80e50adc6de3c4bfee464901313dbc7757d4cc7c4c2"),
    "solve-with_fee_power-csv": (0, "6215a61d210f71f663054430423965f4651dfadfc8f85b736fe1853b82338aee"),
    "solve-with_fee_power-json": (0, "d3376d91afb88c67b35a8589047511e76c632c57e83335630327c833dcd3d94e"),
    "solve-with_fee_tabulated-csv": (0, "b42b71962db3128911c83d5f56b5e967a0905ba81babf4b378d6836bac62a2a7"),
    "solve-with_fee_tabulated-json": (0, "0ef952354fc8e8fdbf2d8bda4a76f314b20a69971d9f874685f1187be4da69e3"),
    "solve-zero_fee-csv": (0, "924db70c8c4338af5ce6f507cfd9ca4f2ddfb4ab64277d0259a5d130f0d762c0"),
    "solve-zero_fee-json": (0, "5aa29a78acd470c36fc895b670f331ea633be0403609e554c739ae3f4f7f2e80"),
    "sweep": (0, "720d87f888f288ee5b510d1ccba01b4e12d8909a775d8d3c360da82da3d49bbc"),
    "verify-pooling_one": (0, "5628562d332a780da997bb36e19a222edb0c2f8003d77f6847a32714d32aba76"),
    "verify-pooling_two": (0, "5628562d332a780da997bb36e19a222edb0c2f8003d77f6847a32714d32aba76"),
    "verify-power_two": (0, "ad7155e9ad2364365dcfc0855f17a4317fe2605a49baf100a679849e51c5923a"),
    "verify-screening_two": (0, "85a30543ba1ee4538c66292c2b4c890f8d1e3f404c9759e490ead853179aa928"),
    "verify-sorting_two": (0, "64e85e17e4b8315337420a7178fe2d6147c53e23b20e4a0f087627a89a7455bb"),
    "verify-tabulated_one": (0, "ad7155e9ad2364365dcfc0855f17a4317fe2605a49baf100a679849e51c5923a"),
    "verify-tie_three": (0, "ad7155e9ad2364365dcfc0855f17a4317fe2605a49baf100a679849e51c5923a"),
    "verify-two_classes": (0, "4f19b9a0b06a8b45a8f89e34174e62ec38e5213a0760a7e558e3489d4d47dafa"),
    "welfare": (0, "b2779d3f50f51e5d38b252fd48ddce08c9dd2d31b3593caf40a456f3c5bfa89f"),
}


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_bytes_unchanged(tmp_path, case):
    runner, *args = CASES[case]
    code, outputs = runner(tmp_path, *args)
    assert (code, digest(outputs)) == DIGESTS[case]


# The CLI audit artifact keeps only the best entry, so the pins above miss a
# change in any other entry.  These pin the whole AuditReport: the riley
# outcome in sorting and screening markets with linear and power costs, and a
# planted outcome pooling everybody at the monopoly fee.
AUDIT_MARKETS = {
    f"{market}-{kind}": (theta_L, cost)
    for market, theta_L in (("sorting", 1.0), ("screening", -1.0))
    for kind, cost in (("linear", LINEAR), ("power", POWER))
}


def planted_pooling(n):
    mean = 1.5  # the monopoly fee: mean productivity of the sorting market below
    atoms = [{"school": i, "effort": 0.0, "prob": 1.0 / n} for i in range(n)]
    return {
        "profile": [policy(mean, [])] * n,
        "on_path": {"L": atoms, "H": atoms},
        "wages": {f"{i}:0": mean for i in range(n)},
        "profits": [mean / n] * n,
        "enrollment": {"L": 1.0, "H": 1.0},
        "employment": {"L": 1.0, "H": 1.0},
        "payoffs": {"L": 0.0, "H": 0.0},
        "label": "planted_pooling",
    }


def audit_inputs(case):
    """(params, outcome) of an audit case named '<outcome>-<n>-<mode>'."""
    name, n, _ = case.rsplit("-", 2)
    if name == "planted":
        params = MarketParams.from_dict(market(1.0, 2.0, 0.5, LINEAR, n=int(n)))
        return params, EquilibriumOutcome.from_dict(planted_pooling(int(n)))
    theta_L, cost = AUDIT_MARKETS[name.removeprefix("riley-")]
    params = MarketParams.from_dict(market(theta_L, 2.0, 0.5, cost, n=int(n)))
    return params, riley_rpbe(params)


# case -> sha256 of the report's sorted-key JSON, every entry included.  A riley
# outcome has no profitable deviation to replay, so its two modes pin the same report.
AUDIT_REPORTS = {
    "planted-2-canonical": "0a79322563e9f484e5c55415b3e27b7349eb54668cb48bad4563225efaa44201",
    "planted-2-pessimistic": "95a5f11b25ca4d1106917f145cb02419174055946de6538f70ff1cd2a9812045",
    "planted-4-canonical": "52cd9c45344729a2a69196d774474de6c4f9904d38f52ac273a24a6acaf6a13a",
    "planted-4-pessimistic": "e21449438eec07c9c22d99767df02172a88e5349a31202ebe2021731797fcaef",
    "riley-screening-linear-2-canonical": "32fe6a69479d25bcd93c0fc07433526733bb1d3c3e62c539c4226db6d19edb8e",
    "riley-screening-linear-2-pessimistic": "32fe6a69479d25bcd93c0fc07433526733bb1d3c3e62c539c4226db6d19edb8e",
    "riley-screening-linear-4-canonical": "99049030a4bb03e24211fb7d762ce058c477c2a3ef4f378f2681cf9e7e42b48b",
    "riley-screening-linear-4-pessimistic": "99049030a4bb03e24211fb7d762ce058c477c2a3ef4f378f2681cf9e7e42b48b",
    "riley-screening-linear-8-canonical": "25e087738a3a7dc9117451fc2898594ee9c3c57f50d1dfe7acd80019633155b0",
    "riley-screening-linear-8-pessimistic": "25e087738a3a7dc9117451fc2898594ee9c3c57f50d1dfe7acd80019633155b0",
    "riley-screening-power-2-canonical": "05d989739be18d5c79d7be4a29a82a68ae3a85a269d1103098d9fa37c81581b2",
    "riley-screening-power-2-pessimistic": "05d989739be18d5c79d7be4a29a82a68ae3a85a269d1103098d9fa37c81581b2",
    "riley-screening-power-4-canonical": "918840a0c6b4fa2386d4e9cc37bb8eabf7106340f70c025d95b9cb3d45a34aad",
    "riley-screening-power-4-pessimistic": "918840a0c6b4fa2386d4e9cc37bb8eabf7106340f70c025d95b9cb3d45a34aad",
    "riley-screening-power-8-canonical": "0178e88b0441335ed8b91c264fbc27858570916bc1d9bf3717799d8d37c48572",
    "riley-screening-power-8-pessimistic": "0178e88b0441335ed8b91c264fbc27858570916bc1d9bf3717799d8d37c48572",
    "riley-sorting-linear-2-canonical": "103600f05c93ccdb5cdc6168f31b8f498a8815cfdf249bbd9a2d821c0c11162b",
    "riley-sorting-linear-2-pessimistic": "103600f05c93ccdb5cdc6168f31b8f498a8815cfdf249bbd9a2d821c0c11162b",
    "riley-sorting-linear-4-canonical": "af8b28ce23d78b011e8fc85993039adb722c3a8af9c1ec04afd52de812cd1d7f",
    "riley-sorting-linear-4-pessimistic": "af8b28ce23d78b011e8fc85993039adb722c3a8af9c1ec04afd52de812cd1d7f",
    "riley-sorting-linear-8-canonical": "84a5d1cd29fcc1adf71884fedc67da0f7cbc5a3c38ccc79356a4412139a08580",
    "riley-sorting-linear-8-pessimistic": "84a5d1cd29fcc1adf71884fedc67da0f7cbc5a3c38ccc79356a4412139a08580",
    "riley-sorting-power-2-canonical": "d3607e61081cffc8e117d025b61da447a215a90146e66b8345d6338451123fa2",
    "riley-sorting-power-2-pessimistic": "d3607e61081cffc8e117d025b61da447a215a90146e66b8345d6338451123fa2",
    "riley-sorting-power-4-canonical": "5044e3a5114b386940b59bdc7db867b048215d19d00361725e0b8af3a95ce8e8",
    "riley-sorting-power-4-pessimistic": "5044e3a5114b386940b59bdc7db867b048215d19d00361725e0b8af3a95ce8e8",
    "riley-sorting-power-8-canonical": "65a6c860436c011714200a9a0cc5487cee287f8d56247800d2565b511314a0de",
    "riley-sorting-power-8-pessimistic": "65a6c860436c011714200a9a0cc5487cee287f8d56247800d2565b511314a0de",
}


@pytest.mark.parametrize("case", sorted(AUDIT_REPORTS))
def test_full_audit_report_unchanged(case):
    params, outcome = audit_inputs(case)
    grid = DeviationGrid.for_profile(outcome.profile, params)
    report = deviation_audit(outcome, params, grid, pessimistic=case.endswith("-pessimistic"))
    text = json.dumps(report.to_dict(), sort_keys=True, allow_nan=False)
    assert hashlib.sha256(text.encode()).hexdigest() == AUDIT_REPORTS[case]


# The oracle-compare artifact records only how many members the oracle found
# and which one matched, so these pin every member, in output order: on each
# profile above, and on the exact best-response corpus of test_refinement
# (three cost kinds x two markets x seven profiles).
def oracle_inputs(case):
    """(params, profile) of an oracle case: a PROFILES name, or
    'corpus-<cost kind>-<market>-<profile index>'."""
    if case in PROFILES:
        params, profile = PROFILES[case]
        return MarketParams.from_dict(params), PolicyProfile.from_list(profile)
    _, kind, market_name, j = case.split("-")
    corpus = test_refinement.TestExactBestResponse()
    cost = next(c for c in corpus.COSTS if c.kind == kind)
    theta_L, lam = corpus.MARKETS[("sorting", "screening").index(market_name)]
    params = MarketParams(theta_L=theta_L, theta_H=2.0, lam=lam, cost=cost)
    return params, corpus.profiles()[int(j)]


# case -> sha256 of the sorted-key JSON list of every oracle member's to_dict()
ORACLE_MEMBERS = {
    "corpus-linear-screening-0": "5d8c31dda3a39bd8257ae2039afef0f2f2aff30f8259b7878ed618356a85a743",
    "corpus-linear-screening-1": "83e8accad0c7645d5e8ba6e3d37055d46e41e05f91ff9d38f9207248c2946792",
    "corpus-linear-screening-2": "8aed90e569f75c2c611c88e13c7a26b115dfe7da6b18d225688adaeb03fd71cb",
    "corpus-linear-screening-3": "d263a7469cedf2f305dfd7b0d58b8d51c30e9b3f68633f4cf9d81b84899d4e00",
    "corpus-linear-screening-4": "9e0d7f35929be18521893e778390bb6170eb497c0bc53d64097236013f565984",
    "corpus-linear-screening-5": "2d87853224d1379796476bccaa38a7a051ae5369c98e072c25e49af5b384cdce",
    "corpus-linear-screening-6": "09238b48e858b70fa833a5078038009e8e11e0ae76bc3b7942641cd8f4a6ea5e",
    "corpus-linear-sorting-0": "0e6f02f1f32e7f7544a0ba753ed0f1e20071ebd6da10f6b2e413f7bbc6068384",
    "corpus-linear-sorting-1": "ba6637dc1388895edb3ff7f10c0332701e472342045ea8ea1349a633e8a5680e",
    "corpus-linear-sorting-2": "af3f821f27f432d80769f8bef6d42dac995c2457d7c495c1ce4f580f2990aea3",
    "corpus-linear-sorting-3": "b99d49951fbf3ea5e657a4f5d6a12bafb04c5c6dc3128386d5fb18fe97de313a",
    "corpus-linear-sorting-4": "0c93974165b2a0fc965afb19e5ae5b725e1d1ced3f4592da54e1d97687365dce",
    "corpus-linear-sorting-5": "0006cb69719400de14f367b797326ebf1763171bf749e69aa6049eca33871cf1",
    "corpus-linear-sorting-6": "776bf55c673f95c719ec7b2e7fbfb4f316fcd415c07a99a8329fb0c3f5b25a0c",
    "corpus-power-screening-0": "5d8c31dda3a39bd8257ae2039afef0f2f2aff30f8259b7878ed618356a85a743",
    "corpus-power-screening-1": "b80bb822e898832f6dc8322ea0540981153d23e42c36692df3cbd9506b3d4ad1",
    "corpus-power-screening-2": "88f79cd9a26cfcf322beeb1a4c653b17414388c40e7f4a4a9af41c673856f87f",
    "corpus-power-screening-3": "3db4f27fce946b5046647fe241f50a496d5fa91f17534a815b8a6a6cb6a42d0f",
    "corpus-power-screening-4": "84e1626644391b88f50cddb4f7e9928edc214213bf326f467505f3d515a01c88",
    "corpus-power-screening-5": "2d87853224d1379796476bccaa38a7a051ae5369c98e072c25e49af5b384cdce",
    "corpus-power-screening-6": "09238b48e858b70fa833a5078038009e8e11e0ae76bc3b7942641cd8f4a6ea5e",
    "corpus-power-sorting-0": "0e6f02f1f32e7f7544a0ba753ed0f1e20071ebd6da10f6b2e413f7bbc6068384",
    "corpus-power-sorting-1": "bebfc37c741610b847737eaae70c9b408fffc0d645d60a53f864367caaf964be",
    "corpus-power-sorting-2": "817e2d0f19b091eef99ab4fb7417abc17068f955830ff6fdc3d40d8425e9813b",
    "corpus-power-sorting-3": "6d75ee3d29e49012494fd47bbba99152397bb787811a37578d382331cf0aeaa2",
    "corpus-power-sorting-4": "1c0e7240f1226dd5b22fffbb1f23a2df9256387d4469cc9c8a799a3dfa68612f",
    "corpus-power-sorting-5": "0006cb69719400de14f367b797326ebf1763171bf749e69aa6049eca33871cf1",
    "corpus-power-sorting-6": "4610fe98f76b3a558680ac06f45f1746b81ad2e187d345a3a21c4773d8fd4f06",
    "corpus-tabulated-screening-0": "5d8c31dda3a39bd8257ae2039afef0f2f2aff30f8259b7878ed618356a85a743",
    "corpus-tabulated-screening-1": "b80bb822e898832f6dc8322ea0540981153d23e42c36692df3cbd9506b3d4ad1",
    "corpus-tabulated-screening-2": "7e8cdaf3ba27042d413af1cdb42e03b03e27d06b4ad282a56fc99c0d2f5f163a",
    "corpus-tabulated-screening-3": "5702a90320619a8200af822da081e5dd33d65c0a42aa299c204bcb4f8948b849",
    "corpus-tabulated-screening-4": "18a495dfe5a497f0208e1119915c87edccc0b1fb887bab0e3cfff1e431d21798",
    "corpus-tabulated-screening-5": "2d87853224d1379796476bccaa38a7a051ae5369c98e072c25e49af5b384cdce",
    "corpus-tabulated-screening-6": "09238b48e858b70fa833a5078038009e8e11e0ae76bc3b7942641cd8f4a6ea5e",
    "corpus-tabulated-sorting-0": "0e6f02f1f32e7f7544a0ba753ed0f1e20071ebd6da10f6b2e413f7bbc6068384",
    "corpus-tabulated-sorting-1": "bebfc37c741610b847737eaae70c9b408fffc0d645d60a53f864367caaf964be",
    "corpus-tabulated-sorting-2": "6682033b17c97de52990e763f655e36004ebf905140ed207fceb53a11108664c",
    "corpus-tabulated-sorting-3": "7f031e3ab1e235ad4bc2488b27f67eef1d0185bc7a1bf49075297e44f50d3550",
    "corpus-tabulated-sorting-4": "7874751efaa1ad1e661659b8d9f3379a570443bbc06368f877c396fc90642be9",
    "corpus-tabulated-sorting-5": "0006cb69719400de14f367b797326ebf1763171bf749e69aa6049eca33871cf1",
    "corpus-tabulated-sorting-6": "4610fe98f76b3a558680ac06f45f1746b81ad2e187d345a3a21c4773d8fd4f06",
    "pooling_one": "5a4742ad8f786c1fc0a22e303f9cbfd0bda64f9b658cf37fb5b2e88d2a54436a",
    "pooling_two": "3edd08ea233a67c693c9567722f76d2a2a12812a65e095fe260cc5f3f7b849f3",
    "power_two": "cc17fb7f2fd6608215d1b704912b096bab3a11f4b419e60c85ba41fa0910b5bc",
    "screening_two": "cd68e46ce78ceeff7c5105023756eeadc73dcdf4685f0db6a27f0544b983c588",
    "sorting_two": "1624bbb1e5587d25c046354d2a99dea88320388c60e640cf45412756264802ad",
    "tabulated_one": "12bea47f3cbd6417caa685d9b5a1ef8f3fce9a0bd0a91e6680f7c37500096292",
    "tie_three": "820f5f91a77a764dde125c86c8f71beef214c0f79660c4a64ca37be3a04ba641",
    "two_classes": "7c5771c4d1f0bb5d0698251879639ecac72bbaf061abba827891ce8441750ded",
}


@pytest.mark.parametrize("case", sorted(ORACLE_MEMBERS))
def test_oracle_members_unchanged(case):
    params, profile = oracle_inputs(case)
    members = brute_force_equilibria(profile, params)
    text = json.dumps([eq.to_dict() for eq in members], sort_keys=True, allow_nan=False)
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_MEMBERS[case]


# tol -> sha256 of the sorted-key JSON list of every tie-corpus profile's oracle
# member list (test_subgame.tie_corpus: linear(2, 1), 556 draws, numpy seed 3)
TIE_CORPUS_MEMBERS = {
    0.0: "aed99c02ccb567e0cb7b6858ca033ee86f7478e8b13d8acabbc575065d799c86",
    1e-9: "288cddbcd922378ff2b53d4ff90f1f435b16e56fa9f01a831ba19c237cccb731",
}


@pytest.mark.parametrize("tol", sorted(TIE_CORPUS_MEMBERS))
def test_oracle_members_on_tie_corpus_unchanged(tol):
    cases = test_subgame.tie_corpus(test_subgame.LIN, 556, np.random.default_rng(3))
    members = [[eq.to_dict() for eq in brute_force_equilibria(prof, params, tol=tol)] for prof, params in cases]
    text = json.dumps(members, sort_keys=True, allow_nan=False)
    assert hashlib.sha256(text.encode()).hexdigest() == TIE_CORPUS_MEMBERS[tol]


def test_inputs_cover_every_outcome_label(tmp_path):
    seen = {}
    for name in PARAMS:
        run_solve(tmp_path, name, "json")
        for outcome in json.loads((tmp_path / "out.json").read_text()):
            seen.setdefault(outcome["label"], set()).add(len(outcome["on_path"]["H"]))
    assert set(seen) == {
        "monopoly_sorting",
        "monopoly_screening",
        "monopoly_credit",
        "riley",
        "semipooling_zero_fee",
        "semipooling_with_fee",
        "credit_family",
    }
    assert seen["credit_family"] == {1, 2}  # pooling and partial members
    kinds = {p["cost"]["kind"] for p in PARAMS.values()} | {p["cost"]["kind"] for p, _ in PROFILES.values()}
    assert kinds == {"linear", "power", "tabulated"}
    assert any(len(prof) == 3 and len({json.dumps(p) for p in prof}) == 1 for _, prof in PROFILES.values())
