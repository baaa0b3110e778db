"""Fee caps drag the monopolist into pooling - and can flip the welfare race.

With screening and a cap K below the top wage, the school charges exactly K
and tolerates the largest fraction of low types consistent with the pooled
wage staying at K.  The script traces that fraction and the welfare of
monopoly vs competition across caps, then samples the equilibrium family
that appears once the cap drops below mean productivity.
"""

from sigmarket import (
    CostFamily,
    CreditFamily,
    MarketParams,
    expected_type,
    credit_monopoly_rpbe,
    riley_rpbe,
    welfare,
)

COST = CostFamily.linear(kappa_L=2.0, kappa_H=1.0)


def main() -> None:
    params = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=COST)
    comp = welfare(riley_rpbe(params.with_(n_schools=2)), params.with_(n_schools=2)).total
    print(f"mean productivity = {expected_type(params):.4g}; "
          f"competition welfare = {comp:.4g} at every cap (fees are zero anyway)\n")
    print(f"{'cap K':>6} {'low enrolled':>13} {'profit':>8} {'monopoly welfare':>17} {'winner':>12}")
    for cap in (1.9, 1.5, 1.0, 0.75, 0.6):
        out = credit_monopoly_rpbe(params.with_(credit_cap=cap))
        if isinstance(out, CreditFamily):
            member = out.pooling_member(0.0)
        else:
            member = out
        w = welfare(member, params).total
        winner = "monopoly" if w > comp else "competition"
        print(f"{cap:6.2f} {member.enrollment[0]:13.4f} {sum(member.profits):8.4f} {w:17.4f} {winner:>12}")

    print("\ntight cap K=0.4 (below mean): a whole family appears, fee pinned at K")
    fam = credit_monopoly_rpbe(params.with_(credit_cap=0.4))
    assert isinstance(fam, CreditFamily)
    print(f"  pooling cutoffs range over [0, {fam.e_limit:.4g}]")
    for member in fam.sample(3):
        eff = {round(a.effort, 6) for a in member.on_path.high}
        print(f"  member: high-type efforts {sorted(eff)}, payoffs {tuple(round(x, 4) for x in member.payoffs)},"
              f" welfare {welfare(member, params).total:.4f}")

    # Cheap high-type effort flips the race: the separating effort bill is
    # small, while the capped monopolist still employs destructive low types.
    cheap = params.with_(cost=CostFamily.linear(kappa_L=2.0, kappa_H=0.3))
    comp2 = welfare(riley_rpbe(cheap.with_(n_schools=2)), cheap.with_(n_schools=2)).total
    print(f"\nwith kappa_H = 0.3 (cheap separating effort), competition welfare = {comp2:.4g}:")
    for cap in (1.5, 0.75, 0.6):
        out = credit_monopoly_rpbe(cheap.with_(credit_cap=cap))
        member = out.pooling_member(0.0) if isinstance(out, CreditFamily) else out
        w = welfare(member, cheap).total
        winner = "monopoly" if w > comp2 else "competition"
        print(f"  cap {cap:4.2f}: monopoly welfare {w:.4f} -> {winner} wins")


if __name__ == "__main__":
    main()
