"""Competition hands the surplus to students but burns part of it as effort.

Two identical schools compete.  The focal outcome is the cheapest separating
one: zero fees, a single cutoff at the separating effort e_R, high types earn
the top wage.  Compared with the monopoly ceiling, welfare drops by exactly
the high types' effort bill - and the deviation audit certifies that no
school can profitably deviate from the posted policies, while a planted
monopoly-style profile at n = 2 is immediately undercut.
"""

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
    deviation_audit,
    monopoly_rpbe,
    riley_effort,
    riley_rpbe,
    welfare,
)

COST = CostFamily.linear(kappa_L=2.0, kappa_H=1.0)


def main() -> None:
    params = MarketParams(theta_L=-1.0, theta_H=2.0, lam=0.5, cost=COST, n_schools=2)
    e_r = riley_effort(params)
    print(f"separating effort e_R = {e_r:.6g}")

    out = riley_rpbe(params)
    rep = welfare(out, params)
    mono = welfare(monopoly_rpbe(params.with_(n_schools=1)), params.with_(n_schools=1))
    print(f"competition welfare   : {rep.total:.6g}")
    print(f"monopoly welfare      : {mono.total:.6g} (the ceiling)")
    print(f"efficiency loss       : {mono.total - rep.total:.6g} = high types' effort bill")
    print(f"student payoffs (L,H) : ({out.payoffs[0]:.6g}, {out.payoffs[1]:.6g})")
    print(f"school profits        : {out.profits}")
    print()

    grid = DeviationGrid.for_profile(out.profile, params)
    audit = deviation_audit(out, params, grid, pessimistic=True)
    print(f"deviation audit (pessimistic): max gain = {audit.max_gain:.3g} -> "
          f"{'no profitable deviation' if audit.max_gain <= 1e-9 else 'NOT an equilibrium'}")
    print()

    # A monopoly-style profile posted by two competitors collapses at once.
    sorting = params.with_(theta_L=1.0)
    fee = 1.5
    prof = PolicyProfile.symmetric(Policy(fee=fee, monitoring=StepMonitoringPolicy.uninformative()), 2)
    planted = EquilibriumOutcome(
        profile=prof,
        on_path=PopulationStrategy(
            low=tuple(StrategyAtom(i, 0.0, 0.5) for i in range(2)),
            high=tuple(StrategyAtom(i, 0.0, 0.5) for i in range(2)),
        ),
        wages=WageSchedule(offers={Signal(i, 0): fee for i in range(2)}),
        profits=(fee / 2, fee / 2),
        payoffs=(0.0, 0.0),
        label="riley",
    )
    audit2 = deviation_audit(planted, sorting, DeviationGrid.for_profile(prof, sorting))
    best = audit2.best
    print("planted two-school pooling at the monopoly fee:")
    print(f"  best deviation gains {audit2.max_gain:.4g} "
          f"(template {best.template}, fee {best.fee:.4g}, thresholds {best.thresholds})")


if __name__ == "__main__":
    main()
