"""Cross-check the constructive solver against the brute-force enumerator.

For an arbitrary two-school profile, the constructed subgame equilibrium is
verified (best responses, wage/belief consistency, Bayes on path, extended
D1 off path) and then matched against every refined equilibrium the support
enumerator finds over band-minimum efforts.
"""

from sigmarket import (
    CostFamily,
    MarketParams,
    Policy,
    PolicyProfile,
    StepMonitoringPolicy,
    brute_force_equilibria,
    construct_epbe,
    outcome_equivalent,
    verify_extended_d1,
    verify_pbe,
)


def describe(eq) -> str:
    def side(atoms):
        return ", ".join(
            f"{'out' if a.school is None else f's{a.school}'}@{a.effort:.3g}x{a.prob:.3g}"
            for a in atoms
        )

    return f"[{eq.construction_tag}] L: {side(eq.strategy.low)} | H: {side(eq.strategy.high)}"


def main() -> None:
    params = MarketParams(
        theta_L=-0.5, theta_H=2.0, lam=0.4, cost=CostFamily.linear(1.8, 0.9), n_schools=2
    )
    profile = PolicyProfile.of(
        Policy(fee=0.15, monitoring=StepMonitoringPolicy(thresholds=(0.3, 1.1), messages=(0, 1, 2))),
        Policy(fee=0.05, monitoring=StepMonitoringPolicy.cutoff(0.8)),
    )
    eq = construct_epbe(profile, params)
    print("constructed:", describe(eq))
    print(f"payoffs (L, H) = ({eq.payoff_L:.5g}, {eq.payoff_H:.5g})")

    print("verify_pbe        :", verify_pbe(eq, params).passed)
    print("verify_extended_d1:", verify_extended_d1(eq, params).passed)

    members = brute_force_equilibria(profile, params)
    print(f"\nbrute force finds {len(members)} refined equilibria:")
    for k, member in enumerate(members):
        tag = "  <- matches the constructed outcome" if outcome_equivalent(eq, member) else ""
        print(f"  {k}: {describe(member)}{tag}")


if __name__ == "__main__":
    main()
