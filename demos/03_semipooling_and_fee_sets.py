"""Semi-pooling equilibria and how fierce competition kills positive fees.

Beyond full separation, symmetric competition supports a one-parameter
family where a fraction q_h of high types hides with the low types at a
pooled effort for a mixed wage, while the rest separate at the top.  The
script sweeps q_h, prints the implied pooled wage and effort, and then
contrasts the sustainable fee sets under mild and fierce competition.
"""

from sigmarket import (
    CostFamily,
    MarketParams,
    is_fierce,
    mild_fee_set,
    riley_effort,
    semipooling_family,
)


def main() -> None:
    params = MarketParams(
        theta_L=-1.0, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.8), n_schools=2
    )
    e_r = riley_effort(params)
    print(f"separating effort e_R = {e_r:.6g}; members below exist for large enough q_h\n")
    print(f"{'q_h':>6} {'pooled wage':>12} {'pooled effort':>14} {'U_L':>8} {'U_H':>8}")
    for k in range(1, 10):
        q_h = k / 10
        fam = semipooling_family(params, "zero_fee", q_h=q_h)
        if not len(fam):
            print(f"{q_h:6.2f} {'(no member: pooled wage below the separating payoff)':>46}")
            continue
        m = fam[0]
        efforts = sorted({a.effort for a in m.on_path.high})
        w_l = m.wages.offer(m.profile.signal_of(0, efforts[0]))
        print(f"{q_h:6.2f} {w_l:12.6f} {efforts[0]:14.6f} {m.payoffs[0]:8.4f} {m.payoffs[1]:8.4f}")

    print("\nfee sets sustainable in symmetric equilibrium:")
    mild = MarketParams(theta_L=0.5, theta_H=2.0, lam=0.5, cost=CostFamily.linear(2.0, 1.0), n_schools=2)
    print(f"  mild sorting  (theta_L=0.5, n=2): {mild_fee_set(mild).to_dict()}")
    scr = mild.with_(theta_L=-1.0)
    print(f"  mild screening(theta_L=-1,  n=2): {mild_fee_set(scr).to_dict()}")
    fierce = mild.with_(theta_L=-3.0)
    verdict = is_fierce(fierce)
    print(f"  fierce screening(theta_L=-3, n=2): {mild_fee_set(fierce).to_dict()}"
          f"  (reasons: {', '.join(verdict.reasons)})")


if __name__ == "__main__":
    main()
