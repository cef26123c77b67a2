"""Best responses are always cut-off rules.

The expected utility of transmitting, (1 + c) * g(d) - c, starts at 1 and
never increases with distance, so whatever the opponents do, the optimal
reply is "transmit when closer than t, back off beyond".  This script walks
the three regimes the cut-off can fall into and shows how the cut-off moves
with the failure cost.
"""

import numpy as np

from ragame import (
    GameConfig,
    RadialDistribution,
    Strategy,
    StrategyProfile,
    best_response_threshold,
    success_probability,
)

R = 12.0
DISK = RadialDistribution.uniform_disk(R)


def describe(label, opponent, cost):
    cfg = GameConfig(distribution=DISK, n=2, costs=(cost, cost))
    profile = StrategyProfile((Strategy.always(R), opponent))
    res = best_response_threshold(profile, cfg, 0)
    print(f"  {label}")
    print(f"    cost {cost:g}, opponent transmits on {opponent.intervals}")
    print(f"    -> {res.boundary_case}, cut-off {res.threshold:.9f}, "
          f"utility there {res.utility_at_threshold:+.2e}")
    return profile, cfg, res


def main():
    print("three regimes of the best-response cut-off:\n")
    describe("interior: an always-transmitting opponent forces an interior root",
             Strategy.always(R), 1.0)
    describe("full-transmit: utility stays positive through R, transmit everywhere",
             Strategy.threshold(6.0, R), 1.0)
    describe("tied at R: utility positive before R and exactly zero at R",
             Strategy(radius=R, intervals=((6.0, 12.0),)), 0.25 / 0.75)

    print("\ncut-off against an always-transmitter as the failure cost grows:")
    profile = StrategyProfile((Strategy.always(R), Strategy.always(R)))
    for cost in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
        cfg = GameConfig(distribution=DISK, n=2, costs=(cost, cost))
        res = best_response_threshold(profile, cfg, 0)
        bar = "#" * int(round(res.threshold * 4))
        print(f"  c = {cost:5.1f}  t = {res.threshold:7.4f}  {bar}")

    print("\nsign structure around one interior cut-off (c = 1):")
    cfg = GameConfig(distribution=DISK, n=2, costs=(1.0, 1.0))
    t = best_response_threshold(profile, cfg, 0).threshold
    c = cfg.costs[0]
    for d in np.concatenate([np.linspace(0, t, 4, endpoint=False), [t, (t + R) / 2, R]]):
        u = (1.0 + c) * success_probability(profile, cfg, 0, float(d)) - c
        print(f"  d = {d:7.4f}  utility = {u:+.6f}  -> {'transmit' if u > 0 else 'back off'}")


if __name__ == "__main__":
    main()
