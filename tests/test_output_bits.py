"""Output bits of the solver and the verifier, pinned by sha256 digests.

Each seeded game is solved with ``solve_sequential``, and a band profile on
the same game is checked with ``verify_nash``; the digest covers both
reports' ``as_dict()`` as JSON, so any moved bit in a cut-off, best
response, residual or verdict changes it.  The inputs come from the
standard library's ``random.Random``, whose stream is fixed across
versions, and the arithmetic is IEEE double with the platform's ``pow``.
"""

import hashlib
import json
import random

from ragame import (
    GameConfig,
    RadialDistribution,
    Strategy,
    StrategyProfile,
    solve_sequential,
    verify_nash,
)

R = 12.0

#: Digests of the games below.  A change that moves an output bit updates
#: them and names the outputs that moved, and why.
PINNED = {
    0: "96c3a7022738af489c7d673e863e6f70d90b9f61ce36f9e0c5aa8ec7e4511cda",
    1: "44673b21b17d1efbc4620930a3094cf751308930ec4a0d840e45bc02e9d47f44",
    2: "0264315c925d3f4bb5dc5b5c074cddc300b3bc359f6f283bdb9ac8b4fa9cbeea",
    3: "769f4250120808c2f22517d207aabe4331e883723b6fa6945cd341c4310d9136",
    4: "5244f1205f638d62687a3435026593d7d1005166bf540f21d9b91673c483c1ef",
    5: "4b5b2efdc6582700a2cf5c9717500ce00f5b27e85a1e34eed6b000df54fa7ac0",
    6: "5332d8f015bc646ada963dfc413ac729206cd288b71611b701cad094ac9e7caa",
    7: "43d0060f89ee022665eef1555c3398427289cd9d908c1d2d44d7d5278711af35",
    8: "bf15352e5d60c83e74747b12698b8dd031d87e4211e12cc45988a879bc2db1f6",
    9: "de62b197925d10cc75035b967a9528f93021fe7f57c8827441b8d5fd08aa3ad4",
    10: "09bf0b4492635afff96f4fb2bd73170fae3917c273bc3f4a4fa2fbfbdcf1c7db",
    11: "91d790162794be03e9d0e903c7ad2a64be61bb4beb024092b28404e671442dd0",
    12: "e831bcde4d09295904993e535244386b8593eb235cec594e5bda4b364adb8f02",
    13: "5a9a3f80a21b357454218c4f5ed913f0b24a7328ef9e3458acb739501a5afc57",
    14: "622de61c8aa975d4dfe396bae9ada7c0d7595b20c4d1fec3b0bc8d9d2681f689",
    15: "dc91c4ec35fd1d74e40b7d0347796cb323629d60dd7248f8203c97842cef3769",
    16: "1d8179a0ae0371be039dfdebe6c71c9959966b59c669e101da79a194afed357e",
    17: "2d49fd47286a85893a29f41c16e33f55efb6e636810c8d0a5ff25973e477a2b8",
    18: "2705def056a4f3144bdc7e667e80839de9266e9f4258bf28212f1c78a5365f5b",
    19: "225b68fa8f3469da32831d5257d1fa35a113e48715033e09ac5a3b8c92d62fcd",
    20: "a96ed3f78c1fb0facf414d03358c4b569f8cc026ed9975692153bb6c9344ed38",
    21: "4a7b6d03d0f4d0d888f605f4eeb908dabfe7a03d55e8a602ef36005ea344bd05",
    22: "39f705a191262df41ca50cdc136c850eacbfc1d3e38326440ce5f4a8c6beb105",
    23: "c8be04a2df87779c4870aecd981b9b2eb1377e463fa9835bf5225b512fa9ca77",
    24: "623fdee29220ca8a12a30b667188335057a454644101f1804ba88480f97665f4",
    25: "d02de532bdffa0392406f81c354dabd68d8902eac4a922a9a23c45a11b4ab74d",
    26: "d515bf69a32ec02dc7aaba9ae66a213dac338df38b176d47b7d2146a843c9214",
    27: "62e85cb38a36071ff52ca6adf6bc4417efa5be3c2b84e33866721b132b756b0e",
    28: "08a216cc782dda1a3a59215f96682e9c272b43ac860eb1613dd1256d3033cab4",
    29: "76365c52b8c85c80d479a185362da91a4d0134b366493892cf64b46d8b92f9c7",
    30: "0057a47208a4d1d5ec955c939d03a619ae30c9be55381621b826fa71a1d25b4f",
    31: "bf45ffd63cb6a381d24d12c73bc73e9518644c33b47f254c0ab230fd28010326",
    32: "99d13162482c8036e0242d6f20d82d8c732eb0d0fb6adfc27a23c32c2ce0d176",
    33: "a2897d7ada33174ffea806abb2addd50dbb8f899293eefa885bed5dac3b7d6ab",
    34: "f7a64911944099ff9dfff731f7b0c1bb43c6a6f826399fe021760253034b95f2",
    35: "596ee8cce24d1ca749127b62fd0a74fa3c83af1f7ef81d19c523e399fb826fbb",
    36: "69bbec2e51d6d80b392d5b41a961827ed4e2d1fcceda1291a94183d074f76778",
    37: "cea462a97210b4d1e22f43720a31cc1ad7a8f05734ef8bcc38667c0473936b1c",
    38: "fd20e3043c46c0f31328425ddd908cab92f4f5c229aecc9b603e9a29dd0e853c",
    39: "737a8f399bd0a2e369e5737319c8f5abef826831bdccd725f37bec6ad3f029ca",
}


def _law(rng, piecewise):
    if not piecewise:
        return RadialDistribution.uniform_disk(R)
    inner = sorted(rng.uniform(0.05 * R, 0.95 * R) for _ in range(rng.randint(1, 6)))
    d = [0.0, *inner, R]
    steps = [rng.uniform(0.25, 4.0) * (b - a) for a, b in zip(d, d[1:])]
    total, cdf = sum(steps), [0.0]
    for step in steps:
        cdf.append(cdf[-1] + step / total)
    cdf[-1] = 1.0
    return RadialDistribution.piecewise_linear_cdf(R, list(zip(d, cdf)))


def _costs(rng, n):
    """n costs in 1 to n classes, class costs at least a factor 1.07 apart."""
    k = rng.randint(1, n)
    classes = [0.1 * 1.5 ** j * rng.uniform(1.0, 1.4) for j in range(k)]
    return tuple(classes[j] if j < k else rng.choice(classes) for j in range(n))


def _band_profile(rng, n):
    strategies = []
    for _ in range(n):
        ends = sorted(rng.uniform(0.0, R) for _ in range(2 * rng.randint(0, 3)))
        strategies.append(Strategy(radius=R, intervals=tuple(zip(ends[::2], ends[1::2]))))
    return StrategyProfile(tuple(strategies))


def games():
    """(label, cfg, band profile) for 40 seeded games, n from 2 to 30."""
    rng = random.Random(20261019)
    for k in range(40):
        n = 2 + 7 * k % 29
        piecewise = k % 2 == 1
        cfg = GameConfig(_law(rng, piecewise), n, _costs(rng, n))
        label = f"game {k}: n={n} {'piecewise' if piecewise else 'disk'}"
        yield k, label, cfg, _band_profile(rng, n)


def digest(cfg, profile):
    reports = [solve_sequential(cfg).as_dict(), verify_nash(profile, cfg).as_dict()]
    return hashlib.sha256(json.dumps(reports).encode()).hexdigest()


def test_solve_and_verify_outputs_are_bit_identical():
    moved = [label for k, label, cfg, profile in games() if digest(cfg, profile) != PINNED[k]]
    assert not moved, "output bits moved in " + "; ".join(moved)
