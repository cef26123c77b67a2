"""Output bits of the solver, the verifier and the Monte Carlo oracle, pinned by sha256 digests.

Each seeded game is solved with ``solve_sequential``, and a band profile on
the same game is checked with ``verify_nash``; the digest covers both
reports' ``as_dict()`` as JSON, so any moved bit in a cut-off, best
response, residual or verdict changes it.  A second digest covers the
Monte Carlo estimates on the band profile: ``estimate_success_curve`` on a
grid and ``estimate_expected_utility`` at a few distances.  The inputs come
from the standard library's ``random.Random``, whose stream is fixed across
versions, the draws from numpy's PCG64 streams, and the arithmetic is IEEE
double with the platform's ``pow``.
"""

import hashlib
import json
import random

from ragame import (
    GameConfig,
    RadialDistribution,
    SimConfig,
    Strategy,
    StrategyProfile,
    estimate_expected_utility,
    estimate_success_curve,
    solve_sequential,
    verify_nash,
)
from ragame.monte_carlo import CHUNK_SIZE

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


#: Digests of ``mc_digest`` on the same games and band profiles.
PINNED_MC = {
    0: "6b4374c6d8d4917a5989c5b3dd4d67abb400bbc883818ce06b823a7fb4763731",
    1: "44697fae88deffc885386eeaa4f0ec176188737db9448d002fb95180e83c7e26",
    2: "dccc73bd2a3d4c02b1e7ce141f42d2283a98a5fe7b8bdbc0e4fa1388717d48b7",
    3: "358c19a64858024e6886c7003a8ada062098cc1abdcf89ffc7ac6356d2c18185",
    4: "80b434d4dfee6dce66df3e7d1c8b365e493277c7657396f2a89cb633b7d1ee9d",
    5: "a746b6a4622afd35421ed246f3a85933fe66f58f5e9cd22a3c89517d4e3440cf",
    6: "8dd5a7f71d4bb338a44d478cc0a4066fc8021e4b9d0360f3e5cab475042a545f",
    7: "c0815100e2897f94ae472b2de7a53b77235c6e9ba6bac9bc4eaf110a64774f7f",
    8: "6e90592b53aaaefb90533f6f52e4968a31d0622038ecf58e120ad59cd808e8a0",
    9: "4296e019beb1ba92f67678ce92703f07afe937fd6c4fb86f84c16e0f10ca06ec",
    10: "741a00473a6af3d577bcc9bf7f1fee90d8bfbbf8ce8097b89631043527ee0fac",
    11: "6578a5e9d7fe0d6813ae82b772dc33fedf60adc09365bb6d54d779b44daddb6a",
    12: "c1b2aadfd6abaac2d3b9b961dc5a6c393f527486cf79bb8ee5be39f7f55b9940",
    13: "c5e2347ab7df4d123249eb5f1cb807eb37b6f1a9fd2d15323c504cb9da18bd19",
    14: "c69482e41ba9e927f479d48eed904741e8f6d681e75788f3e9212db7f5e5d573",
    15: "bec929af9f996190f626672089307eb7bf5d8855675a433897fcc2d3c191f389",
    16: "2a4663f4449f009d24c91f2059bdb476e2ccfab1d2f1bd0522f575a7dfea5e60",
    17: "2b8d14778eaa3bb5015501c7a05b17693e683d4be6c79ed26191597f40f81b59",
    18: "b51fbc3564c28b15e28c8ccf88b84a46e178d811798df7a41e0e38a131f71d7a",
    19: "dc444010c8870c5155a3a6dcdaff2709aa065b1a4b6ee5baa5baa76ec1936a46",
    20: "bbfef039763afd8b6c469c54a363f86a2683f9c3990d79df70ce9132ce2d644d",
    21: "0e937dcd0c517366c58f004170bd6893c81c2ebb992dc2df667f708efc840993",
    22: "7a88f82fdecfeb27558ec351237c88401c07afa3debcb2491106113cf66dce53",
    23: "484e24ca2eae8d468f665a5f2dd70c6a90b5308ccb52f48383398315ff04e6d6",
    24: "1a9ce972c7c212e9702ef3c16829efbc416f8512a2d473603b1f89855afe4fa0",
    25: "75634ffa0a199315391307fc485b8b32911f5a24cc2caced4c2d2911563568f6",
    26: "f773958709d83118c3bd83e0f64cfd68a5fdb07b8b311bb26e93c3bc3ebc62a0",
    27: "c59a10fffc68529ba1e8b3a53bc549f2195a7d49d25f2038828b9bb21a1f66c8",
    28: "07b266c9fa6c0b9a556cb30f40fd20c8d5115a67506d5ada0f424b9297cff50d",
    29: "a703545e983e1170edeaead32afeb3c79cb9594540fe69db2245640531ba8a2f",
    30: "0a501c629cd9f4ac9ff79ace18f210b781df28fa801d725a4fbc901a6d7c808d",
    31: "bcf8c06388187e6704f82f2a630182bacada7be824ebd986e4e751b5495831c0",
    32: "1544312d07cc294a540ad47883f9cb82ba73705ff19084cc5ea39761f16b676a",
    33: "28543c4ffc98fb71e8d53b488674e9064fd803a0f9eda4974d473dcc2b3d4d4e",
    34: "3037ad8b49550c8073fc20f471d913992ac6492f63a1720cf25b93c0e10705c3",
    35: "31554037a69eace5af059c60a6b9cd5f48aaa95ffd5e8ecc44270e027545a47d",
    36: "f2c47f95cba2c9bd14ee93830bacc9edb09fa0362850ccd6da8a72b48f627e2d",
    37: "51d6d5eb64b6ef5b50730260229c5249843fd885dca56f72b17b7a8bb2f080a5",
    38: "54b13ec60acc6127efc89791f4f3c1beb3e144436f81011a7eb678ee25698724",
    39: "1e41178e5ec732e7112fea7a907fb70c81603aa38ddce45cf937ff8e23001f37",
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


def mc_digest(k, cfg, profile):
    """Digest of node 0's Monte Carlo success curve and utilities on the band profile."""
    sim = SimConfig(samples=(1, 777, 5000, CHUNK_SIZE + 1)[k % 4], seed=k)
    grid = [R * j / 16 for j in range(17)]
    ds = [(a + b) / 2 for a, b in profile.strategies[0].intervals] + [R / 3]
    estimates = estimate_success_curve(profile, cfg, 0, grid, sim)
    estimates += [estimate_expected_utility(profile, cfg, 0, d, sim) for d in ds]
    payload = [[e.mean, e.std_error, e.samples] for e in estimates]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_monte_carlo_outputs_are_bit_identical():
    moved = [label for k, label, cfg, profile in games() if mc_digest(k, cfg, profile) != PINNED_MC[k]]
    assert not moved, "Monte Carlo bits moved in " + "; ".join(moved)
