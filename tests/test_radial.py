import math

import numpy as np
import pytest

from ragame import DomainError, RadialDistribution

from tests.generators import STEP_LAWS, random_increasing_cdf
from tests.properties import density_sup


def test_uniform_disk_cdf_values():
    d = RadialDistribution.uniform_disk(12.0)
    assert d.cdf(0.0) == 0.0
    assert d.cdf(6.0) == 0.25
    assert d.cdf(12.0) == 1.0


def test_uniform_disk_interval_measures():
    d = RadialDistribution.uniform_disk(12.0)
    assert d.interval_measure(6.0, 12.0) == 0.75
    assert d.interval_measure(4.0, 4.0) == 0.0
    assert d.interval_measure(3.0, 6.0) == 0.1875  # F(6) - F(3) = 0.25 - 9/144


def test_uniform_disk_quantile():
    d = RadialDistribution.uniform_disk(12.0)
    assert d.quantile(0.25) == 6.0
    assert d.quantile(0.0) == 0.0
    assert d.quantile(1.0) == 12.0
    assert d.quantile(0.5) == pytest.approx(8.485281374238571, abs=1e-12)


def test_normalization_exact():
    d = RadialDistribution.uniform_disk(12.0)
    assert d.interval_measure(0.0, 12.0) == 1.0
    rng = np.random.default_rng(7)
    pw = random_increasing_cdf(rng, 5.0)
    assert abs(pw.interval_measure(0.0, 5.0) - 1.0) <= 1e-12


def test_quantile_cdf_round_trip():
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 1.0, 10_001)
    for dist in (
        RadialDistribution.uniform_disk(12.0),
        random_increasing_cdf(rng, 12.0),
        random_increasing_cdf(rng, 0.7),
    ):
        assert dist.strictly_increasing
        back = dist.cdf(dist.quantile(grid))
        assert np.max(np.abs(back - grid)) <= 1e-12


def test_piecewise_cdf_is_monotone_at_knots():
    # Interpolation can round one ulp above the next knot's CDF value just
    # below that knot; the scalar and array paths cap it there alike.
    rng = np.random.default_rng(17)
    laws = [*STEP_LAWS, *(random_increasing_cdf(rng, 12.0) for _ in range(200))]
    for dist in laws:
        pts = sorted({x for k in dist.knots_d for x in (math.nextafter(k, 0.0), k)})
        values = [dist.cdf_scalar(x) for x in pts]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert dist.cdf(np.array(pts)).tolist() == values


def test_piecewise_quantile_is_monotone_at_knots():
    # Interpolation can round one ulp above the next knot's distance just
    # below that knot's CDF value; here quantile(1 - 2**-53) came out as
    # 12.000000000000002, beyond the radius.  quantile caps it, as cdf does.
    knots = [(0.0, 0.0), (0.9200819289537482, 0.36509371461634993), (12.0, 1.0)]
    law = RadialDistribution.piecewise_linear_cdf(12.0, knots)
    assert law.quantile(math.nextafter(1.0, 0.0)) == 12.0
    rng = np.random.default_rng(17)
    for dist in (law, *(random_increasing_cdf(rng, 12.0) for _ in range(1000))):
        pts = sorted({x for p in dist.knots_cdf for x in (math.nextafter(p, 0.0), p)})
        values = dist.quantile(np.array(pts))
        assert np.all(np.diff(values) >= 0)
        assert [dist.quantile(p) for p in pts] == values.tolist()


def test_interval_additivity():
    rng = np.random.default_rng(3)
    for dist in (RadialDistribution.uniform_disk(9.0), random_increasing_cdf(rng, 9.0)):
        pts = np.sort(rng.uniform(0.0, 9.0, 300))
        for a, b, c in zip(pts[:-2], pts[1:-1], pts[2:]):
            whole = dist.interval_measure(a, c)
            split = dist.interval_measure(a, b) + dist.interval_measure(b, c)
            assert abs(whole - split) <= 1e-12


def test_density_sup():
    assert density_sup(RadialDistribution.uniform_disk(12.0)) == pytest.approx(1.0 / 6.0)
    pw = RadialDistribution.piecewise_linear_cdf(2.0, [[0.0, 0.0], [1.0, 0.25], [2.0, 1.0]])
    assert density_sup(pw) == pytest.approx(0.75)


def test_domain_errors():
    d = RadialDistribution.uniform_disk(12.0)
    with pytest.raises(DomainError):
        d.cdf(-0.1)
    with pytest.raises(DomainError):
        d.cdf(12.1)
    nan = float("nan")
    for bad in (nan, np.array([1.0, nan])):
        with pytest.raises(DomainError):
            d.cdf(bad)
        with pytest.raises(DomainError):
            d.quantile(bad)
    with pytest.raises(DomainError):
        d.interval_measure(nan, 4.0)
    with pytest.raises(DomainError):
        d.quantile(1.2)
    with pytest.raises(DomainError):
        d.interval_measure(5.0, 4.0)
    with pytest.raises(DomainError):
        RadialDistribution.uniform_disk(0.0)


def test_piecewise_validation():
    with pytest.raises(DomainError):
        RadialDistribution.piecewise_linear_cdf(2.0, [[0.0, 0.0], [2.0, 0.9]])
    with pytest.raises(DomainError):
        RadialDistribution.piecewise_linear_cdf(2.0, [[0.1, 0.0], [2.0, 1.0]])
    with pytest.raises(DomainError):
        RadialDistribution.piecewise_linear_cdf(2.0, [[0.0, 0.0], [1.0, 0.8], [1.0, 0.9], [2.0, 1.0]])
    with pytest.raises(DomainError):
        RadialDistribution.piecewise_linear_cdf(2.0, [[0.0, 0.0], [1.0, 0.8], [1.5, 0.7], [2.0, 1.0]])
    nan = float("nan")
    for knots in ([[0.0, 0.0], [nan, 0.5], [2.0, 1.0]], [[0.0, 0.0], [1.0, nan], [2.0, 1.0]],
                  [[0.0, 0.0], [float("inf"), 0.5], [2.0, 1.0]],
                  # CDF slope 0.9 / 1e-309 overflows to inf
                  [[0.0, 0.0], [1e-309, 0.9], [2.0, 1.0]]):
        with pytest.raises(DomainError):
            RadialDistribution.piecewise_linear_cdf(2.0, knots)


def test_quantile_requires_strictly_increasing():
    flat = RadialDistribution.piecewise_linear_cdf(
        2.0, [[0.0, 0.0], [1.0, 0.5], [1.5, 0.5], [2.0, 1.0]]
    )
    assert not flat.strictly_increasing
    with pytest.raises(DomainError):
        flat.quantile(0.5)


def test_json_spec_round_trip():
    disk = RadialDistribution.from_spec({"kind": "uniform-disk", "radius": 12.0})
    assert (disk.kind, disk.radius, disk.knots_d, disk.knots_cdf) == ("uniform-disk", 12.0, None, None)
    rng = np.random.default_rng(5)
    law = random_increasing_cdf(rng, 12.0)
    knots = np.column_stack([law.knots_d, law.knots_cdf]).tolist()
    pw = RadialDistribution.from_spec({"kind": "piecewise-linear-cdf", "radius": 12.0, "knots": knots})
    assert (pw.kind, pw.radius) == ("piecewise-linear-cdf", 12.0)
    assert np.array_equal(pw.knots_d, law.knots_d)
    assert np.array_equal(pw.knots_cdf, law.knots_cdf)
    for bad in ({"kind": "uniform-disk"}, {"kind": "piecewise-linear-cdf", "radius": 12.0},
                {"kind": "cone", "radius": 12.0}):
        with pytest.raises(DomainError):
            RadialDistribution.from_spec(bad)
