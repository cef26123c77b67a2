"""Packet success probability as a function of own distance.

A transmission from distance d succeeds when no opponent both transmits and
sits closer to the sink.  With i.i.d. opponent distances the success
probability factorizes into one term per opponent,

    success(d) = prod_j q_j(d),
    q_j(d)     = P(opponent j backs off, or sits farther than d),

and each q_j is the measure of (d, R] union j's back-off set.  That union is
the complement of (j's transmit set intersected with [0, d]), so

    q_j(d) = 1 - mu(transmit_j  intersect  [0, d]),

which is the form computed here: a sum of clamped CDF differences.  It is
exact, and in floating point it is non-increasing in d term by term,
because the computed CDF is non-decreasing for both laws.  The
measure-theoretic union form is the natural independent oracle against
which this identity is tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .radial import RadialDistribution
from .strategy import GameConfig, StrategyProfile

if TYPE_CHECKING:
    import numpy as np

#: Rows per write in :meth:`SuccessCurve.write_csv`.
_CSV_BLOCK = 4096


def success_evaluator(profile: StrategyProfile, cfg: GameConfig, i: int):
    """Scalar success-probability closure with all validation hoisted.

    This is the one scalar kernel: each opponent contributes the factor
    q_j(d) = 1 - (clamped-CDF sum over its transmit intervals).  Root-finders
    evaluate it millions of times, so validation runs once, at build time,
    and so do the CDF values at the interval endpoints (see
    :func:`_cdf_rows`): an evaluation makes one CDF call, F(d), and sums
    F(d) - F(a) for the interval containing d and F(b) - F(a) for those
    wholly below it.
    """
    _check(profile, cfg)
    profile.check_index(i)
    rows = _cdf_rows(profile, cfg.distribution)
    opponents = rows[:i] + rows[i + 1 :]
    cdf = cfg.distribution.cdf_scalar

    def evaluate(d: float) -> float:
        fd = cdf(d)
        out = 1.0
        for intervals in opponents:
            mass = 0.0
            for a, b, fa, width in intervals:
                if d < b:
                    if d > a:
                        mass += fd - fa
                    break  # later intervals lie beyond d
                mass += width
            out *= 1.0 - mass
        return out

    return evaluate


def _cdf_rows(profile: StrategyProfile, dist: RadialDistribution) -> tuple:
    """Per strategy, one (a, b, F(a), F(b) - F(a)) row per transmit interval.

    Every evaluator built on the same profile and law shares these rows:
    they are computed once, on the first build, and cached on the profile
    together with the law object they were computed under.
    """
    cached = profile._cdf_rows
    if cached is None or cached[0] is not dist:
        cdf = dist.cdf_scalar
        table = []
        for s in profile.strategies:
            rows = []
            for a, b in s.intervals:
                fa = cdf(a)
                rows.append((a, b, fa, cdf(b) - fa))
            table.append(tuple(rows))
        cached = (dist, tuple(table))
        object.__setattr__(profile, "_cdf_rows", cached)
    return cached[1]


def success_probability(profile: StrategyProfile, cfg: GameConfig, i: int, d):
    """Probability that node i's packet is captured when transmitted from d.

    Product over all opponents of q_j(d) = 1 - mu(transmit_j intersect
    [0, d]); node i's own strategy does not enter.  Accepts a scalar, which
    goes through :func:`success_evaluator`, or an array of distances, which
    goes through :meth:`Strategy.transmit_mass_below`.
    """
    _check(profile, cfg)
    profile.check_index(i)
    if isinstance(d, (float, int)):
        if not 0 <= d <= cfg.radius:
            raise DomainError(f"distance {d!r} outside [0, {cfg.radius}]")
        return success_evaluator(profile, cfg, i)(float(d))
    import numpy as np
    arr = np.asarray(d, dtype=float)
    if not np.all((arr >= 0) & (arr <= cfg.radius)):
        raise DomainError(f"distance {d!r} outside [0, {cfg.radius}]")
    out = np.ones(arr.shape)
    for s in profile.opponents(i):
        out = out * (1.0 - s.transmit_mass_below(cfg.distribution, arr))
    return float(out) if arr.ndim == 0 else out


def breakpoints(profile: StrategyProfile, i: int) -> list[float]:
    """Sorted union of all opponents' interval endpoints.

    These are the only distances where the piecewise form of the success
    curve can change; between consecutive breakpoints every opponent factor
    is either constant or strictly decreasing.
    """
    pts = set()
    for s in profile.opponents(i):
        for a, b in s.intervals:
            pts.add(a)
            pts.add(b)
    return sorted(pts)


@dataclass(frozen=True)
class SuccessCurve:
    """Success probability of one node sampled on a grid."""

    node_index: int
    grid: np.ndarray
    values: np.ndarray
    breakpoints: np.ndarray

    def __post_init__(self):
        import numpy as np
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise DomainError("success values escape [0, 1]")
        if np.any(np.diff(self.values) > 0):
            raise DomainError("success curve must be non-increasing")

    def write_csv(self, fileobj):
        """Rows ``d,g`` with both values in ``repr`` form, header first.

        Rows are formatted and written a block at a time, so the text of a
        large curve is never held in memory whole.
        """
        fileobj.write("d,g\n")
        for k in range(0, self.grid.size, _CSV_BLOCK):
            block = slice(k, k + _CSV_BLOCK)
            rows = map("{!r},{!r}\n".format, self.grid[block].tolist(), self.values[block].tolist())
            fileobj.write("".join(rows))


def success_curve(
    profile: StrategyProfile, cfg: GameConfig, i: int, grid_size: int = 1001
) -> SuccessCurve:
    """Evaluate node i's success probability on a uniform grid plus breakpoints.

    Inserting the opponents' interval endpoints guarantees the piecewise
    structure is captured regardless of the grid resolution.
    """
    import numpy as np
    if grid_size < 2:
        raise DomainError(f"grid_size must be >= 2, got {grid_size}")
    _check(profile, cfg)
    profile.check_index(i)
    bps = np.array(breakpoints(profile, i))
    grid = np.unique(np.concatenate([np.linspace(0.0, cfg.radius, grid_size), bps]))
    values = success_probability(profile, cfg, i, grid)
    return SuccessCurve(node_index=i, grid=grid, values=values, breakpoints=bps)


def _check(profile: StrategyProfile, cfg: GameConfig):
    if profile.n != cfg.n:
        raise DomainError(f"profile has {profile.n} strategies for {cfg.n} nodes")
    if profile.radius != cfg.radius:
        raise DomainError("profile radius and game radius disagree")
