"""Packet success probability as a function of own distance.

A transmission from distance d succeeds when no opponent both transmits and
sits closer to the sink.  With i.i.d. opponent distances the success
probability factorizes into one term per opponent,

    success(d) = prod_j q_j(d),
    q_j(d)     = P(opponent j backs off, or sits farther than d),

and each q_j is the measure of (d, R] union j's back-off set.  That union is
the complement of (j's transmit set intersected with [0, d]), so

    q_j(d) = 1 - mu(transmit_j  intersect  [0, d]),

which is the form computed here: a sum of clamped CDF differences, exact,
and non-increasing in d in floating point because the computed CDF is
non-decreasing for both laws.  Both kernels, the scalar evaluator of the
solver and the verifier and the array one of curves, take one table of F(a)
and F(b) - F(a) per opponent interval, validated only by
:func:`_opponent_rows`, and add the same terms in the same order.  So every
curve starts at exactly 1, and the two agree bit for bit except on the disk
strictly inside an opponent interval, where the scalar F(d) is libm's
``pow`` and the array one numpy's square.  The measure-theoretic union form
is the independent oracle against which this identity is tested.
The scalar kernel skips the sum, to the same float, past an opponent's last
end and below a cut-off (see :func:`success_evaluator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .strategy import GameConfig, StrategyProfile, _mass_below

if TYPE_CHECKING:
    import numpy as np

#: Rows per write in :meth:`SuccessCurve.write_csv`.
_CSV_BLOCK = 4096


def success_evaluator(opponents: tuple, cdf):
    """Scalar success-probability closure over an opponent table.

    This is the one scalar kernel: each opponent contributes the factor
    q_j(d) = 1 - (clamped-CDF sum over its transmit intervals).  It reads the
    table that :func:`_opponent_rows` validates, built once per profile and
    law, and an evaluation makes one ``cdf`` call, F(d).  Opponents multiply
    in node order, each (end, q_full, cut, rows) by the row loop's float:

    * d >= end: every row adds its whole width, and ``q_full`` is 1.0 minus
      the widths added left to right from 0.0;
    * a cut-off (``cut``: one row, from 0) below its end: the one term is
      0.0 + (F(d) - F(0)), F(0) is 0.0 on both laws, so the factor is 1 - F(d);
    * otherwise the row loop: F(d) - F(a) for the interval containing d and
      F(b) - F(a) for those wholly below it.
    """
    def evaluate(d: float) -> float:
        fd = cdf(d)
        below_cut, out = 1.0 - fd, 1.0
        for end, q_full, cut, rows in opponents:
            if d >= end:
                out *= q_full
            elif cut:
                out *= below_cut
            else:
                mass = 0.0
                for a, b, fa, width in rows:
                    if d < b:
                        if d > a:
                            mass += fd - fa
                        break  # later intervals lie beyond d
                    mass += width
                out *= 1.0 - mass
        return out

    return evaluate


def _opponent_rows(profile: StrategyProfile, cfg: GameConfig, i: int) -> tuple:
    """Node i's opponents' (end, q_full, cut, rows) entries; validates the game.

    Both success kernels read them, checked only here.  Cached on the profile per law beside
    every row's (end, node, width), sorted, and the count of strategies that are not cut-offs.
    """
    _check(profile, cfg)
    profile.check_index(i)
    dist, cached = cfg.distribution, profile._cdf_rows
    if cached is None or cached[0] is not dist:
        table, bands = [], 0
        for s in profile.strategies:
            rows, mass = s._cdf_rows(dist), 0.0
            for row in rows:
                mass += row[3]
            cut = not rows or rows[-1][0] == 0.0  # only a first interval can start at 0
            table.append((rows[-1][1] if rows else 0.0, 1.0 - mass, cut, rows))
            bands += not cut
        by_end = tuple(sorted((b, j, w) for j, e in enumerate(table) for _, b, _, w in e[3]))
        cached = (dist, tuple(table), by_end, bands)
        object.__setattr__(profile, "_cdf_rows", cached)
    return cached[1][:i] + cached[1][i + 1 :]


def success_probability(profile: StrategyProfile, cfg: GameConfig, i: int, d):
    """Probability that node i's packet is captured when transmitted from d.

    Product over all opponents of q_j(d) = 1 - mu(transmit_j intersect
    [0, d]); node i's own strategy does not enter.  Accepts a scalar, which
    goes through :func:`success_evaluator`, or an array of distances: one
    array CDF call, then the evaluator's rows summed by ``_mass_below``.
    """
    if isinstance(d, (float, int)):
        if not 0 <= d <= cfg.radius:
            raise DomainError(f"distance {d!r} outside [0, {cfg.radius}]")
        rows, cdf = _opponent_rows(profile, cfg, i), cfg.distribution.cdf_scalar
        return success_evaluator(rows, cdf)(float(d))
    import numpy as np
    opponents = _opponent_rows(profile, cfg, i)
    arr = np.asarray(d, dtype=float)
    fd = cfg.distribution.cdf(arr)  # DomainError outside [0, R]
    out = np.ones(arr.shape)
    for *_, rows in opponents:
        out = out * (1.0 - _mass_below(arr, fd, rows))
    return float(out) if arr.ndim == 0 else out


def breakpoints(profile: StrategyProfile, i: int) -> list[float]:
    """Sorted union of all opponents' interval endpoints.

    These are the only distances where the piecewise form of the success
    curve can change; between consecutive breakpoints every opponent factor
    is either constant or strictly decreasing.
    """
    return sorted({x for s in profile.opponents(i) for iv in s.intervals for x in iv})


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
    bps = np.array(breakpoints(profile, i))
    grid = np.unique(np.concatenate([np.linspace(0.0, cfg.radius, grid_size), bps]))
    return SuccessCurve(i, grid, success_probability(profile, cfg, i, grid), bps)


def _check(profile: StrategyProfile, cfg: GameConfig):
    if profile.n != cfg.n:
        raise DomainError(f"profile has {profile.n} strategies for {cfg.n} nodes")
    if profile.radius != cfg.radius:
        raise DomainError("profile radius and game radius disagree")
