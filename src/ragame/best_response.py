"""Best-response cut-off computation.

The expected utility of transmitting from distance d is

    util(d) = (1 + c) * success(d) - c,

a continuous, non-increasing function starting at util(0) = 1.  A best
response is therefore always a cut-off rule: transmit below some critical
distance, back off beyond it.  Three regimes arise:

* ``full-transmit``   -- util stays positive through R, as it does whenever
                         every opponent is silent; transmit everywhere.
* ``boundary-zero``   -- util is positive on [0, R) and zero at R; the tie
                         rule (back off at zero utility) applies only at the
                         single point R.
* ``interior``        -- util first reaches zero at some t < R; transmit on
                         [0, t), back off on [t, R].

The interior cut-off is the *first* zero of util, inf{d : util(d) <= 0}:
util can be flat at zero over whole intervals, where no opponent transmits,
so not just any zero will do.  As util is non-increasing, in floating point
too (see ``success``), its left edge is the one float where util turns
non-positive, which :func:`first_zero` finds from any bracket and guess.
With cut-off opponents, success between adjacent cut-offs is
P * (1 - F(d))^m, whose closed-form root guesses the edge within a few
ulps; util still decides every sign, so no bit depends on the guess.

One region needs the zero-tie tolerance rather than exact signs: beyond the
last distance at which any opponent still transmits, util is bit-exactly
constant.  At an equilibrium that constant is zero up to rounding, and its
floating-point sign is noise; landing at +2e-16 must not flip the best
response from the plateau's left edge to R.  So when the terminal constant
sits within ``VALUE_TOL`` of zero, the whole terminal region counts as tied
at zero and the cut-off resolves to its left edge.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from operator import itemgetter

from .strategy import GameConfig, StrategyProfile
from .success import _opponent_rows, success_evaluator

INTERIOR = "interior"
FULL_TRANSMIT = "full-transmit"
BOUNDARY_ZERO = "boundary-zero"

#: util values within this of zero count as zero for the boundary classification.
VALUE_TOL = 1e-12


_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _bits(x: float) -> int:
    return _INT64.unpack(_DOUBLE.pack(x))[0]


def _float(k: int) -> float:
    """The float with bit pattern k, which orders non-negative floats; NaN past them."""
    return _DOUBLE.unpack(_INT64.pack(k))[0] if 0 <= k < 1 << 63 else math.nan


def first_zero(f, lo: float, hi: float, guess: float = math.nan) -> float:
    """Left edge of the set where f <= 0, for f(lo) > 0 >= f(hi) and 0 <= lo.

    Gallops from the guess (clamped into (lo, hi); NaN for none) by 1, 2, 4,
    ... ulps toward the sign change until a probe leaves the bracket, then
    bisects to adjacent floats and returns hi.  Once hi has halved 8 times
    and lo < hi / 2, the midpoint halves the bit patterns instead, so any
    bracket costs at most about 64 more steps.  NaN counts as <= 0.
    """
    x = min(max(guess, math.nextafter(lo, hi)), math.nextafter(hi, lo))
    k, step = _bits(x), 1
    while lo < x < hi:
        if f(x) > 0.0:
            lo, k = x, k + step
        else:
            hi, k = x, k - step
        x, step = _float(k), 2 * step
    top = hi
    while True:
        arithmetic = lo >= 0.5 * hi or 256.0 * hi >= top
        mid = 0.5 * (lo + hi) if arithmetic else _float((_bits(lo) + _bits(hi)) // 2)
        if mid <= lo or mid >= hi:
            return hi
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _cutoff_guess(rows, dist, target: float) -> float:
    """Closed-form first d with success <= target if all ``rows`` are cut-offs, else NaN."""
    cuts = sorted((row for r in rows for row in r), key=itemgetter(1))
    # Disjoint intervals that all start at 0 are one per opponent: cut-offs.
    if any(a for a, _, _, _ in cuts):
        return math.nan
    scale, m, lo = 1.0, len(cuts), 0.0
    for _, t, _, width in cuts:  # (0, t_j, F(0) = 0, F(t_j)) by t_j
        if scale * (1.0 - width) ** m <= target:
            return max(dist._root_guess(scale, m, target), lo)
        scale, m, lo = scale * (1.0 - width), m - 1, t
    return math.nan


@dataclass(frozen=True)
class BestResponseResult:
    """Cut-off best response of one node against a fixed opponent profile.

    The best-response strategy is ``Strategy.threshold(threshold, R)``.
    """

    threshold: float
    boundary_case: str  # one of INTERIOR, FULL_TRANSMIT, BOUNDARY_ZERO
    utility_at_threshold: float


def best_response_threshold(
    profile: StrategyProfile, cfg: GameConfig, i: int
) -> BestResponseResult:
    """Critical distance below which node i should transmit.

    :func:`first_zero` runs to adjacent floats, however small the cut-off,
    which lands well inside the documented 1e-10 * radius guarantee.  The
    returned threshold t carries util(t) <= 0 (the node backs off at its own
    threshold), except in the full-transmit case where util stays positive
    everywhere including at R.
    """
    radius = cfg.radius
    success = success_evaluator(profile, cfg, i)
    c = cfg.costs[i]

    def util(d: float) -> float:
        return (1.0 + c) * success(d) - c

    # Beyond silent_tail_start no opponent transmits, so util is bit-exactly
    # util_end; with every opponent silent, success is exactly 1 at any cost.
    util_end = util(radius)
    silent_tail_start = max((s.cutoff for s in profile.opponents(i)), default=0.0)
    if util_end > VALUE_TOL or silent_tail_start == 0.0:
        return BestResponseResult(radius, FULL_TRANSMIT, util_end)

    # The first zero lies in [0, silent_tail_start].  A positive util_end is
    # a tie at zero: back off from that region's left edge, which is R
    # itself if opponents transmit all the way out.
    guess = _cutoff_guess(_opponent_rows(profile, cfg, i), cfg.distribution, c / (1.0 + c))
    t = silent_tail_start if util_end > 0.0 else first_zero(util, 0.0, silent_tail_start, guess)
    # At t == R util is positive on every representable d < R: boundary case.
    return BestResponseResult(t, BOUNDARY_ZERO if t == radius else INTERIOR, util(t))
