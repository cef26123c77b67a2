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
so not just any zero will do.  As util is non-increasing, {util <= 0} is one
interval reaching to R, and its left edge is the one float at which util
turns non-positive; :func:`first_zero`, which bisects with the invariant
util(lo) > 0 >= util(hi), finds that float from any bracket that holds it.
The computed util is non-increasing too (see ``success``), so the same
holds in floating point.

One region needs the zero-tie tolerance rather than exact signs: beyond the
last distance at which any opponent still transmits, util is bit-exactly
constant.  At an equilibrium that constant is zero up to rounding, and its
floating-point sign is noise; landing at +2e-16 must not flip the best
response from the plateau's left edge to R.  So when the terminal constant
sits within ``VALUE_TOL`` of zero, the whole terminal region counts as tied
at zero and the cut-off resolves to its left edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .strategy import GameConfig, StrategyProfile
from .success import success_evaluator

INTERIOR = "interior"
FULL_TRANSMIT = "full-transmit"
BOUNDARY_ZERO = "boundary-zero"

#: util values within this of zero count as zero for the boundary classification.
VALUE_TOL = 1e-12


def first_zero(f, lo: float, hi: float) -> float:
    """Left edge of the set where f <= 0, for f(lo) > 0 >= f(hi).

    Bisects with that invariant until lo and hi are adjacent floats and
    returns hi.  No step cap is needed: each step either stops or moves an
    endpoint strictly inside the bracket, and a NaN value counts as <= 0.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


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

    Bisects with :func:`first_zero` until the bracket endpoints are adjacent
    floats, however small the cut-off, which always lands well inside the
    documented 1e-10 * radius guarantee.  The returned threshold t carries
    util(t) <= 0 (the node backs off at its own threshold), except in the
    full-transmit case where util stays positive everywhere including at R.
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
    t = silent_tail_start if util_end > 0.0 else first_zero(util, 0.0, silent_tail_start)
    # At t == R util is positive on every representable d < R: boundary case.
    return BestResponseResult(t, BOUNDARY_ZERO if t == radius else INTERIOR, util(t))
