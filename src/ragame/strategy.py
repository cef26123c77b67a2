"""Transmit/back-off strategies, strategy profiles, and game configuration.

A strategy maps a node's own distance to transmit (1) or back off (0).  Only
finite unions of intervals are representable: every object the analysis
needs (cut-off rules and bands) is of this form, and it keeps all
probability computations exact interval algebra.

Intervals follow one fixed half-open convention (a, b].  The law of the
distances is atomless, so the convention is observationally irrelevant; it
is pinned down only to make set algebra exact.  A transmit region written
[0, b] is stored as (0, b], dropping the single null point 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .radial import RadialDistribution, spec_number, spec_numbers, spec_pairs

Interval = tuple[float, float]


def canonical_intervals(intervals, radius: float) -> tuple[Interval, ...]:
    """Sort, validate and merge intervals into canonical disjoint form.

    Touching intervals (a, b], (b, c] merge into (a, c].  Empty intervals
    (a == b) are dropped.  Endpoints must satisfy 0 <= a <= b <= radius.
    """
    cleaned = []
    for pair in intervals:
        a, b = (float(pair[0]), float(pair[1]))
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"non-finite interval endpoint in {pair!r}")
        if a > b:
            raise DomainError(f"interval ({a!r}, {b!r}] has inverted endpoints")
        if a < 0 or b > radius:
            raise DomainError(f"interval ({a!r}, {b!r}] escapes [0, {radius}]")
        if a < b:
            cleaned.append((a, b))
    cleaned.sort()
    merged: list[Interval] = []
    for a, b in cleaned:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return tuple(merged)


def _intersection_measure(one, other, dist: RadialDistribution) -> float:
    total = 0.0
    for a1, b1 in one:
        for a2, b2 in other:
            lo, hi = max(a1, a2), min(b1, b2)
            if hi > lo:
                total += dist.interval_measure(lo, hi)
    return total


@dataclass(frozen=True)
class Strategy:
    """A node's transmit rule: transmit exactly on a union of intervals.

    ``intervals`` is kept canonical (sorted, disjoint, non-adjacent), so the
    constructor accepts any unsorted/overlapping list.
    """

    radius: float
    intervals: tuple[Interval, ...]

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"radius must be positive and finite, got {self.radius!r}")
        object.__setattr__(self, "intervals", canonical_intervals(self.intervals, self.radius))

    @classmethod
    def threshold(cls, cutoff: float, radius: float) -> "Strategy":
        """Cut-off rule: transmit on (0, cutoff], back off beyond."""
        cutoff = float(cutoff)
        if not 0 <= cutoff <= radius:
            raise DomainError(f"cutoff {cutoff!r} outside [0, {radius}]")
        ivs = [(0.0, cutoff)] if cutoff > 0 else []
        return cls(radius=float(radius), intervals=tuple(ivs))

    @classmethod
    def never(cls, radius: float) -> "Strategy":
        return cls(radius=float(radius), intervals=())

    @classmethod
    def always(cls, radius: float) -> "Strategy":
        return cls.threshold(radius, radius)

    @classmethod
    def from_spec(cls, spec: dict, radius: float) -> "Strategy":
        """Build from ``{"threshold": t}`` or ``{"intervals": [[a, b], ...]}``."""
        if not isinstance(spec, dict):
            raise DomainError(f"strategy spec must be an object, got {spec!r}")
        if "threshold" in spec:
            return cls.threshold(spec_number(spec["threshold"], "threshold"), radius)
        if "intervals" in spec:
            return cls(radius=float(radius), intervals=spec_pairs(spec["intervals"], "intervals"))
        raise DomainError("strategy spec needs 'threshold' or 'intervals'")

    # -- structure -------------------------------------------------------------

    @property
    def is_threshold(self) -> bool:
        """True for cut-off rules: at most one interval, anchored at 0."""
        if not self.intervals:
            return True
        return len(self.intervals) == 1 and self.intervals[0][0] == 0.0

    @property
    def cutoff(self) -> float:
        """Sup of the transmit set (0 when the node never transmits)."""
        return self.intervals[-1][1] if self.intervals else 0.0

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, d: float) -> int:
        """1 iff the node transmits at own distance d (half-open intervals)."""
        if not 0 <= d <= self.radius:
            raise DomainError(f"distance {d!r} outside [0, {self.radius}]")
        for a, b in self.intervals:
            if a < d <= b:
                return 1
        return 0

    def transmit_mask(self, d):
        """Vectorized :meth:`evaluate` returning a boolean array."""
        import numpy as np
        d = np.asarray(d)
        mask = np.zeros(d.shape, dtype=bool)
        for a, b in self.intervals:
            mask |= (d > a) & (d <= b)
        return mask

    # -- measures ----------------------------------------------------------------

    def transmit_probability(self, dist: RadialDistribution) -> float:
        """Probability that the node transmits, as seen by the other nodes."""
        self._check_dist(dist)
        return sum(dist.interval_measure(a, b) for a, b in self.intervals)

    def transmit_mass_below(self, dist: RadialDistribution, d):
        """Measure of (transmit set) intersected with [0, d]; scalar or array d.

        Evaluated as a sum of clamped CDF differences, one per interval, so
        along a grid of d values the result is exactly non-decreasing in
        floating point (each term is).  This is the array kernel behind
        success curves; the scalar one is ``success.success_evaluator``.
        """
        self._check_dist(dist)
        import numpy as np
        arr = np.asarray(d, dtype=float)
        total = np.zeros(arr.shape)
        for a, b in self.intervals:
            total = total + (dist.cdf(np.clip(arr, a, b)) - dist.cdf(a))
        return float(total) if arr.ndim == 0 else total

    def symmetric_difference_measure(self, other: "Strategy", dist: RadialDistribution) -> float:
        """Measure of the set where the two strategies disagree."""
        if other.radius != self.radius:
            raise DomainError("strategies live on different radii")
        mine = self.transmit_probability(dist)
        theirs = other.transmit_probability(dist)
        both = _intersection_measure(self.intervals, other.intervals, dist)
        return max(0.0, mine + theirs - 2.0 * both)

    def _check_dist(self, dist: RadialDistribution):
        if dist.radius != self.radius:
            raise DomainError(
                f"strategy radius {self.radius} != distribution radius {dist.radius}"
            )


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy per node."""

    strategies: tuple[Strategy, ...]
    #: (law, per-strategy CDF rows) cached by ``success.success_evaluator``.
    _cdf_rows: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if len(self.strategies) < 2:
            raise DomainError("a profile needs at least 2 nodes")
        radii = {s.radius for s in self.strategies}
        if len(radii) != 1:
            raise DomainError(f"strategies live on different radii: {sorted(radii)}")

    @property
    def n(self) -> int:
        return len(self.strategies)

    @property
    def radius(self) -> float:
        return self.strategies[0].radius

    def opponents(self, i: int) -> tuple[Strategy, ...]:
        self.check_index(i)
        return self.strategies[:i] + self.strategies[i + 1 :]

    def check_index(self, i: int):
        if not (0 <= i < self.n):
            raise DomainError(f"node index {i} out of range [0, {self.n})")

    @classmethod
    def from_spec(cls, specs, radius: float) -> "StrategyProfile":
        if not isinstance(specs, (list, tuple)):
            raise DomainError("profile spec must be an array of strategy specs")
        return cls(tuple(Strategy.from_spec(s, radius) for s in specs))


@dataclass(frozen=True)
class GameConfig:
    """A full game instance: distance law, node count, failure costs."""

    distribution: RadialDistribution
    n: int
    costs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "costs", tuple(float(c) for c in self.costs))
        if self.n < 2:
            raise DomainError(f"need at least 2 nodes, got {self.n}")
        if len(self.costs) != self.n:
            raise DomainError(f"{len(self.costs)} costs for {self.n} nodes")
        for c in self.costs:
            if not (math.isfinite(c) and c > 0):
                raise DomainError(f"failure costs must be in (0, inf), got {c!r}")

    @property
    def radius(self) -> float:
        return self.distribution.radius

    @classmethod
    def from_spec(cls, spec: dict) -> "GameConfig":
        """Build from ``{"radius": R, "n": n, "costs": [...], "distribution": {...}}``.

        The distribution spec may omit its radius, inheriting the top-level
        one; when both are present they must agree.  Nothing is coerced: n
        must be an int and every other value a number or array of numbers.
        """
        if not isinstance(spec, dict):
            raise DomainError("game config must be an object")
        for key in ("radius", "n", "costs", "distribution"):
            if key not in spec:
                raise DomainError(f"game config missing {key!r}")
        radius, n = spec_number(spec["radius"], "radius"), spec["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError(f"n must be an integer, got {n!r}")
        dist_spec = dict(spec["distribution"])
        dist_spec.setdefault("radius", radius)
        distribution = RadialDistribution.from_spec(dist_spec)
        if distribution.radius != radius:
            raise DomainError("config radius and distribution radius disagree")
        return cls(distribution=distribution, n=n, costs=spec_numbers(spec["costs"], "costs"))
