"""Radial distance law of the nodes on [0, R].

Node-sink distances are i.i.d. draws from a common atomless probability law
on [0, R].  Because the law has no atoms, every singleton has measure zero
and the open/closed status of interval endpoints never matters; all interval
measures reduce to CDF differences, which this module computes in closed
form (no quadrature anywhere).

Two representations are supported:

* ``uniform-disk`` -- nodes uniform on a disk of radius R, so the distance
  CDF is F(d) = (d/R)^2.
* ``piecewise-linear-cdf`` -- an arbitrary continuous law given by sorted
  CDF knots; interval measures are exact sums of knot differences.

Scalar evaluation is plain Python; numpy is imported only where an array
is taken or returned, so the solver and the verifier never load it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import DomainError

UNIFORM_DISK = "uniform-disk"
PIECEWISE_LINEAR_CDF = "piecewise-linear-cdf"


def spec_number(value, what: str) -> float:
    """A JSON number as a float; TypeError for anything else, bools and strings included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def spec_numbers(values, what: str, length: int | None = None) -> tuple[float, ...]:
    """A JSON array of numbers, of the given length if one is named, as floats."""
    if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
        count = length or "any number of"
        raise TypeError(f"{what} must be an array of {count} numbers, got {values!r}")
    return tuple(spec_number(v, what) for v in values)


def spec_pairs(values, what: str) -> list[tuple[float, ...]]:
    """A JSON array of [number, number] pairs, such as knots or intervals."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"{what} must be an array of pairs, got {values!r}")
    return [spec_numbers(pair, f"each of the {what}", 2) for pair in values]


def _capped_interp(x, xp: tuple, fp: tuple):
    """``np.interp(x, xp, fp)`` capped at the next knot's value, so non-decreasing in x."""
    import numpy as np
    cap = np.array(fp + fp[-1:])[np.searchsorted(xp, x, side="right")]
    return np.minimum(np.interp(x, xp, fp), cap)


@dataclass(frozen=True)
class RadialDistribution:
    """Common law of the node-sink distance on [0, radius].

    Construct through :meth:`uniform_disk`, :meth:`piecewise_linear_cdf` or
    :meth:`from_spec` rather than directly.
    """

    radius: float
    kind: str
    knots_d: tuple[float, ...] | None = field(default=None, repr=False)
    knots_cdf: tuple[float, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"radius must be positive and finite, got {self.radius!r}")
        if self.kind == UNIFORM_DISK:
            if self.knots_d is not None or self.knots_cdf is not None:
                raise DomainError("uniform-disk law takes no knots")
        elif self.kind == PIECEWISE_LINEAR_CDF:
            d, cdf = tuple(map(float, self.knots_d)), tuple(map(float, self.knots_cdf))
            if len(d) != len(cdf) or len(d) < 2:
                raise DomainError("piecewise CDF needs >= 2 knots of equal length")
            if d[0] != 0.0 or d[-1] != self.radius:
                raise DomainError("knot distances must start at 0 and end at radius")
            if cdf[0] != 0.0 or cdf[-1] != 1.0:
                raise DomainError("knot CDF values must start at 0 and end at 1")
            if not all(x0 < x1 for x0, x1 in zip(d, d[1:])):
                raise DomainError("knot distances must be strictly increasing")
            if not all(y0 <= y1 for y0, y1 in zip(cdf, cdf[1:])):
                raise DomainError("CDF knots must be non-decreasing")
            slopes = ((y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(d, d[1:], cdf, cdf[1:]))
            if not all(map(math.isfinite, slopes)):  # float division overflows to inf
                raise DomainError("CDF slope between knots overflows")
            object.__setattr__(self, "knots_d", d)
            object.__setattr__(self, "knots_cdf", cdf)
        else:
            raise DomainError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def uniform_disk(cls, radius: float) -> "RadialDistribution":
        """Distance law of a point uniform on a disk of the given radius."""
        return cls(radius=float(radius), kind=UNIFORM_DISK)

    @classmethod
    def piecewise_linear_cdf(cls, radius: float, knots) -> "RadialDistribution":
        """Continuous law given by sorted (distance, CDF) knots."""
        try:
            d, cdf = zip(*[(float(x), float(y)) for x, y in knots])
        except (TypeError, ValueError) as exc:
            raise DomainError("knots must be a sequence of (distance, cdf) pairs") from exc
        return cls(radius=float(radius), kind=PIECEWISE_LINEAR_CDF, knots_d=d, knots_cdf=cdf)

    # -- JSON spec -----------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: dict) -> "RadialDistribution":
        """Build from a JSON-style dict, e.g. ``{"kind": "uniform-disk", "radius": 12.0}``."""
        if not isinstance(spec, dict) or "kind" not in spec or "radius" not in spec:
            raise DomainError("distribution spec needs 'kind' and 'radius'")
        kind = spec["kind"]
        radius = spec_number(spec["radius"], "radius")
        if kind == UNIFORM_DISK:
            return cls.uniform_disk(radius)
        if kind == PIECEWISE_LINEAR_CDF:
            if "knots" not in spec:
                raise DomainError("piecewise-linear-cdf spec needs 'knots'")
            return cls.piecewise_linear_cdf(radius, spec_pairs(spec["knots"], "knots"))
        raise DomainError(f"unknown distribution kind {kind!r}")

    # -- properties ----------------------------------------------------------

    @property
    def strictly_increasing(self) -> bool:
        """True when the CDF is strictly increasing on [0, radius].

        Equivalent to the law dominating Lebesgue measure: every interval of
        positive length has positive probability.
        """
        if self.kind == UNIFORM_DISK:
            return True
        return all(y0 < y1 for y0, y1 in zip(self.knots_cdf, self.knots_cdf[1:]))

    # -- measure operations ----------------------------------------------------

    def cdf_scalar(self, d: float) -> float:
        """Scalar fast path of :meth:`cdf`; assumes 0 <= d <= radius."""
        if self.kind == UNIFORM_DISK:
            return (d / self.radius) ** 2
        xs, ys = self.knots_d, self.knots_cdf
        j = bisect_right(xs, d) - 1
        if j >= len(xs) - 1:
            return ys[-1]
        if j < 0:
            j = 0
        # np.interp's arithmetic, capped at the next knot's value: rounding
        # can lift it one ulp above F(knot) just below a knot, and the capped
        # CDF is non-decreasing everywhere
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        return min(slope * (d - xs[j]) + ys[j], ys[j + 1])

    def cdf(self, d):
        """F(d), the probability of a distance no larger than d.

        Accepts a scalar or an array; raises DomainError outside [0, radius].
        """
        if isinstance(d, (float, int)):
            if not 0 <= d <= self.radius:
                raise DomainError(f"distance {d!r} outside [0, {self.radius}]")
            return self.cdf_scalar(float(d))
        import numpy as np
        arr = np.asarray(d, dtype=float)
        if not np.all((arr >= 0) & (arr <= self.radius)):
            raise DomainError(f"distance {d!r} outside [0, {self.radius}]")
        if self.kind == UNIFORM_DISK:
            out = (arr / self.radius) ** 2
        else:
            out = _capped_interp(arr, self.knots_d, self.knots_cdf)
        return float(out) if arr.ndim == 0 else out

    def interval_measure(self, a: float, b: float) -> float:
        """Probability mass of the interval (a, b]."""
        if not a <= b:
            raise DomainError(f"empty-order interval ({a!r}, {b!r}]")
        return float(self.cdf(b)) - float(self.cdf(a))

    def quantile(self, p):
        """Inverse CDF; the unique d with F(d) = p.

        Requires a strictly increasing CDF so the inverse is well defined.
        Accepts a scalar or an array of probabilities in [0, 1].  The result
        is non-decreasing in p in floating point too.
        """
        import numpy as np
        arr = np.asarray(p, dtype=float)
        if not np.all((arr >= 0) & (arr <= 1)):
            raise DomainError(f"probability {p!r} outside [0, 1]")
        if self.kind == UNIFORM_DISK:
            out = self.radius * np.sqrt(arr)
        else:
            if not self.strictly_increasing:
                raise DomainError("quantile needs a strictly increasing CDF")
            out = _capped_interp(arr, self.knots_cdf, self.knots_d)
        return float(out) if np.isscalar(p) or arr.ndim == 0 else out
