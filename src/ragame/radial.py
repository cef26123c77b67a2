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

A bounded-density law additionally exposes ``density_sup``, the supremum of
its density, which bounds how fast success probabilities can change.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError

UNIFORM_DISK = "uniform-disk"
PIECEWISE_LINEAR_CDF = "piecewise-linear-cdf"


@dataclass(frozen=True)
class RadialDistribution:
    """Common law of the node-sink distance on [0, radius].

    Construct through :meth:`uniform_disk`, :meth:`piecewise_linear_cdf` or
    :meth:`from_spec` rather than directly.
    """

    radius: float
    kind: str
    knots_d: np.ndarray | None = field(default=None, repr=False)
    knots_cdf: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"radius must be positive and finite, got {self.radius!r}")
        if self.kind == UNIFORM_DISK:
            if self.knots_d is not None or self.knots_cdf is not None:
                raise DomainError("uniform-disk law takes no knots")
        elif self.kind == PIECEWISE_LINEAR_CDF:
            d = np.asarray(self.knots_d, dtype=float)
            cdf = np.asarray(self.knots_cdf, dtype=float)
            if d.ndim != 1 or d.shape != cdf.shape or d.size < 2:
                raise DomainError("piecewise CDF needs >= 2 knots of equal length")
            if d[0] != 0.0 or d[-1] != self.radius:
                raise DomainError("knot distances must start at 0 and end at radius")
            if cdf[0] != 0.0 or cdf[-1] != 1.0:
                raise DomainError("knot CDF values must start at 0 and end at 1")
            if not np.all(np.diff(d) > 0):
                raise DomainError("knot distances must be strictly increasing")
            if not np.all(np.diff(cdf) >= 0):
                raise DomainError("CDF knots must be non-decreasing")
            with np.errstate(over="ignore"):
                if not np.all(np.isfinite(np.diff(cdf) / np.diff(d))):
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
        knots = np.asarray(knots, dtype=float)
        if knots.ndim != 2 or knots.shape[1] != 2:
            raise DomainError("knots must be a sequence of (distance, cdf) pairs")
        return cls(
            radius=float(radius),
            kind=PIECEWISE_LINEAR_CDF,
            knots_d=knots[:, 0].copy(),
            knots_cdf=knots[:, 1].copy(),
        )

    # -- JSON spec -----------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: dict) -> "RadialDistribution":
        """Build from a JSON-style dict, e.g. ``{"kind": "uniform-disk", "radius": 12.0}``."""
        if not isinstance(spec, dict) or "kind" not in spec or "radius" not in spec:
            raise DomainError("distribution spec needs 'kind' and 'radius'")
        kind = spec["kind"]
        radius = float(spec["radius"])
        if kind == UNIFORM_DISK:
            return cls.uniform_disk(radius)
        if kind == PIECEWISE_LINEAR_CDF:
            if "knots" not in spec:
                raise DomainError("piecewise-linear-cdf spec needs 'knots'")
            return cls.piecewise_linear_cdf(radius, spec["knots"])
        raise DomainError(f"unknown distribution kind {kind!r}")

    # -- properties ----------------------------------------------------------

    @property
    def density_sup(self) -> float:
        """Supremum of the density (max CDF slope)."""
        if self.kind == UNIFORM_DISK:
            return 2.0 / self.radius
        slopes = np.diff(self.knots_cdf) / np.diff(self.knots_d)
        return float(slopes.max())

    @property
    def strictly_increasing(self) -> bool:
        """True when the CDF is strictly increasing on [0, radius].

        Equivalent to the law dominating Lebesgue measure: every interval of
        positive length has positive probability.
        """
        if self.kind == UNIFORM_DISK:
            return True
        return bool(np.all(np.diff(self.knots_cdf) > 0))

    # -- measure operations ----------------------------------------------------

    @cached_property
    def _knot_lists(self) -> tuple[list[float], list[float]]:
        # plain lists make the scalar CDF a bisect away instead of an
        # array round-trip; root-finders call it millions of times
        return list(map(float, self.knots_d)), list(map(float, self.knots_cdf))

    def cdf_scalar(self, d: float) -> float:
        """Scalar fast path of :meth:`cdf`; assumes 0 <= d <= radius."""
        if self.kind == UNIFORM_DISK:
            return (d / self.radius) ** 2
        xs, ys = self._knot_lists
        j = bisect_right(xs, d) - 1
        if j >= len(xs) - 1:
            return ys[-1]
        if j < 0:
            j = 0
        # same interpolation arithmetic as np.interp
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        return slope * (d - xs[j]) + ys[j]

    def cdf(self, d):
        """F(d), the probability of a distance no larger than d.

        Accepts a scalar or an array; raises DomainError outside [0, radius].
        """
        if isinstance(d, (float, int)):
            if not 0 <= d <= self.radius:
                raise DomainError(f"distance {d!r} outside [0, {self.radius}]")
            return self.cdf_scalar(float(d))
        arr = np.asarray(d, dtype=float)
        if not np.all((arr >= 0) & (arr <= self.radius)):
            raise DomainError(f"distance {d!r} outside [0, {self.radius}]")
        if self.kind == UNIFORM_DISK:
            out = (arr / self.radius) ** 2
        else:
            out = np.interp(arr, self.knots_d, self.knots_cdf)
        return float(out) if arr.ndim == 0 else out

    def interval_measure(self, a: float, b: float) -> float:
        """Probability mass of the interval (a, b]."""
        if not a <= b:
            raise DomainError(f"empty-order interval ({a!r}, {b!r}]")
        return float(self.cdf(b)) - float(self.cdf(a))

    def quantile(self, p):
        """Inverse CDF; the unique d with F(d) = p.

        Requires a strictly increasing CDF so the inverse is well defined.
        Accepts a scalar or an array of probabilities in [0, 1].
        """
        arr = np.asarray(p, dtype=float)
        if not np.all((arr >= 0) & (arr <= 1)):
            raise DomainError(f"probability {p!r} outside [0, 1]")
        if self.kind == UNIFORM_DISK:
            out = self.radius * np.sqrt(arr)
        else:
            if not self.strictly_increasing:
                raise DomainError("quantile needs a strictly increasing CDF")
            out = np.interp(arr, self.knots_cdf, self.knots_d)
        return float(out) if np.isscalar(p) or arr.ndim == 0 else out
