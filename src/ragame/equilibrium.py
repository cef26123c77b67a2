"""Equilibrium cut-off profiles: solving and verification.

At an equilibrium every node uses a cut-off rule, nodes with equal failure
cost share one cut-off, and cut-offs grow as costs shrink.  Grouping nodes
into cost classes (strictly decreasing class costs) reduces equilibrium
computation to one scalar equation per class, solved in cost order.

For a cut-off profile the success probability of a class-i member evaluated
at its own cut-off t_i factorizes exactly:

    success(t_i) = prod_{l < i} (1 - F(t_l))^{k_l} * (1 - F(t_i))^{e_i},
    e_i = (k_i - 1) + sum_{l > i} k_l,

where k_l is the size of class l: cheaper-or-equal classes are still
transmitting at t_i, costlier classes have already stopped.  Each class
condition  success(t_i) = cost_i / (1 + cost_i)  is therefore one monotone
root-find in t_i on (t_{i-1}, R).  The left edge value equals the previous
class target, which strictly exceeds the current target, and the value at R
is zero whenever e_i >= 1, so a root always brackets.

The only class with e_i = 0 is a cheapest class of size one.  Its members'
success is constant beyond t_{i-1} and equal to the previous class target,
which strictly exceeds its own target, so its transmit utility stays
positive through R: the node transmits everywhere, and the report's
``last_class_full`` says so.  By the same token at most one node ends at R.

Verification is independent of the solver: each node's best response is
recomputed from scratch (once per distinct strategy and cost, since nodes
alike in both face the same opponents) and compared against the profile,
and the structural conditions (at most one cut-off at R; success at
interior cut-offs equal to cost/(1+cost); equal costs giving equal
cut-offs) are checked with explicit residuals.  The report keeps only what
the verifier measured, and every verdict, the class table and
``last_class_full`` are derived from those measurements.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

from .best_response import (
    BOUNDARY_ZERO,
    FULL_TRANSMIT,
    INTERIOR,
    best_response_threshold,
    first_zero,
)
from .errors import DomainError, NumericError
from .strategy import GameConfig, Strategy, StrategyProfile
from .success import _check, success_probability


#: Largest |success(cut-off) - cost/(1+cost)| at an interior cut-off that the
#: ``interior_success_targets`` verdict of :func:`verify_nash` accepts.
RESIDUAL_TOL = 1e-8


def cost_target(cost: float) -> float:
    """Success level at which transmitting breaks even: cost / (1 + cost)."""
    return cost / (1.0 + cost)


@dataclass(frozen=True, slots=True)
class CostClass:
    """Maximal set of nodes sharing one failure cost."""

    cost: float
    members: tuple[int, ...]
    rank: int  # 0 = costliest


def cost_classes(costs) -> list[CostClass]:
    """Partition node indices by exact cost equality, costliest class first."""
    groups: dict[float, list[int]] = {}
    for i, c in enumerate(costs):
        groups.setdefault(float(c), []).append(i)
    ordered = sorted(groups.items(), key=lambda kv: -kv[0])
    return [
        CostClass(cost=c, members=tuple(members), rank=r)
        for r, (c, members) in enumerate(ordered)
    ]


@dataclass(frozen=True, slots=True)
class ThresholdProfile:
    """One cut-off distance per node; the equilibrium object."""

    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))

    def to_strategy_profile(self, radius: float) -> StrategyProfile:
        return StrategyProfile(tuple(Strategy.threshold(t, radius) for t in self.thresholds))


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of one structural check, with a numeric residual."""

    passed: bool
    residual: float
    detail: str

    def as_dict(self) -> dict:
        return {"passed": self.passed, "residual": self.residual, "detail": self.detail}


@dataclass(frozen=True, slots=True)
class ClassSolution:
    cost: float
    members: tuple[int, ...]
    threshold: float
    success_value: float

    @property
    def target(self) -> float:
        return cost_target(self.cost)

    @property
    def residual(self) -> float:
        return abs(self.success_value - self.target)

    def as_dict(self) -> dict:
        return {
            "cost": self.cost,
            "members": list(self.members),
            "threshold": self.threshold,
            "success_value": self.success_value,
            "target": self.target,
            "residual": self.residual,
        }


@dataclass(frozen=True, slots=True)
class NodeCheck:
    """Best-response re-check of one node.

    Nodes with the same strategy and cost pose one best-response problem,
    so :func:`verify_nash` shares one check object among them; a node's
    index is its position in :attr:`EquilibriumReport.nodes`.
    """

    cutoff: float
    best_response: float
    boundary_case: str
    symmetric_difference: float
    matched: bool

    @property
    def threshold_residual(self) -> float:
        return abs(self.cutoff - self.best_response)

    def as_dict(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "best_response": self.best_response,
            "boundary_case": self.boundary_case,
            "threshold_residual": self.threshold_residual,
            "symmetric_difference": self.symmetric_difference,
            "matched": self.matched,
        }


#: A check's code holds its boundary case, as an index into _CASES, in bits
#: 0-1, and then the _MATCHED bit.
_CASES = (INTERIOR, FULL_TRANSMIT, BOUNDARY_ZERO)
_MATCHED = 1 << 2
#: A report stores these doubles per check, after its first three values.
_COST, _CUTOFF, _BEST_RESPONSE, _SYM_DIFF, _SUCCESS, _RESIDUAL = range(6)

_TARGETS_DETAIL = (
    "max |success(cutoff) - cost/(1+cost)| over nodes (shortfall only for a node at R)"
)
_EQUAL_DETAIL = "max cut-off / transmit-set discrepancy within a cost class"


def _packed(values) -> bytes | array:
    """Unsigned integers as bytes, or in the narrowest array that holds them."""
    values = list(values)
    top = max(values, default=0)
    if top < 1 << 8:
        return bytes(values)
    return array("H" if top < 1 << 16 else "I", values)


@dataclass(frozen=True, slots=True)
class EquilibriumReport:
    """Verification of a candidate profile, as :func:`verify_nash` measured it.

    Callers may keep reports by the thousand, so a report stores only the
    measurements, packed:

    * ``_values``: the equal-costs residual, the radius and tol, then six
      doubles per distinct check: cost, cut-off, best response, symmetric
      difference, success at the cut-off, and the success-target residual;
    * ``_codes``: per check, its boundary case and whether it matched;
    * ``_check_index``: per node, the index of its check;
    * ``_cutoff_profile``: whether every strategy is a cut-off rule.

    ``is_nash``, ``verdicts``, ``classes``, ``last_class_full``, ``nodes``
    and ``profile`` are derived from these on access.  A node is at R when
    its cut-off is at least R - tol.  ``nodes`` builds each distinct
    :class:`NodeCheck` on first access and keeps it, so alike nodes share
    one object.
    """

    _values: array
    _codes: bytes
    _check_index: bytes | array
    _cutoff_profile: bool
    _checks: tuple[NodeCheck, ...] | None = field(default=None, repr=False, compare=False)

    def _column(self, j: int) -> array:
        """Field j of every check, in check order."""
        return self._values[3 + j :: 6]

    def _at_r(self) -> list[bool]:
        """Per check, whether its cut-off is at R."""
        radius, tol = self._values[1:3]
        return [t >= radius - tol for t in self._column(_CUTOFF)]

    @property
    def is_nash(self) -> bool:
        """Every node's strategy matches its best response."""
        return all(code & _MATCHED for code in self._codes)

    @property
    def nodes(self) -> tuple[NodeCheck, ...]:
        """One check per node, in node order; alike nodes share one object."""
        if self._checks is None:
            columns = (self._column(j) for j in (_CUTOFF, _BEST_RESPONSE, _SYM_DIFF))
            checks = tuple(
                NodeCheck(cutoff, best, _CASES[code & 3], sym_diff, bool(code & _MATCHED))
                for code, cutoff, best, sym_diff in zip(self._codes, *columns)
            )
            object.__setattr__(self, "_checks", checks)
        return tuple(self._checks[k] for k in self._check_index)

    @property
    def profile(self) -> ThresholdProfile | None:
        """The checked profile as cut-offs, or None if it is not a cut-off profile."""
        if not self._cutoff_profile:
            return None
        cutoffs = self._column(_CUTOFF)
        return ThresholdProfile(tuple(cutoffs[k] for k in self._check_index))

    @property
    def last_class_full(self) -> bool | None:
        """Whether some node is at R and every node at R best-responds by
        transmitting everywhere; None if the profile is not a cut-off profile."""
        if not self._cutoff_profile:
            return None
        cases = [_CASES[code & 3] for code, at_r in zip(self._codes, self._at_r()) if at_r]
        return bool(cases) and all(case == FULL_TRANSMIT for case in cases)

    @property
    def classes(self) -> tuple[ClassSolution, ...]:
        """One solution per cost class, costliest first, with the cut-off and
        success of the check of the class's first node."""
        index = self._check_index
        costs, cutoffs, success = (self._column(j) for j in (_COST, _CUTOFF, _SUCCESS))
        return tuple(
            ClassSolution(cls.cost, cls.members, cutoffs[k], success[k])
            for cls in cost_classes(costs[k] for k in index)
            for k in (index[cls.members[0]],)
        )

    @property
    def verdicts(self) -> dict[str, Verdict]:
        check_at_r = self._at_r()
        at_r = [i for i, k in enumerate(self._check_index) if check_at_r[k]]
        equal, _, tol = self._values[:3]
        worst = max(self._column(_RESIDUAL))
        return {
            "single_full_transmitter": Verdict(
                len(at_r) <= 1, float(max(0, len(at_r) - 1)), f"nodes with cut-off at R: {at_r}"
            ),
            "interior_success_targets": Verdict(worst <= RESIDUAL_TOL, worst, _TARGETS_DETAIL),
            "equal_costs_equal_cutoffs": Verdict(equal <= tol, equal, _EQUAL_DETAIL),
        }

    def as_dict(self) -> dict:
        profile = self.profile
        return {
            "thresholds": list(profile.thresholds) if profile else None,
            "last_class_full": self.last_class_full,
            "classes": [c.as_dict() for c in self.classes],
            "nodes": [{"index": i, **n.as_dict()} for i, n in enumerate(self.nodes)],
            "verdicts": {k: v.as_dict() for k, v in self.verdicts.items()},
            "is_nash": self.is_nash,
        }


def solve_symmetric_uniform(n: int, c: float, radius: float) -> float:
    """Closed-form symmetric cut-off for n equal-cost nodes, uniform disk.

    Solves (1 - (t/R)^2)^(n-1) = c/(1+c), always interior.
    """
    if n < 2:
        raise DomainError(f"need at least 2 nodes, got {n}")
    if not (c > 0 and math.isfinite(c)):
        raise DomainError(f"cost must be in (0, inf), got {c!r}")
    if not 0 < radius < math.inf:
        raise DomainError(f"radius must be positive and finite, got {radius!r}")
    try:
        exponent = 1.0 / (n - 1)
    except OverflowError:
        raise DomainError("node count too large for a float") from None
    return radius * math.sqrt(1.0 - cost_target(c) ** exponent)


def solve_sequential(cfg: GameConfig, tol: float | None = None) -> EquilibriumReport:
    """Solve the per-class cut-off equations in decreasing cost order.

    Requires a strictly increasing CDF so each class equation is strictly
    monotone.  Returns the solved profile together with the full
    verification report; a verification failure is reported, never silently
    swallowed.
    """
    dist = cfg.distribution
    if not dist.strictly_increasing:
        raise DomainError("sequential solve needs a strictly increasing CDF")
    radius = cfg.radius
    classes = cost_classes(cfg.costs)

    remaining = cfg.n
    prefix = 1.0  # prod over solved classes of (1 - F(t_l))^{k_l}
    prev_t = 0.0
    thresholds = [0.0] * cfg.n
    for cls in classes:
        k = len(cls.members)
        remaining -= k
        exponent = (k - 1) + remaining
        target = cost_target(cls.cost)
        if exponent == 0:
            # Cheapest class is a singleton: success is flat at `prefix`
            # beyond prev_t, and prefix equals the previous class target,
            # which strictly exceeds this class's target.
            if prefix < target:
                raise NumericError(
                    f"class {cls.rank}: flat success {prefix!r} below target "
                    f"{target!r}; no cut-off profile of this form exists"
                )
            t = radius
        else:
            t = _bisect_class_equation(dist, prefix, exponent, target, prev_t, radius)
        for m in cls.members:
            thresholds[m] = t
        prefix *= (1.0 - dist.cdf_scalar(t)) ** k
        prev_t = t

    return verify_nash(ThresholdProfile(tuple(thresholds)), cfg, tol=tol)


def _bisect_class_equation(dist, prefix, exponent, target, lo, hi):
    """First root of prefix * (1 - F(t))^exponent - target on (lo, hi).

    The function is strictly decreasing and negative at hi; when it is
    positive at lo, :func:`first_zero` finds its first float <= 0 from the
    closed-form root, a guess that saves evaluations and moves no bit.
    """

    def value(t: float) -> float:
        return prefix * (1.0 - dist.cdf_scalar(t)) ** exponent - target

    if value(lo) <= 0:
        raise NumericError(
            f"class equation not bracketed: value({lo!r}) = {value(lo)!r} <= 0"
        )
    return first_zero(value, lo, hi, dist._root_guess(prefix, exponent, target))


def best_response_iteration(cfg: GameConfig) -> ThresholdProfile:
    """Damped simultaneous best-response iteration; independent of the
    sequential solver, used as a cross-check oracle.

    Starts with every cut-off at R and iterates
    t <- t + 0.5 * (best_response(t) - t) until every node has
    |best_response_i - t_i| <= 1e-9 * max(best_response_i, t_i), at any
    scale; raises NumericError after 10,000 rounds without that.
    """
    radius = cfg.radius
    thresholds = [radius] * cfg.n
    for _ in range(10_000):
        profile = ThresholdProfile(tuple(thresholds)).to_strategy_profile(radius)
        responses = [best_response_threshold(profile, cfg, i).threshold for i in range(cfg.n)]
        if all(abs(r - t) <= 1e-9 * max(r, t) for r, t in zip(responses, thresholds)):
            return ThresholdProfile(tuple(responses))
        thresholds = [t + 0.5 * (r - t) for r, t in zip(responses, thresholds)]
    raise NumericError(
        "best-response iteration did not reach relative residual 1e-9 within 10000 rounds"
    )


def verify_nash(
    profile: StrategyProfile | ThresholdProfile,
    cfg: GameConfig,
    tol: float | None = None,
) -> EquilibriumReport:
    """Re-check a candidate profile node by node and emit a full report.

    Each node's best response is recomputed against the others and compared
    with the node's actual strategy; nodes with the same strategy and cost
    face the same problem, so each distinct (strategy, cost) pair is checked
    once and its nodes share one :class:`NodeCheck`.  A node matches when
    the transmit sets' symmetric difference has measure at most that of a
    tol-neighbourhood of the best-response cut-off (``tol`` defaults to
    1e-10 * radius), so measure-null discrepancies never fail the check;
    the raw cut-off residual is reported alongside.  Structural verdicts:

    * ``single_full_transmitter`` -- at most one cut-off reaches R;
    * ``interior_success_targets`` -- success at each interior cut-off is
      within ``RESIDUAL_TOL`` of cost/(1+cost); a node at R instead needs
      success(R) >= its target;
    * ``equal_costs_equal_cutoffs`` -- equal-cost nodes share one cut-off.

    The report derives these and ``last_class_full`` from the checks alone.
    """
    dist = cfg.distribution
    radius = cfg.radius
    if tol is None:
        tol = 1e-10 * radius
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")

    if isinstance(profile, ThresholdProfile):
        profile = profile.to_strategy_profile(radius)
    _check(profile, cfg)
    strategies = profile.strategies

    # A node's best response depends only on its own cost and the multiset
    # of its opponents' strategies, so nodes alike in both are checked once.
    keys = list(zip(strategies, cfg.costs))
    check_of: dict[tuple[Strategy, float], int] = {}
    values, codes = [], []
    for i, key in enumerate(keys):
        if key in check_of:
            continue
        check_of[key] = len(codes)
        s, cost = key
        br = best_response_threshold(profile, cfg, i)
        cutoff = s.cutoff
        sym_diff = s.symmetric_difference_measure(Strategy.threshold(br.threshold, radius), dist)
        # Discrepancies invisible to the law (null sets) must pass, so the
        # measure bar is the mass of a tol-ball around the best response.
        ball_lo = max(0.0, br.threshold - tol)
        ball_hi = min(radius, br.threshold + tol)
        measure_bar = dist.interval_measure(ball_lo, ball_hi) + 1e-15
        codes.append((_MATCHED if sym_diff <= measure_bar else 0) | _CASES.index(br.boundary_case))
        # Success at an interior cut-off must sit at the break-even target;
        # a node stopping only at R needs success(R) >= target.
        target = cost_target(cost)
        g = success_probability(profile, cfg, i, cutoff)
        if cutoff >= radius - tol:
            g_end = g if cutoff == radius else success_probability(profile, cfg, i, radius)
            residual = max(0.0, target - g_end)
        else:
            residual = abs(g - target)
        values += (cost, cutoff, br.threshold, sym_diff, g, residual)
    check_index = _packed(check_of[key] for key in keys)

    # Equal costs force equal cut-offs (and equivalent strategies).  A member
    # sharing the head's check has the head's strategy, and both
    # discrepancies are then exactly zero.
    eq_residual = 0.0
    for cls in cost_classes(cfg.costs):
        head = cls.members[0]
        for m in cls.members[1:]:
            if check_index[m] == check_index[head]:
                continue
            eq_residual = max(
                eq_residual,
                abs(strategies[m].cutoff - strategies[head].cutoff),
                strategies[m].symmetric_difference_measure(strategies[head], dist),
            )

    return EquilibriumReport(
        _values=array("d", (eq_residual, radius, tol, *values)),
        _codes=bytes(codes),
        _check_index=check_index,
        _cutoff_profile=all(s.is_threshold for s in strategies),
    )
