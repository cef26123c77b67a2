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
positive through R: the node transmits everywhere and the profile carries
``last_class_full``.  By the same token at most one node ends at R.

Verification is independent of the solver: each node's best response is
recomputed from scratch (once per distinct strategy and cost, since nodes
alike in both face the same opponents) and compared against the profile,
and the structural conditions (at most one cut-off at R; success at
interior cut-offs equal to cost/(1+cost); equal costs giving equal
cut-offs) are checked with explicit residuals.
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
    last_class_full: bool = False

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
#: 0-1, then the _MATCHED and _AT_R bits, then its cost class rank from bit
#: _RANK_SHIFT up.
_CASES = (INTERIOR, FULL_TRANSMIT, BOUNDARY_ZERO)
_MATCHED = 1 << 2
_AT_R = 1 << 3
_RANK_SHIFT = 4
#: Bits of a report's flags: two verdicts' outcomes, whether the profile is
#: a cut-off profile, and then its ``last_class_full``.
_TARGETS_PASSED = 1 << 0
_EQUAL_PASSED = 1 << 1
_CUTOFF_PROFILE = 1 << 2
_LAST_CLASS_FULL = 1 << 3

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
    """Solved or candidate profile plus all verification verdicts.

    Callers may keep reports by the thousand, so a report is stored packed:

    * ``_values``: the three verdict residuals, then cut-off, best response
      and symmetric difference of each distinct check, then cost, cut-off
      and success value of each cost class;
    * ``_codes``: one integer per check holding its boundary case, whether
      it matched, whether its cut-off is at R, and its cost class rank;
    * ``_check_index``: per node, the index of its check.

    ``classes``, ``verdicts``, ``nodes`` and ``profile`` are built from
    these on access.  ``nodes`` builds each distinct :class:`NodeCheck` on
    first access and keeps it, so alike nodes share one object.
    """

    _values: array
    _codes: bytes | array
    _check_index: bytes | array
    _flags: int
    is_nash: bool
    _checks: tuple[NodeCheck, ...] | None = field(default=None, repr=False, compare=False)

    @property
    def nodes(self) -> tuple[NodeCheck, ...]:
        """One check per node, in node order; alike nodes share one object."""
        if self._checks is None:
            v = self._values
            checks = tuple(
                NodeCheck(
                    cutoff=v[3 * k + 3],
                    best_response=v[3 * k + 4],
                    boundary_case=_CASES[code & 3],
                    symmetric_difference=v[3 * k + 5],
                    matched=bool(code & _MATCHED),
                )
                for k, code in enumerate(self._codes)
            )
            object.__setattr__(self, "_checks", checks)
        return tuple(self._checks[k] for k in self._check_index)

    @property
    def profile(self) -> ThresholdProfile | None:
        """The checked profile as cut-offs, or None if it is not a cut-off profile."""
        if not self._flags & _CUTOFF_PROFILE:
            return None
        cutoffs = tuple(self._values[3 * k + 3] for k in self._check_index)
        return ThresholdProfile(cutoffs, last_class_full=bool(self._flags & _LAST_CLASS_FULL))

    @property
    def classes(self) -> tuple[ClassSolution, ...]:
        """One solution per cost class, costliest first, at the profile's cut-offs."""
        base = 3 + 3 * len(self._codes)
        members = [[] for _ in range((len(self._values) - base) // 3)]
        for i, k in enumerate(self._check_index):
            members[self._codes[k] >> _RANK_SHIFT].append(i)
        v = self._values
        return tuple(
            ClassSolution(
                cost=v[base + 3 * r],
                members=tuple(m),
                threshold=v[base + 3 * r + 1],
                success_value=v[base + 3 * r + 2],
            )
            for r, m in enumerate(members)
        )

    @property
    def verdicts(self) -> dict[str, Verdict]:
        at_r = [i for i, k in enumerate(self._check_index) if self._codes[k] & _AT_R]
        single, targets, equal = self._values[:3]
        return {
            "single_full_transmitter": Verdict(
                len(at_r) <= 1, single, f"nodes with cut-off at R: {at_r}"
            ),
            "interior_success_targets": Verdict(
                bool(self._flags & _TARGETS_PASSED), targets, _TARGETS_DETAIL
            ),
            "equal_costs_equal_cutoffs": Verdict(
                bool(self._flags & _EQUAL_PASSED), equal, _EQUAL_DETAIL
            ),
        }

    def as_dict(self) -> dict:
        profile = self.profile
        return {
            "thresholds": list(profile.thresholds) if profile else None,
            "last_class_full": profile.last_class_full if profile else None,
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
    last_class_full = False
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
            last_class_full = True
        else:
            t = _bisect_class_equation(dist, prefix, exponent, target, prev_t, radius)
        for m in cls.members:
            thresholds[m] = t
        prefix *= (1.0 - dist.cdf(t)) ** k
        prev_t = t

    profile = ThresholdProfile(tuple(thresholds), last_class_full=last_class_full)
    return verify_nash(profile, cfg, tol=tol)


def _bisect_class_equation(dist, prefix, exponent, target, lo, hi):
    """First root of prefix * (1 - F(t))^exponent - target on (lo, hi).

    The function is strictly decreasing and negative at hi; when it is
    positive at lo, :func:`first_zero` bisects to adjacent floats.
    """

    def value(t: float) -> float:
        return prefix * (1.0 - dist.cdf(t)) ** exponent - target

    if value(lo) <= 0:
        raise NumericError(
            f"class equation not bracketed: value({lo!r}) = {value(lo)!r} <= 0"
        )
    return first_zero(value, lo, hi)


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
        results = [best_response_threshold(profile, cfg, i) for i in range(cfg.n)]
        responses = [r.threshold for r in results]
        if all(abs(r - t) <= 1e-9 * max(r, t) for r, t in zip(responses, thresholds)):
            full = any(
                r.boundary_case == FULL_TRANSMIT for r in results if r.threshold == radius
            )
            return ThresholdProfile(tuple(responses), last_class_full=full)
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
    """
    dist = cfg.distribution
    radius = cfg.radius
    if tol is None:
        tol = 1e-10 * radius
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")

    last_class_full = None
    if isinstance(profile, ThresholdProfile):
        last_class_full = profile.last_class_full
        strategy_profile = profile.to_strategy_profile(radius)
    else:
        strategy_profile = profile
    _check(strategy_profile, cfg)

    # A node's best response depends only on its own cost and the multiset
    # of its opponents' strategies, so nodes alike in both are checked once.
    classes = cost_classes(cfg.costs)
    rank_of = {cls.cost: cls.rank for cls in classes}
    keys = list(zip(strategy_profile.strategies, cfg.costs))
    check_of: dict[tuple[Strategy, float], int] = {}
    check_values, codes, residuals = [], [], []
    success_at = []  # per check, (distance, success there) for its first node
    for i, key in enumerate(keys):
        if key in check_of:
            continue
        check_of[key] = len(codes)
        s, cost = key
        br = best_response_threshold(strategy_profile, cfg, i)
        cutoff = s.cutoff
        sym_diff = s.symmetric_difference_measure(Strategy.threshold(br.threshold, radius), dist)
        # Discrepancies invisible to the law (null sets) must pass, so the
        # measure bar is the mass of a tol-ball around the best response.
        ball_lo = max(0.0, br.threshold - tol)
        ball_hi = min(radius, br.threshold + tol)
        measure_bar = dist.interval_measure(ball_lo, ball_hi) + 1e-15
        at_r = cutoff >= radius - tol
        check_values += (cutoff, br.threshold, sym_diff)
        codes.append(
            rank_of[cost] << _RANK_SHIFT
            | (_AT_R if at_r else 0)
            | (_MATCHED if sym_diff <= measure_bar else 0)
            | _CASES.index(br.boundary_case)
        )
        # Success at an interior cut-off must sit at the break-even target;
        # a node stopping only at R needs success(R) >= target.
        target = cost_target(cost)
        x = radius if at_r else cutoff
        g = success_probability(strategy_profile, cfg, i, x)
        residuals.append(max(0.0, target - g) if at_r else abs(g - target))
        success_at.append((x, g))
    check_index = _packed(check_of[key] for key in keys)
    is_nash = all(code & _MATCHED for code in codes)
    cutoffs = [check_values[3 * k] for k in check_index]

    # At most one node may transmit all the way to R.
    n_at_r = sum(1 for k in check_index if codes[k] & _AT_R)
    worst = max(residuals)

    # Equal costs force equal cut-offs (and equivalent strategies).  A member
    # sharing the head's check has the head's strategy, and both
    # discrepancies are then exactly zero.
    eq_residual = 0.0
    for cls in classes:
        head = cls.members[0]
        for m in cls.members[1:]:
            if check_index[m] == check_index[head]:
                continue
            eq_residual = max(eq_residual, abs(cutoffs[m] - cutoffs[head]))
            eq_residual = max(
                eq_residual,
                strategy_profile.strategies[m].symmetric_difference_measure(
                    strategy_profile.strategies[head], dist
                ),
            )

    # Class table, evaluated at the profile's own cut-offs.  A class head is
    # the first node of its check, which has evaluated success at its cut-off
    # already unless it was checked at R instead.
    class_values = []
    for cls in classes:
        head = cls.members[0]
        t = cutoffs[head]
        x, g = success_at[check_index[head]]
        if x != t:
            g = success_probability(strategy_profile, cfg, head, t)
        class_values += (cls.cost, t, g)

    flags = (_TARGETS_PASSED if worst <= RESIDUAL_TOL else 0) | (
        _EQUAL_PASSED if eq_residual <= tol else 0
    )
    if all(s.is_threshold for s in strategy_profile.strategies):
        if last_class_full is None:
            full = [code for code in codes if code & _AT_R]
            last_class_full = bool(full) and all(
                _CASES[code & 3] == FULL_TRANSMIT for code in full
            )
        flags |= _CUTOFF_PROFILE | (_LAST_CLASS_FULL if last_class_full else 0)

    residual_values = (float(max(0, n_at_r - 1)), worst, eq_residual)
    return EquilibriumReport(
        _values=array("d", (*residual_values, *check_values, *class_values)),
        _codes=_packed(codes),
        _check_index=check_index,
        _flags=flags,
        is_nash=is_nash,
    )
