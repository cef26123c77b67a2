"""One-shot random access game with imperfect location information.

Nodes scattered on a disk compete to deliver a packet to a central sink
over a capture channel (closest transmitter wins).  Each node knows only
its own distance and the common law of everyone else's.  This package
computes packet success probabilities for arbitrary piecewise transmit
strategies, best-response cut-off distances, and equilibrium cut-off
profiles, and validates every analytic quantity against a Monte Carlo
oracle.
"""

from .best_response import (
    BOUNDARY_ZERO,
    FULL_TRANSMIT,
    INTERIOR,
    BestResponseResult,
    best_response_threshold,
)
from .equilibrium import (
    ClassSolution,
    CostClass,
    EquilibriumReport,
    NodeCheck,
    ThresholdProfile,
    Verdict,
    best_response_iteration,
    cost_classes,
    cost_target,
    solve_sequential,
    solve_symmetric_uniform,
    verify_nash,
)
from .errors import DomainError, NumericError
from .monte_carlo import (
    SimConfig,
    SimEstimate,
    estimate_expected_utility,
    estimate_success_curve,
    estimate_success_probability,
)
from .radial import RadialDistribution
from .strategy import GameConfig, Strategy, StrategyProfile
from .success import (
    SuccessCurve,
    success_curve,
    success_probability,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_ZERO",
    "FULL_TRANSMIT",
    "INTERIOR",
    "BestResponseResult",
    "ClassSolution",
    "CostClass",
    "DomainError",
    "EquilibriumReport",
    "GameConfig",
    "NodeCheck",
    "NumericError",
    "RadialDistribution",
    "SimConfig",
    "SimEstimate",
    "Strategy",
    "StrategyProfile",
    "SuccessCurve",
    "ThresholdProfile",
    "Verdict",
    "best_response_iteration",
    "best_response_threshold",
    "cost_classes",
    "cost_target",
    "estimate_expected_utility",
    "estimate_success_curve",
    "estimate_success_probability",
    "solve_sequential",
    "solve_symmetric_uniform",
    "success_curve",
    "success_probability",
    "verify_nash",
]
