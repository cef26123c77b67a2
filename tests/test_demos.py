"""The demo scripts run clean, and the public names they and other callers
import stay exactly as listed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ragame

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_public_names():
    assert sorted(ragame.__all__) == sorted([
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
    ])
    assert len(ragame.__all__) == 31
    assert all(hasattr(ragame, name) for name in ragame.__all__)
