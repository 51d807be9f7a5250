"""Numerical lab for the bottleneck-entrance flow model.

Occupancy x(t) in [0, 1] follows x'(t) = sigma(t)(1 - x(t)) - lam x(t):
inflow sigma(t) is throttled by the vacancy 1 - x and output leaves at
rate lam x. The package computes periodic steady states and averaged
throughput, verifies the quadratic shortfall identity behind the
constant-inflow optimality property to rounding precision, estimates
long-run averages for aperiodic inflow, and searches constrained waveform
families in an attempt to beat the constant benchmark (it never does, and
fails loudly if it ever were to).
"""

from .signals import (
    ClippedSinusoidSum,
    Constant,
    InputSignal,
    NonPeriodicSignalError,
    PiecewiseConstant,
    Sampled,
    SignalError,
    SystemParams,
    evaluate_array,
    max_level,
    mean_over_period,
    period_of,
    signal_from_dict,
    signal_to_dict,
)
from .dynamics import (
    DomainError,
    StepSizeError,
    Trajectory,
    default_step,
    simulate,
    trajectory_to_csv,
)
from .periodic import (
    PeriodicReport,
    PoincareMap,
    constant_benchmark,
    gap_report,
    poincare_map,
)
from .asymptotic import (
    BoundCheck,
    Certificates,
    IndependenceCheck,
    RunningAverages,
    finite_horizon_certificates,
    longrun_bound_check,
    running_averages,
    solution_independence_check,
)
from .optimize import (
    BangBang,
    EvaluationLog,
    OptimizationResult,
    PiecewiseConstantFree,
    coordinate_descent,
    grid_search,
    project_to_mean,
)

__version__ = "0.1.0"

__all__ = [
    "ClippedSinusoidSum", "Constant", "InputSignal", "NonPeriodicSignalError",
    "PiecewiseConstant", "Sampled", "SignalError", "SystemParams",
    "evaluate_array", "max_level", "mean_over_period",
    "period_of", "signal_from_dict", "signal_to_dict",
    "DomainError", "StepSizeError", "Trajectory", "default_step",
    "simulate", "trajectory_to_csv",
    "PeriodicReport", "PoincareMap", "constant_benchmark",
    "gap_report", "poincare_map",
    "BoundCheck", "Certificates", "IndependenceCheck",
    "RunningAverages", "finite_horizon_certificates", "longrun_bound_check",
    "running_averages", "solution_independence_check",
    "BangBang", "EvaluationLog", "OptimizationResult", "PiecewiseConstantFree",
    "coordinate_descent", "grid_search", "project_to_mean",
    "__version__",
]
