"""Sequential change-point detection on autocorrelated multivariate streams
with adaptive partial observation.

The pipeline: simulate or record a stream (`model`), filter it through a
partially-observable Kalman predictor (`filtering`), scan residuals with a
windowed GLRT (`detector`), pick the next observation subset by maximizing
projected detectability over an upper confidence region (`sampler`), and
calibrate the alarm threshold by common-random-numbers bisection
(`calibration`).  Experiments live in `harness`/`scenarios`, the CLI in
`cli`.
"""

from .calibration import (
    CalibrationResult,
    CalibrationSpec,
    calibrate_h,
    estimate_add,
    ic_trajectories,
    run_once,
)
from .detector import Detector, ScanResult, WindowConfig
from .errors import CalibrationError, ConfigError, NumericalError
from .filtering import FilterState, StepOutput, filter_init, filter_step
from .harness import (
    ResultTable,
    emit_outputs,
    ingest_csv,
    replay_monitor,
    run_scenario,
)
from .model import (
    ChangeSpec,
    ModelParams,
    ObservationMask,
    simulate_stream,
    stationary_covariance,
)
from .monitor import Policy, RunRecord, Scenario, run_single
from .sampler import (
    AlphaSchedule,
    SamplingDecision,
    UcrInputs,
    adaptive_alpha,
    chi2_quantile,
    select_exhaustive,
    select_greedy,
    select_random,
    solve_ellipsoid_max,
)
from .scenarios import built_in_scenario, benchmark_p10_model, benchmark_p30_model

__version__ = "0.1.0"

__all__ = [
    "AlphaSchedule",
    "CalibrationError",
    "CalibrationResult",
    "CalibrationSpec",
    "ChangeSpec",
    "ConfigError",
    "Detector",
    "FilterState",
    "ModelParams",
    "NumericalError",
    "ObservationMask",
    "Policy",
    "ResultTable",
    "RunRecord",
    "SamplingDecision",
    "ScanResult",
    "Scenario",
    "StepOutput",
    "UcrInputs",
    "WindowConfig",
    "adaptive_alpha",
    "built_in_scenario",
    "calibrate_h",
    "chi2_quantile",
    "emit_outputs",
    "estimate_add",
    "filter_init",
    "filter_step",
    "ic_trajectories",
    "ingest_csv",
    "benchmark_p10_model",
    "benchmark_p30_model",
    "replay_monitor",
    "run_once",
    "run_scenario",
    "run_single",
    "select_exhaustive",
    "select_greedy",
    "select_random",
    "simulate_stream",
    "solve_ellipsoid_max",
    "stationary_covariance",
]
